"""Content-addressed JSON result cache.

Files live under a cache directory as <sha256-of-request>.json and are
written atomically (<path>.<pid>.tmp, then renamed over <path>), so
concurrent writers of the same key are harmless.  The cache is disabled
unless a directory is configured (WBLOCKS_CACHE environment variable or
configure()); with it on or off, computed results are byte-identical, only
timing changes.

A file holds the sha256 hex digest of its JSON blob on its first line, then
the blob {"request": ..., "result": ...}.  A file whose digest line does not
match the bytes that follow it is a miss, so a corrupted or edited file is
recomputed and rewritten, never served; so is a file written before digest
lines were.  Callers version their own requests (a "format" field), so a
change of request format moves a file to another name; see
qcanon._basis_family for the family layout.
"""

from __future__ import annotations

import hashlib
import json
import os

from .jsonfmt import compact, spaced

_cache_dir: str | None = os.environ.get("WBLOCKS_CACHE") or None


def configure(directory: str | None):
    """Set (or clear) the cache directory at runtime; CLI flag wins over the
    environment variable."""
    global _cache_dir
    _cache_dir = directory


def current_dir() -> str | None:
    return _cache_dir


def _path(request) -> str:
    blob = compact(request)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return os.path.join(_cache_dir, f"{digest}.json")


def get(request):
    if _cache_dir is None:
        return None
    try:
        with open(_path(request), "rb") as fh:
            digest, _, blob = fh.read().partition(b"\n")
        if hashlib.sha256(blob).hexdigest().encode() != digest:
            return None
        stored = json.loads(blob.decode())
    except (OSError, ValueError, RecursionError):  # unreadable, not UTF-8, not JSON, too deep
        return None
    if not isinstance(stored, dict) or stored.get("request") != request:
        return None
    return stored.get("result")


def put(request, result):
    """Write result for request; a directory that cannot be made or written
    to (any OSError) skips the write, and the temp file is removed.  The temp
    file's name holds the writer's pid, so no two live writers share one."""
    if _cache_dir is None:
        return
    path = _path(request)
    blob = spaced({"request": request, "result": result}).encode()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(_cache_dir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(hashlib.sha256(blob).hexdigest().encode() + b"\n" + blob)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
