"""Fork isolation: run one unit of work in a child forked from a parent that
has imported the program and computed nothing.

The child times itself and sends a JSON payload back through a pipe.  The
parent waits for it with wait4, which also gives the child's peak RSS.  A
child that overruns its deadline is killed and reported as failed.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
import traceback


def run(fn, timeout: float):
    """Run fn() in a forked child.  Returns (payload, error, maxrss_kb):
    payload is fn's JSON-serialisable result, or None with error set."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(rfd)
        status = 0
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            blob = json.dumps({"ok": fn()})
        except BaseException:  # noqa: BLE001 - reported to the parent, then exit
            blob = json.dumps({"error": traceback.format_exc(limit=3)})
            status = 1
        try:
            data = blob.encode()
            while data:
                data = data[os.write(wfd, data):]
        finally:
            os._exit(status)
    os.close(wfd)
    chunks, deadline, done = [], time.monotonic() + timeout, False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                done = True
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if not done:
            os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
    if not done:
        return None, f"child exceeded its {timeout:.0f} s deadline", usage.ru_maxrss
    try:
        reply = json.loads(b"".join(chunks))
    except ValueError:
        return None, "child died without a reply", usage.ru_maxrss
    return reply.get("ok"), reply.get("error"), usage.ru_maxrss
