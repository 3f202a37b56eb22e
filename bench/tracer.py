"""Outside-in tracer: wraps the program's functions at run time.

The tracer lives in a forked child and is thrown away with it.  Each wrapped
function gets a call count and a self time (its span minus the time spent in
wrapped callees).  Coarse calls also get a span (name, start, end, parent),
kept in memory and returned to the parent when the child ends.  A function
that is absent is recorded as missing; its metrics are then reported as
missing instead of crashing the run.
"""

from __future__ import annotations

import os
import time

# Every per-layer metric the traced run reports, with its unit.  Later
# performance work cites these names (see BENCHMARK.json and WORKLOADS.md).
PER_LAYER = {
    "laurent.mul.calls": "count",
    "laurent.mul.self_s": "s",
    "laurent.mul.term_products": "count",
    "laurent.add.calls": "count",
    "laurent.add.self_s": "s",
    "laurent.divexact.calls": "count",
    "laurent.divexact.self_s": "s",
    "laurent.qbinom.hit_ratio": "ratio",
    "laurent.qfact.hit_ratio": "ratio",
    "qcanon.r_apply.calls": "count",
    "qcanon.r_apply.self_s": "s",
    "qcanon.psi.calls": "count",
    "qcanon.psi.self_s": "s",
    "qcanon.psi_star.calls": "count",
    "qcanon.psi_star.self_s": "s",
    "qcanon.tensor_add.calls": "count",
    "qcanon.tensor_add.terms_copied": "count",
    "qcanon.dual_canonical.self_s": "s",
    "qcanon.canonical.self_s": "s",
    "qcanon.family.vectors": "count",
    "qcanon.key_stat.calls": "count",
    "qcanon.key_stat.self_s": "s",
    "qcanon.lusztig.reductions": "count",
    "qcanon.weight_keys.scanned": "count",
    "qcanon.weight_keys.kept": "count",
    "qcanon.weight_keys.yield": "ratio",
    "blockan.cartan_entry.calls": "count",
    "blockan.cartan_entry.self_s": "s",
    "blockan.graded_cartan.calls": "count",
    "blockan.graded_cartan.self_s": "s",
    "blockan.tau_terms": "count",
    "center.e_super.self_s": "s",
    "center.in_I.self_s": "s",
    "center.in_J.self_s": "s",
    "center.hc_series_coeff.self_s": "s",
    "multipoly.mul.calls": "count",
    "multipoly.mul.self_s": "s",
    "cache.get.calls": "count",
    "cache.get.hit_ratio": "ratio",
    "cache.get.bytes": "bytes",
    "cache.get.self_s": "s",
    "cache.put.calls": "count",
    "cache.put.bytes": "bytes",
    "cache.put.self_s": "s",
    "cli.main.self_s": "s",
    "cli.build_parser.self_s": "s",
    "cli.nonzero_exit.count": "count",
    "cli.call_p50_ms": "ms",
    "cli.call_p90_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "bench.host_ref_ms": "ms",
    "bench.wall_raw_s": "s",
    "bench.ref_floor_ms": "ms",
}


class Tracer:
    """Counters, self times and spans of the functions wrapped by wrap()."""

    def __init__(self):
        self.stats: dict = {}  # record name -> {"calls": n, "self_s": t, ...}
        self.missing: set = set()  # records (or "record.field") that cannot be measured
        self.spans: list = []  # [name, start, end, parent index or None]
        self._inner = [0.0]  # time in wrapped callees, one slot per open call
        self._open = [None]  # innermost open span

    def wrap(self, owner, attr: str, name: str, span: bool = False, after=None):
        """Replace owner.attr by a timing wrapper that feeds record `name`.
        `after(rec, args, result)` adds derived counts once the call is timed."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        rec = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        inner, opened, spans, clock = self._inner, self._open, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, opened[-1]])
                opened.append(idx)
            inner.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                callee = inner.pop()
                inner[-1] += elapsed
                rec["calls"] += 1
                rec["self_s"] += elapsed - callee
                if span:
                    opened.pop()
                    spans[idx][1:3] = [start, start + elapsed]
            if after is not None:
                try:
                    after(rec, args, out)
                except Exception:  # noqa: BLE001 - a broken count must not change the program's result
                    self.missing.add(name)
            return out

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def count_yields(self, owner, attr: str, name: str, scanned):
        """Wrap a generator function: count the items it yields ("kept") and
        the candidates it had to scan, computed from its arguments."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        rec = self.stats.setdefault(name, {"calls": 0, "scanned": 0, "kept": 0})

        def wrapper(*args, **kwargs):
            rec["calls"] += 1
            rec["scanned"] += scanned(*args, **kwargs)
            for item in fn(*args, **kwargs):
                rec["kept"] += 1
                yield item

        setattr(owner, attr, wrapper)

    def wrapped_s(self) -> float:
        """Time spent inside outermost wrapped calls."""
        return self._inner[0]


def _add_count(key, measure):
    def after(rec, args, out):
        rec[key] = rec.get(key, 0) + measure(args, out)

    return after


def _file_bytes(path_of):
    """Size of the cache file a get/put touched."""

    def measure(args, out):
        try:
            return os.path.getsize(path_of(args[0]))
        except (OSError, TypeError):  # no cache directory or path function
            return 0

    return measure


def install(tr: Tracer):
    """Wrap the layers' functions.  Only module and class attributes are
    touched, the way the program's own fault injection does it."""
    from wblocks import blockan, cache, center, cli, laurent, multipoly, qcanon

    L = laurent.LaurentQ

    def term_products(args, out):
        a, b = args
        return len(a.coeffs) * (len(b.coeffs) if isinstance(b, L) else 1)

    for attr in ("__mul__", "__rmul__"):
        tr.wrap(L, attr, "laurent.mul", after=_add_count("term_products", term_products))
    for attr in ("__add__", "__radd__", "__sub__"):
        tr.wrap(L, attr, "laurent.add")
    tr.wrap(L, "divexact", "laurent.divexact")
    # the Lusztig's-lemma loop takes one positive part per reduction step
    tr.wrap(L, "positive_part", "qcanon.lusztig")

    tr.wrap(qcanon, "r_apply", "qcanon.r_apply")
    tr.wrap(qcanon, "psi", "qcanon.psi")
    tr.wrap(qcanon, "psi_star", "qcanon.psi_star")
    tr.wrap(qcanon.TensorVec, "__add__", "qcanon.tensor_add",
            after=_add_count("terms_copied", lambda args, out: len(args[0].terms)))
    tr.wrap(qcanon, "dual_canonical", "qcanon.dual_canonical", span=True)
    tr.wrap(qcanon, "canonical", "qcanon.canonical", span=True)
    tr.wrap(qcanon, "key_stat", "qcanon.key_stat")
    tr.count_yields(qcanon, "_weight_space_keys", "qcanon.weight_keys",
                    lambda N, signs, weight: N ** len(signs))

    tr.wrap(blockan, "cartan_matrix", "blockan.cartan_matrix", span=True)
    tr.wrap(blockan, "cartan_entry", "blockan.cartan_entry")
    tr.wrap(blockan, "graded_cartan", "blockan.graded_cartan")

    def tau_terms(args, spans):
        if spans is None:
            return 0
        n = 1
        for _, rng in spans:
            n *= len(rng)
        return n

    tr.wrap(blockan, "_tau_choices", "blockan.tau", after=_add_count("terms", tau_terms))
    for fn in ("e_super", "in_I", "in_J", "hc_series_coeff"):
        tr.wrap(center, fn, f"center.{fn}", span=True)
    tr.wrap(multipoly.MultiPoly, "__mul__", "multipoly.mul")

    path_of = getattr(cache, "_path", None)
    if path_of is None:
        tr.missing.update(("cache.get.bytes", "cache.put.bytes"))
    nbytes = _file_bytes(path_of)

    def get_after(rec, args, out):
        if out is not None:
            rec["hits"] = rec.get("hits", 0) + 1
            rec["bytes"] = rec.get("bytes", 0) + nbytes(args, out)

    tr.wrap(cache, "get", "cache.get", span=True, after=get_after)
    tr.wrap(cache, "put", "cache.put", span=True, after=_add_count("bytes", nbytes))
    tr.wrap(cli, "main", "cli.main", span=True,
            after=_add_count("nonzero", lambda args, out: int(out != 0)))
    tr.wrap(cli, "build_parser", "cli.build_parser", span=True)


def cache_hit_counts():
    """(hits, misses) of the quantum factorial and binomial memo caches, when
    the functions still expose them."""
    from wblocks import laurent

    out = {}
    for name in ("qbinom", "qfact"):
        info = getattr(getattr(laurent, name, None), "cache_info", None)
        out[name] = list(info()[:2]) if info is not None else None
    return out


def merge(total: dict, stats: dict):
    """Add one child's records into a running total."""
    for name, rec in stats.items():
        acc = total.setdefault(name, {})
        for key, value in rec.items():
            acc[key] = acc.get(key, 0) + value


# metric -> (record, field) for the metrics read straight off one record
_DIRECT = {
    "laurent.mul.term_products": ("laurent.mul", "term_products"),
    "qcanon.tensor_add.terms_copied": ("qcanon.tensor_add", "terms_copied"),
    "qcanon.lusztig.reductions": ("qcanon.lusztig", "calls"),
    "qcanon.weight_keys.scanned": ("qcanon.weight_keys", "scanned"),
    "qcanon.weight_keys.kept": ("qcanon.weight_keys", "kept"),
    "blockan.tau_terms": ("blockan.tau", "terms"),
    "cache.get.bytes": ("cache.get", "bytes"),
    "cache.put.bytes": ("cache.put", "bytes"),
    "cli.nonzero_exit.count": ("cli.main", "nonzero"),
}


def layer_values(stats: dict, missing: set, hits: dict) -> dict:
    """Per-layer metric values (None = the traced function is missing) from
    one pass's summed records and memo-cache (hits, misses) deltas."""

    def field(name, key):
        if name in missing or f"{name}.{key}" in missing:
            return None
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    out = {}
    for metric in PER_LAYER:
        if metric in _DIRECT:
            out[metric] = field(*_DIRECT[metric])
        elif metric.endswith((".calls", ".self_s")):
            name, key = metric.rsplit(".", 1)
            out[metric] = field(name, key)
    for name in ("qbinom", "qfact"):
        h = hits.get(name)
        out[f"laurent.{name}.hit_ratio"] = None if h is None else ratio(h[0], h[0] + h[1])
    dual, canon = field("qcanon.dual_canonical", "calls"), field("qcanon.canonical", "calls")
    out["qcanon.family.vectors"] = None if None in (dual, canon) else dual + canon
    out["qcanon.weight_keys.yield"] = ratio(out["qcanon.weight_keys.kept"],
                                            out["qcanon.weight_keys.scanned"])
    out["cache.get.hit_ratio"] = ratio(field("cache.get", "hits"), out["cache.get.calls"])
    return out
