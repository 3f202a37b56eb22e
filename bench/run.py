"""Benchmark of wblocks: one workload, one seed, one run.

    python3 bench/run.py --workload cb-families --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src`
with every WBLOCKS_* variable removed.  Each unit of a pass runs in a child
forked from this process, which imports the program and computes nothing, so
every repetition starts from a fresh process's state.  Passes repeat until
--seconds have gone by; the seed permutes the order of units in each pass
and the order of calls in a unit.  A unit's time is normalised by a
reference loop timed in the same child (see REF_NOMINAL_S), and its time in
the run is the mean of its FASTEST normalised samples.  WORKLOADS.md
defines every workload and metric.

Every output item is checked against golden.json.  The last line of stdout
is one JSON object {correct, attempted, failed, metrics}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (passes
then alternate between untraced and traced).  The line before it is the run
record.  The exit code is 0 only when no item failed.

--inject-fault perturbs one program function inside every child; the
benchmark must then report failed > 0 and exit non-zero (see selftest.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

UNIT_TIMEOUT_S = 60.0  # a unit takes well under 2 s on a quiet host
# Host-speed normalisation.  On a shared 2-vCPU cloud VM the speed of the same
# code drifts by 25-50 % over tens of seconds, as other tenants load the
# cores.  So a unit's time is divided by the time of a reference loop run in
# the same child just before and just after it, and scaled to REF_NOMINAL_S,
# about that loop's fastest time on such a VM with Python 3.11.
REF_NOMINAL_S = 0.5e-3
REF_BLOCK = 3  # reference loops just before and just after a unit
FASTEST = 3  # samples averaged per unit, see fastest()
PROBES = 7  # set-up probes per run, spread over the measuring time
FAULTS = {"graded_cartan": ("wblocks.blockan", "graded_cartan"),
          "psi_star": ("wblocks.qcanon", "psi_star")}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import wblocks from the checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "wblocks", "__init__.py")):
        fail(f"no program source under {SRC}")
    for key in [k for k in os.environ if k.startswith("WBLOCKS_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import wblocks

    if os.path.dirname(os.path.dirname(os.path.abspath(wblocks.__file__))) != SRC:
        fail(f"wblocks imported from {wblocks.__file__}, not from {SRC}")
    return wblocks


def host_ref_ms() -> float:
    """A fixed pure-Python loop: shows host phases, is not a normaliser."""
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def ref_loop_s() -> float:
    """One run of a fixed loop of small-dict merges, the kind of work the
    program's Laurent and tensor layers do (about 0.5 ms)."""
    start = time.perf_counter()
    acc: dict = {}
    for j in range(60):
        out = dict(acc)
        for e in range(j % 17, j % 17 + 40):
            s = out.get(e, 0) + e * j
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        acc = {k: v for k, v in out.items() if k % 3}
    return time.perf_counter() - start


def ref_block_s() -> float:
    """Host speed right now: the fastest of REF_BLOCK reference loops, run
    with the garbage collector off so that the heap does not matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(ref_loop_s() for _ in range(REF_BLOCK))
    finally:
        if enabled:
            gc.enable()


def setup_probe(workload: str, workdir: str) -> float:
    """Seconds from spawning a fresh interpreter until the workload's modules
    are imported and its units are built."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-s", os.path.join(BENCH, "probe.py"), workload, workdir],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start


def inject_fault(name: str):
    """Perturb one program function (inside a child only)."""
    from wblocks.laurent import LaurentQ

    module = importlib.import_module(FAULTS[name][0])
    attr = FAULTS[name][1]
    fn = getattr(module, attr)

    def perturbed(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, LaurentQ):
            return out + LaurentQ(1)
        return out.scaled(LaurentQ({1: 1}))  # a TensorVec, times q

    setattr(module, attr, perturbed)


def unit_body(unit, order: int, traced: bool, fault):
    """What a child runs: the unit's calls, timed, then its output items."""
    from tracer import Tracer, cache_hit_counts, install

    if fault:
        inject_fault(fault)
    tr = None
    if traced:
        tr = Tracer()
        install(tr)
        hits = cache_hit_counts()
    before = ref_block_s()
    start = time.perf_counter()
    result = unit.call(order)
    elapsed = time.perf_counter() - start
    ref = min(before, ref_block_s())
    out = {"elapsed": elapsed, "ref": ref, "items": unit.digest(result)}
    if tr is not None:
        after = cache_hit_counts()
        out["trace"] = {
            "stats": tr.stats,
            "missing": sorted(tr.missing),
            "hits": {k: None if v is None else [a - b for a, b in zip(after[k], v)]
                     for k, v in hits.items()},
            "wrapped_s": tr.wrapped_s(),
            "spans": tr.spans,
        }
    return out


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path) if os.path.isdir(path) else ()):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def prepare_cli(workdir: str, run_child, golden=None):
    """Warm the cache and capture the stdin of the recover lines, in a
    child.  Returns the stdin texts and the set-up's failures: a warm-up
    line that did not exit 0, or a recover input that differs from its
    golden output."""
    import workloads

    with open(os.path.join(workdir, "config.json"), "w") as fh:
        json.dump({"format": "csv"}, fh)
    warm = os.path.join(workdir, "warm-cache")
    sources = workloads.recover_sources()

    def body():
        codes = [workloads.cli_call(["--cache-dir", warm] + argv, "")[0]
                 for argv in workloads.WARM_LINES]
        outs = {name: workloads.cli_call(argv, "") for name, argv in sources.items()}
        return {"codes": codes, "outs": outs}

    payload, error, _ = run_child(body)
    if error:
        return {}, [f"cache warm-up: {error.strip().splitlines()[-1]}"]
    problems = [f"warm-up line {i} exited {code}" for i, code in enumerate(payload["codes"]) if code]
    stdin_of = {}
    for name, (code, out, err) in payload["outs"].items():
        stdin_of[name] = out
        if golden is not None and [workloads.cli_item(code, out, err)] != golden.get(name):
            problems.append(f"recover input from {name!r} differs from its golden output")
    return stdin_of, problems


def fastest(times) -> float:
    """A unit's time in a run: the mean of its FASTEST normalised samples.
    Their minimum alone reads too low whenever one reference block happened
    to run slow; the mean of a few lowest is steadier."""
    return statistics.fmean(sorted(times)[:FASTEST])


def git_sha():
    """The commit of the checkout, read without running git; None when the
    checkout is not a git working tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def src_digest() -> str:
    """Digest of the program's Python sources, to identify a checkout that
    is not a git tree."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wblocks")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", choices=sorted(FAULTS))
    args = ap.parse_args(argv)

    wblocks = import_program()
    import child
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)[args.workload]

    os.chdir(ROOT)
    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    load_before = os.getloadavg()
    try:
        return measure(args, wblocks, golden, workdir, load_before, child, tracer, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Gate:
    """Counts output items checked against golden.json and the failures."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = self.failed = 0
        self.errors: list = []

    def fail(self, count: int, message: str):
        self.failed += count
        self.errors.append(message)

    def check(self, uid: str, items, error):
        expect = self.golden[uid]
        self.attempted += len(expect)
        if error:
            self.fail(len(expect), f"{uid}: {error.strip().splitlines()[-1]}")
            return
        bad = [i for i, (a, b) in enumerate(zip(items, expect)) if a != b]
        count = len(bad) + abs(len(items) - len(expect))
        if count:
            first = f" (item {bad[0]}: {items[bad[0]]} != {expect[bad[0]]})" if bad else ""
            self.fail(count, f"{uid}: {count} output item(s) differ from golden{first}")


class TracePass:
    """Per-layer records of one traced pass, summed over its units."""

    def __init__(self):
        self.stats, self.missing, self.hits = {}, set(), {}
        self.wrapped_s = self.elapsed_s = 0.0
        self.spans = {}

    def add(self, uid: str, elapsed: float, tr: dict, merge):
        merge(self.stats, tr["stats"])
        self.missing.update(tr["missing"])
        for name, delta in tr["hits"].items():
            total = self.hits.get(name, [0, 0])
            self.hits[name] = None if None in (delta, total) else [a + b for a, b in zip(total, delta)]
        self.wrapped_s += tr["wrapped_s"]
        self.elapsed_s += elapsed
        self.spans[uid] = tr["spans"]


def measure(args, wblocks, golden, workdir, load_before, child, tracer, workloads) -> int:
    def run_child(fn):
        return child.run(fn, UNIT_TIMEOUT_S)

    start = time.monotonic()
    setups = [setup_probe(args.workload, workdir)]
    gate = Gate(golden)
    stdin_of = {}
    if args.workload == "cli-session":
        stdin_of, problems = prepare_cli(workdir, run_child, golden)
        gate.attempted += 1
        if problems:
            gate.fail(1, "; ".join(problems))
        warm_before = dir_digest(os.path.join(workdir, "warm-cache"))
    units = workloads.build(args.workload, workdir, stdin_of)
    missing_golden = [u.id for u in units if u.id not in golden]
    if missing_golden:
        fail(f"no golden output for units {missing_golden[:3]}")

    rng = random.Random(args.seed)
    deadline = time.monotonic() + args.seconds
    samples = {False: {}, True: {}}  # traced? -> unit id -> normalised times
    raw = {}  # unit id -> fastest untraced time as measured
    passes = {False: 0, True: 0}
    traced_passes, host_refs = [], []
    peak_kb, ref_floor = 0, math.inf
    while True:
        traced = bool(args.trace) and passes[False] > passes[True]
        host_refs.append(host_ref_ms())
        tp = TracePass()
        order = list(units)
        rng.shuffle(order)
        for unit in order:
            seed = rng.getrandbits(32)
            payload, error, maxrss = run_child(lambda: unit_body(unit, seed, traced, args.inject_fault))
            if unit.cold:
                shutil.rmtree(unit.cold, ignore_errors=True)
            gate.check(unit.id, payload and payload["items"], error)
            if error:
                continue
            t = payload["elapsed"]
            ref_floor = min(ref_floor, payload["ref"])
            samples[traced].setdefault(unit.id, []).append(t * REF_NOMINAL_S / payload["ref"])
            if traced:
                tp.add(unit.id, t, payload["trace"], tracer.merge)
            else:
                raw[unit.id] = min(t, raw.get(unit.id, math.inf))
                peak_kb = max(peak_kb, maxrss)
        passes[traced] += 1
        if traced:
            traced_passes.append(tp)
        now = time.monotonic()
        if len(setups) < PROBES and now >= start + len(setups) * args.seconds / PROBES:
            setups.append(setup_probe(args.workload, workdir))
        if now >= deadline and passes[False] >= 1 and passes[True] >= args.trace:
            break
    while len(setups) < PROBES:
        setups.append(setup_probe(args.workload, workdir))

    if args.workload == "cli-session":
        gate.attempted += 1
        if dir_digest(os.path.join(workdir, "warm-cache")) != warm_before:
            gate.fail(1, "warm cache directory changed during the session")

    best = {traced: {uid: fastest(v) for uid, v in by_unit.items()}
            for traced, by_unit in samples.items()}
    norm_wall = sum(best[False].values())
    wall_raw = sum(raw.values())
    host_ref = statistics.median(host_refs)
    floor_ms = ref_floor * 1e3 if raw else None  # None when every unit failed
    spans_path = None
    if args.trace:
        layer = [tracer.layer_values(tp.stats, tp.missing, tp.hits) for tp in traced_passes]
        metrics = {}
        for name in tracer.PER_LAYER:
            vals = [values.get(name) for values in layer]
            metrics[name] = None if not vals or None in vals else statistics.median_low(vals)
        if args.workload == "cli-session" and len(best[False]) > 1:
            deciles = statistics.quantiles([v * 1e3 for v in best[False].values()],
                                           n=10, method="inclusive")
            metrics["cli.call_p50_ms"], metrics["cli.call_p90_ms"] = deciles[4], deciles[8]
        else:
            metrics["cli.call_p50_ms"] = metrics["cli.call_p90_ms"] = 0.0
        metrics["trace.overhead_frac"] = (sum(best[True].values()) / norm_wall - 1
                                          if norm_wall else None)
        metrics["trace.coverage_frac"] = statistics.median(
            tp.wrapped_s / tp.elapsed_s if tp.elapsed_s else 0.0 for tp in traced_passes)
        metrics["bench.host_ref_ms"] = host_ref
        metrics["bench.wall_raw_s"] = wall_raw
        metrics["bench.ref_floor_ms"] = floor_ms
        units_of = tracer.PER_LAYER
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans_path = os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        with open(os.path.join(ROOT, spans_path), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "units": traced_passes[-1].spans}, fh)
    else:
        metrics = {
            "norm_wall_s": norm_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024,
        }
        units_of = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    record = {
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "python": platform.python_version(),
        "kernel": getattr(wblocks, "KERNEL", None),
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "bench.host_ref_ms": host_ref,
        "ref_floor_ms": floor_ms,
        "wall_raw_s": wall_raw,
        "units": len(units),
        "passes_untraced": passes[False],
        "passes_traced": passes[True],
        "setup_probes_s": setups,
        "fault": args.inject_fault,
        "spans": spans_path,
        "errors": gate.errors[:20],
    }
    print(json.dumps({"run_record": record}))
    for line in gate.errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
