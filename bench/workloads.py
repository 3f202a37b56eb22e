"""The benchmark's three workloads, as lists of units.

A unit is the smallest piece of work timed on its own: one basis family,
one Cartan matrix, one center degree or one CLI call.  Each unit runs in a
forked child (see child.py).  Its `call(order)` does the program calls and is
the only timed part; `digest(result)` turns the result into the unit's output
items, in a fixed order, for the golden check.  The seed reaches a unit only
as `order`, which permutes the order of its calls and never the calls.

Nothing here imports the program at module level: the set-up probe imports
this file first and the program's modules through `build()`.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import sys

WORKLOADS = ("cb-families", "closed-forms", "cli-session")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Unit:
    def __init__(self, uid: str, call, digest, cold=None):
        self.id = uid
        self.call = call
        self.digest = digest
        self.cold = cold  # cache directory to empty after each call


# ---------------------------------------------------------------------------
# cb-families: both basis families of five weight spaces, from cold

# (N, top row, bottom row) of one key; the weight space is that key's weight
CB_SPACES = (
    (4, (1, 2), (2, 1)),  # 28 vectors
    (5, (1, 2), (2, 1)),  # 45
    (4, (1, 2, 3), (2, 1)),  # 64
    (3, (1, 2, 3), (3, 2, 1)),  # 93: k=6, the 15-step w0 word
    (5, (1, 2, 3), (2, 1)),  # 109: the 3125-tuple scan
)


def _weight(signs: str, key) -> tuple:
    w: dict = {}
    for s, i in zip(signs, key):
        w[i] = w.get(i, 0) + (1 if s == "+" else -1)
    return tuple(sorted((i, c) for i, c in w.items() if c))


def space_keys(N: int, top, bottom) -> list:
    """All index tuples of the weight space of top+bottom (the benchmark's
    own enumeration, independent of the program's)."""
    signs = "+" * len(top) + "-" * len(bottom)
    target = _weight(signs, tuple(top) + tuple(bottom))
    return [k for k in itertools.product(range(1, N + 1), repeat=len(signs))
            if _weight(signs, k) == target]


def _cb_units():
    from wblocks import qcanon

    units = []
    for N, top, bottom in CB_SPACES:
        m = len(top)
        keys = space_keys(N, top, bottom)
        signs = "+" * m + "-" * len(bottom)
        for basis in ("dual", "canonical"):

            def call(order, N=N, m=m, keys=keys, basis=basis):
                fn = qcanon.dual_canonical if basis == "dual" else qcanon.canonical
                todo = list(keys)
                random.Random(order).shuffle(todo)
                return {k: fn(N, k[:m], k[m:]) for k in todo}

            def digest(result, keys=keys):
                return [sha(dumps(result[k].to_json())) for k in keys]

            units.append(Unit(f"{basis}/N{N}/{signs}", call, digest))
    return units


# ---------------------------------------------------------------------------
# closed-forms: Cartan matrices and center membership


def _closed_units():
    from wblocks import blockan, center
    from wblocks.combinat import BlockKey, Composition

    blocks = {
        "t4m4n4": BlockKey(Composition(), Composition(), 4, 4, 4),
        "t4m4n6nu2@1": BlockKey(Composition(), Composition([2], 1), 4, 4, 6),
    }
    units = []
    for name, xi in blocks.items():
        labels = blockan.compositions_in_window(xi.t, 0, 3)
        for graded in (True, False):

            def call(order, xi=xi, labels=labels, graded=graded):
                return blockan.cartan_matrix(xi, labels, graded=graded)

            def digest(matrix, graded=graded):
                return [sha(dumps(v.to_json()) if graded else str(v))
                        for row in matrix for v in row]

            units.append(Unit(f"{'graded' if graded else 'ungraded'}/{name}", call, digest))
    m, n = 3, 4
    for r in range(1, 8):

        def call(order, r=r):
            es = center.e_super(r, m, n)
            return [es, center.in_I(es, m, n), center.in_J(es, m, n),
                    center.hc_series_coeff(r, m, n)]

        def digest(out):
            es, in_i, in_j, series = out
            return [sha(dumps(es.to_json())), str(in_i), str(in_j), sha(dumps(series.to_json()))]

        units.append(Unit(f"center/m{m}n{n}/r{r}", call, digest))
    return units


# ---------------------------------------------------------------------------
# cli-session: command lines through cli.main
#
# Each line is (id, argv, cache, stdin).  cache is None (no cache flag),
# "warm" (reads the cache warmed at set-up) or "cold" (an empty cache
# directory, so the call computes and writes).  stdin names the line whose
# stdout a `recover` line reads.  Every line is distinct.  Lines whose id
# starts with "bad/" or "recover/bad" are malformed and must exit 1 or 2.

B22 = "mu=0;nu=0;t=2"
B11 = "mu=0;nu=0;t=1"
B23 = "mu=0;nu.parts=1;t=2"
B33 = "mu=0;nu=0;t=3"


def _cli_lines():
    lines = []

    def add(uid, argv, cache=None, stdin=None):
        lines.append((uid, list(argv), cache, stdin))

    for m, n, w in ((1, 1, "0..3"), (1, 2, "0..2"), (2, 3, "-1..1"), (2, 2, "0..2"),
                    (2, 2, "-1..2"), (1, 3, "0..2"), (2, 4, "0..1")):
        add(f"blocks/{m}{n}/{w}", ["blocks", "--m", str(m), "--n", str(n), "--window", w])
    for kind in ("verma", "simple"):
        for m, n, block, lam in ((1, 1, B11, "offset=2;parts=1"),
                                 (2, 2, B22, "offset=1;parts=1,1"),
                                 (2, 2, B22, "offset=0;parts=2"),
                                 (2, 3, B23, "offset=1;parts=1,0,1"),
                                 (3, 3, B33, "offset=1;parts=1,1,1"),
                                 (3, 3, B33, "offset=0;parts=2,1")):
            add(f"char/{kind}/{m}{n}/{lam}", ["char", "--m", str(m), "--n", str(n), "--block",
                                              block, "--lambda", lam, "--kind", kind])
    for m, n, block, lam, kap in ((1, 1, B11, "offset=2;parts=1", "offset=1;parts=1"),
                                  (2, 2, B22, "offset=1;parts=1,1", "offset=0;parts=1,0,1"),
                                  (2, 2, B22, "offset=1;parts=2", "offset=0;parts=2"),
                                  (2, 2, B22, "offset=1;parts=1,1", "offset=0;parts=2"),
                                  (3, 3, B33, "offset=1;parts=2,1", "offset=0;parts=1,1,1"),
                                  (3, 3, B33, "offset=2;parts=3", "offset=0;parts=1,2"),
                                  (2, 3, B23, "offset=2;parts=2", "offset=1;parts=1,1")):
        add(f"verma-mult/{m}{n}/{lam}/{kap}", ["verma-mult", "--m", str(m), "--n", str(n),
                                               "--block", block, "--lambda", lam, "--kappa", kap])
    for cmd in ("cartan", "graded-cartan"):
        for m, n, block, w, extra in ((1, 1, B11, "-2..2", ()),
                                      (1, 1, B11, "-3..3", ("--format", "csv")),
                                      (2, 2, B22, "0..2", ()),
                                      (2, 2, B22, "-1..2", ("--format", "csv")),
                                      (2, 3, B23, "0..2", ()),
                                      (1, 2, "mu=0;nu.parts=1;t=1", "-3..3", ()),
                                      (3, 3, B33, "0..2", ()),
                                      (2, 2, "mu.parts=1;nu.offset=1;nu.parts=1;t=1", "0..3", ())):
            add(f"{cmd}/{m}{n}/{block}/{w}/{'-'.join(extra)}",
                [cmd, "--m", str(m), "--n", str(n), "--block", block, "--window", w, *extra])
        add(f"{cmd}/22/q-at-1", [cmd, "--m", "2", "--n", "2", "--block", B22, "--window",
                                 "0..2", "--q-at-1"])
    for lam in ("offset=0;parts=1", "offset=0;parts=2,1", "offset=1;parts=1,1,1",
                "offset=0;parts=3,0,2", "offset=-2;parts=2,2,2", "offset=0;parts=4,1,3"):
        add(f"h/{lam}", ["h", "--lambda", lam])
    for m, n, block, i, extra in ((1, 1, B11, 1, ()), (2, 2, B22, 1, ("--d-invariant",)),
                                  (2, 2, B22, 2, ()), (2, 3, B23, 1, ("--d-invariant",)),
                                  (3, 3, B33, 2, ("--d-invariant",)), (3, 3, B33, 0, ())):
        add(f"end-dim/{m}{n}/{i}/{'-'.join(extra)}", ["end-dim", "--m", str(m), "--n", str(n),
                                                     "--block", block, "--i", str(i), *extra])
    add("recover/11", ["recover"], stdin="cartan/11/mu=0;nu=0;t=1/-2..2/")
    add("recover/11-graded", ["recover"], stdin="graded-cartan/11/mu=0;nu=0;t=1/-2..2/")
    add("recover/12-graded", ["recover"], stdin="graded-cartan/12/mu=0;nu.parts=1;t=1/-3..3/")
    for m, n, block, extra in ((2, 2, "mu.parts=1;nu.offset=1;nu.parts=1;t=1", ()),
                               (2, 2, B22, ()), (2, 3, B23, ("--closure-width", "4")),
                               (3, 3, "mu.parts=1;nu.offset=2;nu.parts=1;t=2", ()),
                               (3, 2, "mu.parts=1;nu=0;t=2", ("--closure-width", "3"))):
        add(f"equiv/{m}{n}/{block}/{'-'.join(extra)}",
            ["equiv", "--m", str(m), "--n", str(n), "--block", block, *extra])
    for m, n, r, extra in ((1, 1, 2, ()), (2, 2, 3, ()), (2, 3, 3, ("--s-minus", "1")),
                           (3, 3, 4, ()), (3, 4, 4, ()), (2, 2, 5, ()), (3, 4, 5, ("--s-minus", "1"))):
        add(f"center/{m}{n}/r{r}/{'-'.join(extra)}",
            ["center", "--m", str(m), "--n", str(n), "--r", str(r), *extra])

    # cb: the warm family of N=4 +++--- (256 vectors) and smaller warm ones
    for key in ("1,2,3;3,2,1", "1,2,3;1,2,3", "2,3,4;4,3,2", "1,1,2;2,1,1", "4,4,1;1,4,4",
                "3,1,2;2,3,1"):
        add(f"cb/warm/N4/+++---/{key}", ["cb", "--N", "4", "--signs", "+++---", "--key", key], "warm")
    add("cb/warm/N4/+++---/pair", ["cb", "--N", "4", "--signs", "+++---", "--key", "1,2,3;3,2,1",
                                   "--pair-with", "2,1,3;3,1,2"], "warm")
    for N, signs, key, basis in ((4, "++--", "1,2;2,1", "dual"), (4, "++--", "3,4;4,3", "dual"),
                                 (4, "++--", "1,2;2,1", "canonical"), (3, "++-", "1,2;2", "dual"),
                                 (3, "++-", "2,3;3", "canonical"), (5, "++--", "1,2;2,1", "dual"),
                                 (5, "++--", "5,3;3,5", "dual")):
        add(f"cb/warm/N{N}/{signs}/{key}/{basis}",
            ["cb", "--N", str(N), "--signs", signs, "--key", key, "--basis", basis], "warm")
    # cold: compute and write into an empty cache directory
    for N, signs, key, basis in ((3, "++-", "2,2;2", "dual"), (3, "+--", "1;2,1", "dual"),
                                 (3, "++--", "1,2;2,1", "dual"), (3, "++--", "1,2;2,1", "canonical"),
                                 (4, "++-", "1,2;2", "dual"), (4, "++-", "3,4;4", "canonical"),
                                 (2, "+++--", "1,2,1;2,1", "dual"), (3, "+++-", "1,2,3;3", "dual"),
                                 (3, "+++--", "1,2,3;3,2", "canonical"), (5, "++-", "1,5;5", "dual"),
                                 (4, "++--", "2,3;3,2", "canonical")):
        add(f"cb/cold/N{N}/{signs}/{key}/{basis}",
            ["cb", "--N", str(N), "--signs", signs, "--key", key, "--basis", basis], "cold")
    add("cb/cold/N3/++--/pair", ["cb", "--N", "3", "--signs", "++--", "--key", "1,2;2,1",
                                 "--pair-with", "2,1;1,2"], "cold")
    add("cb/nocache/N3/++-", ["--no-cache", "cb", "--N", "3", "--signs", "++-", "--key", "1,3;3"])
    add("config/cartan-csv", ["--config", "@config", "cartan", "--m", "1", "--n", "1",
                              "--block", B11, "--window", "0..2"])

    # malformed lines: each must end in exit code 1 or 2 without a traceback
    bad = [
        [], ["frobnicate"], ["h"], ["h", "--lambda", "parts"], ["h", "--lambda", "offset=0;parts=-2"],
        ["blocks", "--m", "2"], ["blocks", "--m", "x", "--n", "2", "--window", "0..2"],
        ["blocks", "--m", "2", "--n", "2", "--window", "0:2"],
        ["blocks", "--m", "4", "--n", "4", "--window", "0..9"],
        ["char", "--m", "2", "--n", "2", "--block", "mu=0;nu=0", "--lambda", "0"],
        ["char", "--m", "2", "--n", "2", "--block", "mu=0;nu=0;t=3", "--lambda", "0"],
        ["char", "--m", "2", "--n", "2", "--block", B22, "--lambda", "0", "--kind", "odd"],
        ["verma-mult", "--m", "2", "--n", "2", "--block", B22, "--lambda", "offset=0;parts=2"],
        ["cartan", "--m", "2", "--n", "2", "--block", "mu=1;nu=0;t=2", "--window", "0..2"],
        ["end-dim", "--m", "2", "--n", "2", "--block", B22, "--i", "x"],
        ["center", "--m", "3", "--n", "4", "--r", "0"],
        ["cb", "--N", "3", "--signs", "+-", "--key", "1;2;3"],
        ["cb", "--N", "3", "--signs", "++", "--key", "1;2"],
        ["cb", "--N", "3", "--signs", "+-", "--key", "1;x"],
        ["cb", "--N", "12", "--signs", "+++---", "--key", "1,2,3;3,2,1"],
        ["--config", "@missing", "h", "--lambda", "0"],
    ]
    for i, argv in enumerate(bad):
        add(f"bad/{i:02d}/{' '.join(argv)}", argv)
    add("recover/bad-json", ["recover"], stdin="@not-json")
    add("recover/bad-narrow", ["recover"], stdin="cartan/22/mu=0;nu=0;t=2/0..2/")
    return lines


# the warm cache: these lines run once at set-up, before any timing
WARM_LINES = (
    ["cb", "--N", "4", "--signs", "+++---", "--key", "1,2,3;3,2,1"],
    ["cb", "--N", "4", "--signs", "++--", "--key", "1,2;2,1"],
    ["cb", "--N", "4", "--signs", "++--", "--key", "1,2;2,1", "--basis", "canonical"],
    ["cb", "--N", "3", "--signs", "++-", "--key", "1,2;2"],
    ["cb", "--N", "3", "--signs", "++-", "--key", "2,3;3", "--basis", "canonical"],
    ["cb", "--N", "5", "--signs", "++--", "--key", "1,2;2,1"],
)


def cli_call(argv, stdin_text):
    """One call of cli.main with captured standard streams."""
    from wblocks import cli

    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def cli_item(code, out, err) -> str:
    """The output item of one CLI call: exit code and stdout digest, or a
    marker that can never match the golden value if a traceback leaked."""
    if "Traceback" in err:
        return f"traceback:{code}"
    return f"{code}:{sha(out)}"


def _cli_units(workdir: str, stdin_of: dict):
    import wblocks.cli  # noqa: F401 - the session's modules load before any fork

    warm = os.path.join(workdir, "warm-cache")
    cold = os.path.join(workdir, "cold-cache")
    subst = {"@config": os.path.join(workdir, "config.json"),
             "@missing": os.path.join(workdir, "no-such-config.json")}
    units = []
    for uid, argv, cache, stdin in _cli_lines():
        argv = [subst.get(a, a) for a in argv]
        if cache is not None:
            argv = ["--cache-dir", warm if cache == "warm" else cold] + argv

        def call(order, argv=argv, stdin=stdin):
            text = "" if stdin is None else stdin_of.get(stdin, "not json")
            return cli_call(argv, text)

        units.append(Unit(uid, call, lambda r: [cli_item(*r)], cold if cache == "cold" else None))
    return units


def build(name: str, workdir: str, stdin_of=None) -> list:
    """Import the workload's modules and build its units."""
    if name == "cb-families":
        return _cb_units()
    if name == "closed-forms":
        return _closed_units()
    if name == "cli-session":
        return _cli_units(workdir, stdin_of or {})
    raise ValueError(f"unknown workload {name!r}")


def recover_sources() -> dict:
    """stdin name -> argv of the line whose stdout feeds a recover line."""
    by_id = {uid: argv for uid, argv, _, _ in _cli_lines()}
    return {stdin: by_id[stdin] for _, _, _, stdin in _cli_lines()
            if stdin is not None and stdin in by_id}
