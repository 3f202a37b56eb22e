"""Batch command-line driver.

Exit codes: 0 ok, 1 usage error, 2 computation error, 3 verification failure.
All output is deterministic (sorted serialization); the optional result cache
changes timing only, never bytes.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import blockan, cache, center, characters, combinat, qcanon
from .combinat import BlockKey, Composition, Window
from .jsonfmt import compact, spaced


class UsageError(Exception):
    pass


class ResourceError(Exception):
    """Requested scale is infeasible for exact enumeration."""


# Largest weight space `cb` computes a basis family of.  N=6 +++--- at weight
# 0 (996 vectors) fits, at 0.4 s per family on a 2-vCPU VM; time grows about
# as the square of the size (N=8, 2528 vectors: 1.7-2.4 s), so N=10 +++---
# at weight 0 (5140 vectors) would take about 27 times as long as N=6.
CB_MAX_VECTORS = 1000

# Largest Cartan matrix, in cells, that `cartan` and `graded-cartan` compute.
# m=n=2, mu=0;nu=0;t=2 over -15..15 (496 labels, 246,016 cells) takes 0.46 s
# ungraded and 0.95 s graded on a 2-vCPU VM; m=n=t=4 over -4..4 (495 labels)
# takes 0.79 s and 2.1 s.  The cost of a cell grows with t (t=6: about 5 us
# ungraded, 27 us graded), and the printed matrix grows with the cells.
CARTAN_MAX_CELLS = 250_000


# ---------------------------------------------------------------------------
# flag-string parsing


def parse_composition(text: str) -> Composition:
    """Composition syntax: "0" for the zero composition, else
    "offset=O;parts=a,b,c"."""
    text = text.strip()
    if text == "0":
        return Composition()
    fields = dict(_kv(item) for item in text.split(";") if item)
    if "parts" not in fields:
        raise UsageError(f"bad composition {text!r}: need parts=...")
    return Composition(_ints(fields["parts"]), int(fields.get("offset", "0")))


def _ints(text: str) -> list[int]:
    """Comma-separated integers, none for the empty text; an empty entry
    ('2,,1', '1,') is a usage error."""
    items = text.split(",") if text else []
    if "" in items:
        raise UsageError(f"bad list {text!r}: empty entry")
    return [int(x) for x in items]


def _kv(item: str):
    if "=" not in item:
        raise UsageError(f"bad field {item!r}: expected key=value")
    k, v = item.split("=", 1)
    return k.strip(), v.strip()


def comp_str(c: Composition) -> str:
    if c.is_zero():
        return "0"
    return f"offset={c.offset};parts={','.join(str(p) for p in c.parts)}"


def parse_block(text: str, m: int, n: int) -> BlockKey:
    """Block syntax: "mu=0;nu=0;t=1", with nonzero cores spelled as
    mu.offset=O;mu.parts=a,b (same for nu)."""
    fields = dict(_kv(item) for item in text.split(";") if item)
    comps = {}
    for name in ("mu", "nu"):
        if fields.get(name) == "0":
            comps[name] = Composition()
        elif f"{name}.parts" in fields:
            comps[name] = Composition(_ints(fields[f"{name}.parts"]),
                                      int(fields.get(f"{name}.offset", "0")))
        elif name in fields:
            raise UsageError(f"bad {name} in block: use {name}=0 or {name}.parts=...")
        else:
            comps[name] = Composition()
    if "t" not in fields:
        raise UsageError("block needs t=...")
    try:
        return BlockKey(comps["mu"], comps["nu"], int(fields["t"]), m, n)
    except ValueError as exc:
        raise UsageError(f"invalid block: {exc}") from exc


def parse_window(text: str) -> Window:
    if ".." not in text:
        raise UsageError(f"bad window {text!r}: expected lo..hi")
    lo, hi = text.split("..", 1)
    try:
        return Window(int(lo), int(hi))
    except ValueError as exc:
        raise UsageError(f"bad window {text!r}: {exc}") from exc


def parse_key(text: str):
    rows = text.split(";")
    if len(rows) != 2:
        raise UsageError(f"bad key {text!r}: expected top;bottom")
    return tuple(_ints(rows[0])), tuple(_ints(rows[1]))


def _emit(obj):
    print(compact(obj))


# ---------------------------------------------------------------------------
# subcommands


def cmd_blocks(args) -> int:
    w = parse_window(args.window)
    width = w.hi - w.lo + 1
    # bounds the output: each key is realized by an anti-dominant tableau with
    # entries in w, and there are fewer than width ** (m + n) of those; the
    # message names the tableau enumeration this guard bounded before the
    # keys were enumerated directly
    if width ** (args.m + args.n) > 10**7:
        raise ResourceError("window too wide for exhaustive tableau enumeration")
    keys = combinat.blocks_in_window(args.m, args.n, w)
    out = sorted((k.to_json() for k in keys), key=lambda d: (d["t"], spaced(d)))
    _emit({"blocks": out, "count": len(out)})
    return 0


def cmd_char(args) -> int:
    xi = parse_block(args.block, args.m, args.n)
    lam = parse_composition(args.lam)
    fn = characters.ch_verma_w if args.kind == "verma" else characters.ch_simple_w
    ch = fn(xi, lam)
    _emit({"kind": args.kind, "terms": ch.to_json(), "total": ch.total()})
    return 0


def cmd_verma_mult(args) -> int:
    xi = parse_block(args.block, args.m, args.n)
    lam = parse_composition(args.lam)
    kap = parse_composition(args.kappa)
    _emit({"multiplicity": blockan.verma_mult(xi, lam, kap)})
    return 0


def _matrix_labels(xi: BlockKey, w: Window):
    return combinat.compositions_in_window(xi.t, w.lo, w.hi)


def cmd_cartan(args, graded: bool) -> int:
    xi = parse_block(args.block, args.m, args.n)
    w = parse_window(args.window)
    lams = _matrix_labels(xi, w)
    if len(lams) ** 2 > CARTAN_MAX_CELLS:
        raise ResourceError(
            f"window yields {len(lams)} labels ({len(lams) ** 2} cells); narrow it"
        )
    matrix = blockan.cartan_matrix(xi, lams, graded=graded)
    if graded and args.q_at_1:
        matrix = [[v.eval1() for v in row] for row in matrix]
        graded = False
    labels = [comp_str(c) for c in lams]
    if args.format == "csv":
        rows = ["," + ",".join(f'"{s}"' for s in labels)]
        for label, row in zip(labels, matrix):
            cells = []
            for v in row:
                if graded:
                    cells.append('"' + spaced(v.to_json()["coeffs"]).replace('"', '""') + '"')
                else:
                    cells.append(str(v))
            rows.append(f'"{label}",' + ",".join(cells))
        print("\n".join(rows))
    else:
        body = [[(v.to_json() if graded else v) for v in row] for row in matrix]
        _emit({"block": xi.to_json(), "labels": labels, "matrix": body})
    return 0


def cmd_h(args) -> int:
    lam = parse_composition(args.lam)
    _emit({"h": blockan.h_count(lam)})
    return 0


def cmd_end_dim(args) -> int:
    xi = parse_block(args.block, args.m, args.n)
    out = {"end_dim": blockan.end_dim(xi, args.i)}
    if args.d_invariant:
        d = blockan.d_invariant(xi, args.i)
        out["d_invariant"] = f"{d.numerator}/{d.denominator}"
    _emit(out)
    return 0


def cmd_recover(args) -> int:
    data = json.load(sys.stdin)
    matrix = data["matrix"]
    matrix = [[_entry_to_int(v) for v in row] for row in matrix]
    oracle = blockan.MatrixBlockData(data["labels"], matrix)
    t, gamma = blockan.recover_invariants(oracle)
    _emit({"t": t, "gamma": gamma.to_json()})
    return 0


def _entry_to_int(v):
    if isinstance(v, dict):  # graded entry: evaluate at q = 1
        return sum(int(c) for c in v.get("coeffs", v).values())
    return int(v)


def cmd_equiv(args) -> int:
    xi = parse_block(args.block, args.m, args.n)
    t, m, n, transpose = combinat.invariant_signature(xi)
    moves = sorted((k.to_json() for k in combinat.morita_moves(xi)), key=spaced)
    closure = sorted((k.to_json() for k in combinat.morita_closure(xi, args.closure_width)),
                     key=spaced)
    _emit(
        {
            "signature": {"t": t, "m": m, "n": n, "gamma_transpose": list(transpose)},
            "normalized": combinat.normalize_key(xi).to_json(),
            "moves": moves,
            "closure": closure,
        }
    )
    return 0


def cmd_center(args) -> int:
    # in_J pairs x_i with y_{i + s_minus}, so the shape must be a pyramid
    try:
        combinat.Pyramid(args.m, args.n, args.s_minus)
    except ValueError as exc:
        raise UsageError(f"invalid pyramid shape: {exc}") from exc
    es = center.e_super(args.r, args.m, args.n)
    out = {
        "r": args.r,
        "e_super": es.to_json(),
        "in_I": center.in_I(es, args.m, args.n),
        "in_J": center.in_J(es, args.m, args.n, args.s_minus),
        "series_matches": center.hc_series_coeff(args.r, args.m, args.n) == es,
    }
    _emit(out)
    return 0


def cmd_cb(args) -> int:
    if args.N < 1:
        raise UsageError(f"--N {args.N} is below 1")
    wanted = []
    for what, text in (("key", args.key), ("--pair-with", args.pair_with)):
        if text is None:
            continue
        top, bottom = parse_key(text)
        rows = "+" * len(top) + "-" * len(bottom)
        if args.signs != rows:
            raise UsageError(f"signs {args.signs!r} do not match {what} rows ({rows!r})")
        for x in top + bottom:
            if not 1 <= x <= args.N:
                raise UsageError(f"key entry {x} outside 1..{args.N}")
        weight = combinat.weight_of(top, bottom)
        if qcanon._weight_space(args.N, rows, weight, CB_MAX_VECTORS) is None:
            raise ResourceError(
                f"weight space has more than {CB_MAX_VECTORS} vectors; lower N or the key length"
            )
        wanted.append((top, bottom))
    fn = qcanon.dual_canonical if args.basis == "dual" else qcanon.canonical
    vecs = [fn(args.N, top, bottom) for top, bottom in wanted]
    _emit({"pairing": qcanon.pairing(*vecs).to_json()} if len(vecs) == 2 else vecs[0].to_json())
    return 0


def cmd_verify(args) -> int:
    from . import verify  # only verify lines load the suite

    results = verify.run_suite(args.profile, fault=args.inject_fault)
    failed = [r for r in results if not r["ok"]]
    if args.json:
        _emit({"profile": args.profile, "results": results, "ok": not failed})
    else:
        for r in results:
            status = "PASS" if r["ok"] else "FAIL"
            print(f"{status} {r['name']} ({r['seconds']}s): {r['detail']}")
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed [{args.profile}]")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# parser assembly: one table, one builder

# flag spec: (flag, add_argument keyword arguments)
GLOBAL_FLAGS = (
    ("--cache-dir", {"help": "result cache directory (overrides WBLOCKS_CACHE)"}),
    ("--no-cache", {"action": "store_true", "help": "disable the result cache"}),
    ("--config", {"help": "JSON file with default flag values"}),
)
_M = ("--m", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_BLOCK = ("--block", {"required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "required": True})
_CARTAN = (
    _M, _N, _BLOCK,
    ("--window", {"required": True, "help": "label support window lo..hi"}),
    ("--format", {"choices": ["csv", "json"], "default": "json"}),
    ("--q-at-1", {"action": "store_true", "help": "collapse graded entries at q=1"}),
)

# name -> (handler, help, flag specs), in the order --help lists them
COMMANDS = {
    "blocks": (cmd_blocks, "enumerate block keys realized in an entry window",
               (_M, _N, ("--window", {"required": True, "help": "entry window lo..hi"}))),
    "char": (cmd_char, "Verma or simple character of a block member",
             (_M, _N, _BLOCK, _LAMBDA,
              ("--kind", {"choices": ["verma", "simple"], "default": "verma"}))),
    "verma-mult": (cmd_verma_mult, "composition multiplicity of a simple in a Verma",
                   (_M, _N, _BLOCK, _LAMBDA, ("--kappa", {"required": True}))),
    "cartan": (lambda args: cmd_cartan(args, False), "Cartan matrix over a label window", _CARTAN),
    "graded-cartan": (lambda args: cmd_cartan(args, True),
                      "graded Cartan matrix over a label window", _CARTAN),
    "h": (cmd_h, "lattice count h(lambda)", (_LAMBDA,)),
    "end-dim": (cmd_end_dim, "endomorphism dimension at t*eps_i",
                (_M, _N, _BLOCK, ("--i", {"type": int, "required": True}),
                 ("--d-invariant", {"action": "store_true"}))),
    "recover": (cmd_recover,
                "recover (t, gamma) from Cartan data on stdin (JSON with labels and matrix)", ()),
    "equiv": (cmd_equiv, "equivalence moves, closure and invariant signature",
              (_M, _N, _BLOCK, ("--closure-width", {"type": int, "default": 6}))),
    "center": (cmd_center, "supersymmetric generator and membership checks",
               (_M, _N, ("--s-minus", {"type": int, "default": 0}),
                ("--r", {"type": int, "required": True}))),
    "cb": (cmd_cb, "canonical / dual canonical vectors and pairings",
           (("--N", {"type": int, "required": True}),
            ("--signs", {"required": True, "help": "sign sequence, e.g. ++-"}),
            ("--key", {"required": True, "help": "top;bottom entries, e.g. 1,2;2"}),
            ("--basis", {"choices": ["dual", "canonical"], "default": "dual"}),
            ("--pair-with", {"help": "second key; output the basis pairing instead"}))),
    "verify": (cmd_verify, "run the cross-oracle verification suite",
               (("--profile", {"choices": ["quick", "full"], "default": "quick"}),
                ("--json", {"action": "store_true", "help": "machine-readable report"}),
                ("--inject-fault", {"choices": ["cartan-oracle", "dual-root", "e-super",
                                                "graded-cartan", "h-count", "pairing-formula",
                                                "psi-root", "simple-char"],
                                    "help": "perturb one formula (harness self-test)"}))),
}


def _dest(flag, kwargs) -> str:
    return kwargs.get("dest", flag[2:].replace("-", "_"))


def build_parser():
    """The parser of every command.  argparse is imported here, so a line
    that _read_table reads whole, valid or not, never loads it; help,
    abbreviations and the lines the table leaves are read here."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

        def parse_args(self, args=None, namespace=None):
            # argparse drops the '--' of '--flag=--' and stores [] unchecked
            ns = super().parse_args(args, namespace)
            for flag, kwargs in (*GLOBAL_FLAGS, *COMMANDS[ns.command][2]):
                if getattr(ns, _dest(flag, kwargs)) == []:
                    raise UsageError(f"argument {flag}: expected one argument")
            return ns

    parser = _Parser(prog="wblocks", description=__doc__)
    for flag, kwargs in GLOBAL_FLAGS:
        parser.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def _merge_window_flags(argv):
    """Fold '--window -2..2' into '--window=-2..2' so argparse does not
    mistake the negative bound for an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _option(tok, names):
    """The option among names that argparse reads tok as, alone or with
    '=value': its exact spelling or a prefix of no other option; else None."""
    name = tok.split("=", 1)[0]
    if name in names:
        return name
    hits = [n for n in names if n.startswith(name)] if name.startswith("--") else []
    return hits[0] if len(hits) == 1 else None


def _is_value(tok, names) -> bool:
    """Whether argparse takes tok, after a flag that needs a value, as that
    value: tok does not start with '-', or is '-' itself, or else names no
    option (of names, or '-h' with text glued on) and is a negative number
    such as -1 or -.5, or holds a space."""
    if not tok.startswith("-") or tok == "-":
        return True
    if tok == "--" or tok.startswith("-h") or _option(tok, names):
        return False
    whole, dot, frac = tok[1:].partition(".")
    number = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return number or " " in tok


class _Front(NamedTuple):
    """The global flags before the command, read the way argparse reads
    them (any spelling it accepts, '=value' or a value in the next token)."""

    config: str | None  # the --config path, if given with one
    given: dict  # each global flag given (and -h/--help) -> its value or None
    command: str | None  # the command after them, if the next token names one
    rest: list  # the tokens after the command (after the flags, if none)
    exact: bool  # every flag spelled in full, no value that looks like a flag


def _scan_front(argv) -> _Front:
    """One pass over the global flags before the command.  When `exact` is
    false (abbreviations, help, a value like '-d' or '--'), only the parser
    reads the line as argparse would; when it is true, main tries
    _read_table first."""
    takes_value = {flag for flag, kwargs in GLOBAL_FLAGS if "action" not in kwargs}
    names = ["-h", "--help", *(flag for flag, _ in GLOBAL_FLAGS)]
    given, exact, i = {}, True, 0
    while i < len(argv) and (flag := _option(argv[i], names)):
        tok = argv[i]
        if "=" in tok:
            given[flag] = tok.split("=", 1)[1]
            exact = exact and flag in takes_value and tok.startswith(flag + "=") \
                and given[flag] != "--"
        elif flag in takes_value:
            i += 1
            if i == len(argv) or not _is_value(argv[i], names):
                given[flag], exact = None, False
                break  # argparse stops here: expected one argument
            given[flag] = argv[i]
            exact = exact and tok == flag and not argv[i].startswith("-")
        else:
            given[flag] = None
            exact = exact and tok == flag and flag not in ("-h", "--help")
        i += 1
    command = argv[i] if i < len(argv) and argv[i] in COMMANDS else None
    config = given.get("--config")  # '--' is no value to argparse, so names no file
    return _Front(None if config == "--" else config, given, command,
                  argv[i + (command is not None):], exact)


def _choice_error(name, value, choices) -> UsageError:
    return UsageError(f"argument {name}: invalid choice: {value!r} "
                      f"(choose from {', '.join(map(repr, choices))})")


def _read_table(front: _Front):
    """The namespace argparse makes of an exact line, read straight from
    COMMANDS, or the UsageError argparse raises for it, worded as argparse
    words it; None (argparse reads the line) unless each token after the
    command is a full flag of it, as '--flag value' (a value not starting
    with '-'), '--flag=value' (a value other than '--') or a bare
    store_true flag.  As in argparse, the first value that fails its type
    or choices is the error, else the required flags missing, in spec
    order.  With no command, an empty rest is a missing command and an
    unknown first token an invalid choice, unless a token starts with
    '-'."""
    if not front.exact:
        return None
    if front.command is None:
        if not front.rest:
            raise UsageError("the following arguments are required: command")
        if any(tok.startswith("-") for tok in front.rest):
            return None
        raise _choice_error("command", front.rest[0], COMMANDS)
    fn, _, specs = COMMANDS[front.command]
    kwargs_of = dict(specs)
    given, error, rest, i = {}, None, front.rest, 0
    while i < len(rest):
        flag, eq, value = rest[i].partition("=")
        kwargs = kwargs_of.get(flag)
        if kwargs is None:
            return None
        if "action" in kwargs:  # store_true
            if eq:
                return None
            value = True
        elif not eq:
            i += 1
            if i == len(rest) or rest[i].startswith("-"):
                return None
            value = rest[i]
        elif value == "--":
            return None
        if "type" in kwargs and error is None:
            try:
                value = kwargs["type"](value)
            except ValueError:
                error = UsageError(f"argument {flag}: invalid {kwargs['type'].__name__} "
                                   f"value: {value!r}")
        if "choices" in kwargs and error is None and value not in kwargs["choices"]:
            error = _choice_error(flag, value, kwargs["choices"])
        given[flag] = value
        i += 1
    missing = [flag for flag, kwargs in specs if kwargs.get("required") and flag not in given]
    if error or missing:
        raise error or UsageError(f"the following arguments are required: {', '.join(missing)}")
    args = SimpleNamespace(cache_dir=front.given.get("--cache-dir"),
                           no_cache="--no-cache" in front.given, config=front.config,
                           command=front.command, fn=fn)
    for flag, kwargs in specs:
        default = kwargs.get("default", False if "action" in kwargs else None)
        setattr(args, _dest(flag, kwargs), given.get(flag, default))
    return args


def _apply_config(argv, front: _Front):
    """Add flags from the optional JSON config file for any option not
    given explicitly; explicit flags always win.  Global keys go before the
    command, a command's keys after it, and only when the command has that
    flag (any command's, if none was recognised).  A flag counts in every
    spelling argparse accepts, abbreviations included."""
    with open(front.config) as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise UsageError(f"config {front.config!r} is not a JSON object")
    global_flags = {flag for flag, _ in GLOBAL_FLAGS}
    known = global_flags.union(*({f for f, _ in flags} for _, _, flags in COMMANDS.values()))
    flags = {f for name in (COMMANDS if front.command is None else (front.command,))
             for f, _ in COMMANDS[name][2]}
    own = global_flags | flags
    explicit = set(front.given).union(_option(tok, ["-h", "--help", *flags]) for tok in front.rest)
    out_front, back = [], []
    for key in sorted(defaults):
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise UsageError(f"config key {key!r} names no flag")
        value = defaults[key]
        if flag in own and value is not False and flag not in explicit:
            out = out_front if flag in global_flags else back
            out.append(flag if value is True else f"{flag}={value}")
    return out_front + argv + back


def main(argv=None) -> int:
    """Run one command line and return its exit code.  The line, with its
    config flags added, is read by _read_table, else by the parser.  The
    table words the usage errors of the lines it reads whole; the property
    test in tests/test_cli.py holds that wording to argparse's on the
    running Python (3.11.7 when written).  Only the parser imports argparse,
    so it words all help and every other usage error."""
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_window_flags(list(argv))
    front = _scan_front(argv)
    try:
        if front.config is not None:
            argv = _apply_config(argv, front)
            front = _scan_front(argv)
        args = _read_table(front) or build_parser().parse_args(argv)
        if args.no_cache:
            cache.configure(None)
        elif args.cache_dir:
            cache.configure(args.cache_dir)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 - map computation failures to exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
