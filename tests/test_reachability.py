"""Every function under src/wblocks is entered from the program's own entry
point, unless ALLOWLIST says why it stays.

A fresh interpreter runs cli.main, and nothing else, over LINES under a
profile hook: every command, usage errors, quick verify plain and under each
of verify.FAULTS, `recover` fed the stdout of a `cartan --format json` line,
and one `cb` line cold and then warm from a cache directory, with the
in-memory family memo cleared in between.  Every function definition under
src/wblocks (private names, dunders, properties and nested definitions
included) must have been entered, or be on ALLOWLIST; an ALLOWLIST entry
that is entered or no longer defined fails too.  A code object is matched
to its definition by file, first line (that of its first decorator, if any)
and name, so a method is never covered by another class's method of the
same name.

An ALLOWLIST reason names what needs the function: a file under bench/, or
pytest, which prints a __repr__ when an assertion fails.  An oracle the
tests compare the program against is wired into verify.py instead.

Classes and module-level names have no code object to enter;
tests/test_surface.py checks statically that a public one is referenced in
the package.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "wblocks"

PYTEST_REPR = "pytest prints it when an assertion fails"

# qualified name -> why it stays although no program path enters it
ALLOWLIST = {
    "laurent.LaurentQ.__sub__": "bench/tracer.py wraps it for laurent.add",
    "multipoly.MultiPoly.__mul__": "bench/tracer.py wraps it for multipoly.mul",
    "qcanon.TensorVec.scaled": "bench/run.py inject_fault scales a faulted psi_star by q",
    "characters.CompChar.__repr__": PYTEST_REPR,
    "multipoly.MultiPoly.__repr__": PYTEST_REPR,
    "qcanon.TensorVec.__repr__": PYTEST_REPR,
}

B11 = "mu=0;nu=0;t=1"
B22 = "mu=0;nu=0;t=2"
CARTAN = ["cartan", "--m", "1", "--n", "1", "--block", B11, "--window", "-2..2"]
CACHED_CB = ["--cache-dir", "@cache", "cb", "--N", "3", "--signs", "++-", "--key", "1,2;2"]

# (argv, stdin): stdin is None, a text, or the argv of an earlier line whose
# stdout it is.  A line that repeats an earlier one runs after the in-memory
# family memo is cleared, so it reads what the first wrote to the cache.
# "@cache", "@config" and "@list" name files in a scratch directory.
LINES = [
    (["blocks", "--m", "1", "--n", "2", "--window", "0..2"], None),
    (["char", "--m", "2", "--n", "2", "--block", B22, "--lambda", "offset=1;parts=1,1"], None),
    (["char", "--m", "2", "--n", "2", "--block", B22, "--lambda", "offset=0;parts=2",
      "--kind", "simple"], None),
    (["verma-mult", "--m", "2", "--n", "2", "--block", B22, "--lambda", "offset=1;parts=1,1",
      "--kappa", "offset=0;parts=2"], None),
    (CARTAN, None),
    (["recover"], CARTAN),
    (["cartan", "--m", "2", "--n", "2", "--block", "mu.parts=1;nu.offset=1;nu.parts=1;t=1",
      "--window", "0..2", "--format", "csv"], None),
    (["graded-cartan", "--m", "2", "--n", "2", "--block", B22, "--window", "0..2"], None),
    (["graded-cartan", "--m", "1", "--n", "1", "--block", B11, "--window", "-1..1",
      "--format", "csv"], None),
    (["graded-cartan", "--m", "1", "--n", "1", "--block", B11, "--window", "-1..1",
      "--q-at-1"], None),
    (["h", "--lambda", "offset=0;parts=2,1"], None),
    (["end-dim", "--m", "2", "--n", "2", "--block", B22, "--i", "1", "--d-invariant"], None),
    (["equiv", "--m", "2", "--n", "3", "--block", "mu=0;nu.parts=1;t=2",
      "--closure-width", "4"], None),
    (["center", "--m", "2", "--n", "3", "--r", "3", "--s-minus", "1"], None),
    (CACHED_CB, None),
    (CACHED_CB, None),
    (["--no-cache", "cb", "--N", "3", "--signs", "++--", "--key", "1,2;2,1", "--basis",
      "canonical", "--pair-with", "2,1;1,2"], None),
    (["--config", "@config", "h", "--lambda", "0"], None),
    (["--no-c", "h", "--lambda", "0"], None),
    (["verify", "--profile", "quick"], None),
    (["verify", "--json"], None),
    # usage and computation errors: exit 1 or 2; the table words the first
    # three, argparse the next
    ([], None),
    (["frobnicate"], None),
    (["char", "--m", "2", "--n", "2", "--block", B22, "--lambda", "0", "--kind", "odd"], None),
    (["h", "--lambda", "0", "extra"], None),
    (["blocks", "--m=--", "--n", "1", "--window", "0..1"], None),
    (["h", "--lambda", "parts"], None),
    (["h", "--lambda", "offset=0;x"], None),
    (["blocks", "--m", "2", "--n", "2", "--window", "0:2"], None),
    (["blocks", "--m", "2", "--n", "2", "--window", "2..0"], None),
    (["blocks", "--m", "4", "--n", "4", "--window", "0..9"], None),
    (["char", "--m", "2", "--n", "2", "--block", "mu=0;nu=0", "--lambda", "0"], None),
    (["char", "--m", "2", "--n", "2", "--block", "mu=1;nu=0;t=2", "--lambda", "0"], None),
    (["char", "--m", "2", "--n", "2", "--block", "mu=0;nu=0;t=3", "--lambda", "0"], None),
    (["cartan", "--m", "2", "--n", "2", "--block", B22, "--window", "-40..40"], None),
    (["center", "--m", "3", "--n", "2", "--r", "1"], None),
    (["cb", "--N", "3", "--signs", "+-", "--key", "1;2;3"], None),
    (["cb", "--N", "3", "--signs", "++", "--key", "1;2"], None),
    (["cb", "--N", "3", "--signs", "+-", "--key", "1;4"], None),
    (["cb", "--N", "12", "--signs", "+++---", "--key", "1,2,3;3,2,1"], None),
    (["--config", "@list", "h", "--lambda", "0"], None),
    (["recover"], "not json"),
]


def test_allowlist_holds_only_what_bench_or_pytest_needs():
    odd = {q: r for q, r in ALLOWLIST.items() if not (r.startswith("bench/") or r == PYTEST_REPR)}
    assert not odd, f"allowlisted for neither bench/ nor pytest: {odd}"


def trace(run) -> set:
    """The code objects entered while run() runs, under a profile hook."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def entered_keys(codes, root) -> set:
    """(path, first line, name) of the code objects defined under root."""
    root = os.path.realpath(root) + os.sep
    out = set()
    for code in codes:
        path = os.path.realpath(code.co_filename)
        if path.startswith(root):
            out.add((path, code.co_firstlineno, code.co_name))
    return out


def definitions(root) -> dict:
    """(path, first line, name) -> qualified name ("module.Class.method",
    "module.outer.<locals>.inner") of every function definition in the .py
    files of root.  The first line is that of the first decorator, as in a
    code object's co_firstlineno."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(path, first, child.name)] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}.<locals>")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(pathlib.Path(root).glob("*.py")):
        walk(ast.parse(path.read_text()), os.path.realpath(path), path.stem)
    return out


def unreached(defs: dict, entered: set, allowlist: dict):
    """(definitions never entered and not allowlisted, as "file:line name";
    allowlist entries that are entered or not defined)."""
    hit = {defs[k] for k in entered if k in defs}
    missed = [f"{os.path.basename(path)}:{line} {qual}" for (path, line, _), qual
              in sorted(defs.items()) if qual not in hit and qual not in allowlist]
    stale = sorted(q for q in allowlist if q in hit or q not in defs.values())
    return missed, stale


def _drive(workdir: str):
    """Run every line of LINES, then quick verify under each of verify.FAULTS,
    through cli.main, with the standard streams captured."""
    from wblocks import cli, qcanon, verify

    subst = {"@config": os.path.join(workdir, "config.json"),
             "@list": os.path.join(workdir, "list.json"),
             "@cache": os.path.join(workdir, "cache")}
    with open(subst["@config"], "w") as fh:
        json.dump({"no_cache": True, "lambda": "offset=0;parts=1"}, fh)
    with open(subst["@list"], "w") as fh:
        json.dump([1], fh)
    stdout_of = {}
    faults = [(["verify", "--inject-fault", name], None) for name in sorted(verify.FAULTS)]
    for argv, stdin in LINES + faults:
        if tuple(argv) in stdout_of:
            qcanon._family_memo.clear()
        out = io.StringIO()
        sys.stdin = io.StringIO(stdout_of[tuple(stdin)] if isinstance(stdin, list) else stdin or "")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main([subst.get(a, a) for a in argv])
        stdout_of[tuple(argv)] = out.getvalue()


def test_every_function_is_entered_or_allowlisted(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("WBLOCKS_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(k) for k in json.loads(proc.stdout)}
    missed, stale = unreached(definitions(PACKAGE), entered, ALLOWLIST)
    assert missed == [], "functions no program path enters: " + ", ".join(missed)
    assert stale == [], "allowlisted but entered or not defined: " + ", ".join(stale)
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWLIST.values())


SYNTHETIC = '''
import functools


def deco(fn):
    @functools.wraps(fn)
    def inner(*args):
        return fn(*args)
    return inner


@deco
def decorated(x):
    return x + 1


def never():
    return 0


class K:
    @property
    def p(self):
        return 1

    def m(self):
        return 2


class L:
    def m(self):
        return 3
'''


def _load_synthetic(tmp_path):
    path = tmp_path / "synth.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synth", path)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        module.decorated(1)
        module.K().p
        module.L().m()

    return trace(run)


def test_checker_reports_what_is_never_entered(tmp_path):
    entered = entered_keys(_load_synthetic(tmp_path), tmp_path)
    missed, stale = unreached(definitions(tmp_path), entered, {})
    # K.m shares its name with the entered L.m, and is still reported
    assert [m.split()[1] for m in missed] == ["synth.never", "synth.K.m"]
    assert stale == []


def test_checker_counts_a_decorated_function_by_its_decorator_line(tmp_path):
    entered = entered_keys(_load_synthetic(tmp_path), tmp_path)
    defs = definitions(tmp_path)
    line = SYNTHETIC.splitlines().index("@deco") + 1
    assert defs[(os.path.realpath(tmp_path / "synth.py"), line, "decorated")] == "synth.decorated"
    hit = {defs[k] for k in entered if k in defs}
    assert {"synth.decorated", "synth.deco", "synth.deco.<locals>.inner", "synth.K.p"} <= hit


def test_checker_reports_stale_allowlist_entries(tmp_path):
    entered = entered_keys(_load_synthetic(tmp_path), tmp_path)
    allow = {"synth.never": "kept", "synth.K.m": "kept", "synth.decorated": "entered",
             "synth.gone": "no longer defined"}
    missed, stale = unreached(definitions(tmp_path), entered, allow)
    assert missed == []
    assert stale == ["synth.decorated", "synth.gone"]


if __name__ == "__main__":
    codes = trace(lambda: _drive(sys.argv[1]))
    print(json.dumps(sorted(entered_keys(codes, PACKAGE))))
