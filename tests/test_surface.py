"""Every public definition in src/wblocks is used by the program itself.

A public top-level function, class or assigned name, and a public method of a
public class, must be referenced somewhere in the package outside every
definition of the same name: a function, class or module-level name by name
or import, a method as an attribute.
So BlockKey.to_json calling self.mu.to_json() is no use of Composition.to_json.
BENCH_ONLY names what only a file under bench/ uses, with that file; an
entry the package uses, or that is no longer defined, fails.
Properties are data, not methods, and are left out.  Tests may call a
definition too, but one that only tests reach is dead weight: an oracle the
tests compare the program against belongs in verify.py.

Every module-level import is used in its module, by name or through
__all__.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wblocks"

# file:qualified name -> the bench/ use that keeps it; tests/test_reachability.py's
# ALLOWLIST gives the same reason
BENCH_ONLY = {
    "qcanon.py:TensorVec.scaled": "bench/run.py inject_fault scales a faulted psi_star by q",
}

def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _definitions(tree):
    """(name, qualified name, node, is_method) of the top-level functions,
    classes and assigned names and of the methods of the public top-level
    classes, properties left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_property(item):
                    yield item.name, f"{node.name}.{item.name}", item, True


def _references(tree):
    """(name, line, is_attribute) of every name, attribute and import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno, False


def test_every_public_definition_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = [(file, *d) for file, tree in trees.items() for d in _definitions(tree)]
    spans: dict = {}  # name -> (file, first line, last line) of each definition
    for file, name, _, node, _ in defs:
        spans.setdefault(name, []).append((file, node.lineno, node.end_lineno))
    refs = [(file, *r) for file, tree in trees.items() for r in _references(tree)
            if not any(file == f and lo <= r[1] <= hi for f, lo, hi in spans.get(r[0], ()))]
    unused, stale = [], set(BENCH_ONLY)
    for file, name, qual, node, method in defs:
        if name.startswith("_"):
            continue
        used = any(r == name and (attr or not method) for _, r, _, attr in refs)
        key = f"{file}:{qual}"
        if key in BENCH_ONLY:
            if not used:
                stale.discard(key)
        elif not used:
            unused.append(f"{file}:{node.lineno} {name}")
    assert not unused, "public definitions no program code uses: " + ", ".join(unused)
    assert not stale, "BENCH_ONLY entries used by the package or not defined: " + ", ".join(stale)


def _imported_names(tree):
    """(bound name, line) of every module-level import but __future__'s."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_module_level_import_is_used_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
                   if name not in used]
    assert not unused, "imports their module never uses: " + ", ".join(unused)
