"""Every public definition in src/wblocks is used by the program itself.

A public top-level function, class or assigned name, and a public method of a
public class, must be referenced somewhere in the package outside every
definition of the same name: a function, class or module-level name by name
or import, a method as an attribute.
So BlockKey.to_json calling self.mu.to_json() is no use of Composition.to_json.
Properties are data, not methods, and are left out.  Tests may call a definition too, but one that only tests reach is
dead weight, unless it is one of the oracles below.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wblocks"

# Independent routes the tests compare the program against.  They stay until
# verify.py checks the same properties with them.
ORACLES = {
    "act_gen",  # E, F, K on tensor space: psi intertwines the generators
    "r_apply",  # one R-matrix step: inverse and braid relations; the bench traces it
    "s_mul",  # product of the x/y algebra: associativity
    "psi_star_S",  # bar involution of the algebra, built without tensor space
    "expand_u_in_d",  # monomials on the dual canonical basis, against a solve
    "dominance_leq",  # dominance order: the head of a simple character is least
}


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _definitions(tree):
    """(name, node, is_method) of the top-level functions, classes and
    assigned names and of the methods of the public top-level classes,
    properties left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_property(item):
                    yield item.name, item, True


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
    for file, name, node, _ in defs:
        spans.setdefault(name, []).append((file, node.lineno, node.end_lineno))
    refs = [(file, *r) for file, tree in trees.items() for r in _references(tree)
            if not any(file == f and lo <= r[1] <= hi for f, lo, hi in spans.get(r[0], ()))]
    unused = []
    for file, name, node, method in defs:
        if name.startswith("_") or name in ORACLES:
            continue
        if not any(r == name and (attr or not method) for _, r, _, attr in refs):
            unused.append(f"{file}:{node.lineno} {name}")
    assert not unused, "public definitions no program code uses: " + ", ".join(unused)


def test_oracles_are_still_defined():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    names = {name for tree in trees for name, _, _ in _definitions(tree)}
    assert ORACLES <= names
