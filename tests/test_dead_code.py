"""src/ holds only what the engine runs: every public module-level function
and class of bhl, and every private module-level function, is referenced
from src/ outside its own definition, and so is every public method of a
src class.  Code that only tests call belongs
under tests/ (see tests/oracles.py).  And src/ holds no `assert`: the
checks it runs are the same under `python -O`; and no `@` outside a
`__matmul__` method: the engine forms no Kronecker product.

Methods are matched by name only: a method counts as used when some
attribute reference in src/ or perfbench/*.py outside its own body, or a
string in perfbench/layers.py METHODS, carries its name.  So a name shared
with another attribute hides an unused method: a dead `AbelianGroup.order`
would pass because `CycloField.order` is read everywhere."""

import ast
from pathlib import Path

import bhl

SRC = Path(bhl.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# name -> why it stays in src/ without an engine caller
ALLOWED = {}


def _referenced(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_public_definition_is_used_in_src():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(stmt, ast.FunctionDef)
                    or isinstance(stmt, ast.ClassDef)
                    and not stmt.name.startswith("_")):
                defined[stmt.name] = path.name
                # a definition's own body does not count as a use of it
                used |= _referenced(stmt) - {stmt.name}
            else:
                used |= _referenced(stmt)
    unused = sorted("%s.%s" % (defined[name][:-3], name) for name in defined
                    if name not in used and name not in ALLOWED)
    assert not unused, "defined in src/ but never used there: %s" % unused
    assert all(name in defined and name not in used for name in ALLOWED), \
        "an allowlisted name is gone or now used: drop it from ALLOWED"


def _attributes(node):
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _layer_method_names():
    """The strings of perfbench/layers.py METHODS: the methods it wraps."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(getattr(t, "id", None) == "METHODS" for t in stmt.targets)):
            return {sub.value for sub in ast.walk(stmt.value)
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    raise AssertionError("perfbench/layers.py defines no METHODS table")


def test_every_public_method_is_used():
    defined, used = [], _layer_method_names()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.ClassDef):
                used |= _attributes(stmt)
                continue
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef):
                    if not item.name.startswith("_"):
                        defined.append((path.stem, stmt.name, item.name))
                    # a method's own body does not count as a use of it
                    used |= _attributes(item) - {item.name}
                else:
                    used |= _attributes(item)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _attributes(ast.parse(path.read_text(encoding="utf-8")))
    unused = ["%s.%s.%s" % d for d in defined if d[2] not in used]
    assert not unused, "methods that nothing in src/ or perfbench/ uses: %s" % unused


def test_src_has_no_assert():
    """Validation in src/ raises engine errors: an `assert` is stripped
    under `python -O`, so a check that rests on one would stop running."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/: %s" % found


def test_src_forms_no_kronecker_product():
    """Every tensor product of maps in src/ is whiskered: `@` appears only
    in the body of a `__matmul__` method, which defines it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "__matmul__" for sub in ast.walk(node)}
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult) and id(node) not in inside]
    assert not found, "Kronecker products in src/: %s" % found
