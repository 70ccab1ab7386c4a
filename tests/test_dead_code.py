"""src/ holds only what the engine runs: every public module-level function
and class of bhl is referenced from src/ outside its own definition.  Code
that only tests call belongs under tests/ (see tests/oracles.py)."""

import ast
from pathlib import Path

import bhl

SRC = Path(bhl.__file__).resolve().parent

# name -> why it stays in src/ without an engine caller
ALLOWED = {
    "psi_bar": "the certified coend builds psi_bar of each coaction "
               "entrywise; psi_bar is the test oracle for that candidate",
}


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
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
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
