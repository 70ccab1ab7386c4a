"""Catalog entries: axiom suites, frozen values, determinism, dispatch."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

import bhl
import bhl.cli
from bhl.braidedhopf import CheckReport, check_hopf, solve_antipode
from bhl.catalog import (BUILTIN_NAMES, build, exterior_line, gaussian_binomial,
                         group_algebra, nichols_cyclic, sweedler, taft)
from bhl.cli import NotHopfError, ensure_hopf
from bhl.exactalg import CycloField
from bhl.gradedcat import AbelianGroup, identity_mor


def test_all_builtins_pass_axiom_suite():
    for name in BUILTIN_NAMES:
        H = build(name)
        assert check_hopf(H).passed, name


def test_builtin_dimensions():
    dims = {"group_algebra:2": 2, "group_algebra:3": 3, "sweedler": 4,
            "exterior_line": 2, "nichols_cyclic:3": 3, "taft:2": 4}
    for name, d in dims.items():
        assert build(name).carrier.dim == d


def test_builtins_deterministic():
    for name in BUILTIN_NAMES:
        a, b = build(name), build(name)
        assert a == b
        assert [l for l, _ in a.carrier.basis] == [l for l, _ in b.carrier.basis]


def test_group_algebra_structure():
    H = group_algebra(AbelianGroup([2, 2]))
    assert H.carrier.dim == 4
    assert check_hopf(H).passed
    # grouplikes: Delta has a single 1 per column on the diagonal pairs
    n = 4
    for j in range(n):
        col = [H.delta.matrix.entries[i][j] for i in range(n * n)]
        nz = [i for i, v in enumerate(col) if v]
        assert nz == [j * n + j]


def test_group_algebra_is_trivially_graded():
    H = group_algebra(3)
    assert all(d == () for _, d in H.carrier.basis)
    assert H.carrier.ctx.group == AbelianGroup([])


def test_gaussian_binomial_against_symbolic_oracle():
    q = sympy.Symbol("q")
    for p in (2, 3):
        F = CycloField(1) if p == 2 else CycloField(p)
        zeta = F.root_of_unity(p, 1)
        for n in range(0, 2 * p):
            for k in range(0, n + 1):
                expr = sympy.cancel(
                    sympy.prod([(1 - q ** (n - i)) for i in range(k)])
                    / sympy.prod([(1 - q ** (i + 1)) for i in range(k)]))
                poly = sympy.Poly(sympy.expand(expr), q)
                val = F.zero
                zp = F.one
                coeffs = poly.all_coeffs()[::-1]
                for c in coeffs:
                    val = val + zp * int(c)
                    zp = zp * zeta
                assert gaussian_binomial(F, n, k, zeta) == val, (p, n, k)


def test_gaussian_binomial_vanishing_at_root():
    # [p choose i]_q = 0 at a primitive p-th root of unity for 0 < i < p
    F = CycloField(3)
    z = F.zeta()
    assert gaussian_binomial(F, 3, 1, z) == F.zero
    assert gaussian_binomial(F, 3, 2, z) == F.zero
    assert gaussian_binomial(F, 2, 1, z) == F.one + z


def test_nichols_cyclic_3_frozen_values():
    H = nichols_cyclic(3)
    F = H.carrier.ctx.field
    z = F.zeta()
    d = H.delta.matrix
    # Delta(x^2) = x^2 (x) 1 + (1 + zeta) x (x) x + 1 (x) x^2
    col = 2
    assert d.entries[2 * 3 + 0][col] == F.one
    assert d.entries[1 * 3 + 1][col] == F.one + z
    assert d.entries[0 * 3 + 2][col] == F.one
    assert sum(1 for i in range(9) if d.entries[i][col]) == 3
    # x^2 * x^2 = 0, x * x = x^2
    m = H.m.matrix
    assert all(not m.entries[r][2 * 3 + 2] for r in range(3))
    assert m.entries[2][1 * 3 + 1] == F.one
    # S(x) = -x, S(x^2) = zeta x^2 (re-derived via the convolution equation)
    S2 = solve_antipode(H)
    assert S2 == H.S
    assert H.S.matrix.entries[1][1] == -F.one
    assert H.S.matrix.entries[2][2] == z


def test_nichols_antipode_formula_is_the_convolution_inverse():
    # the catalog writes S(x^k) = (-1)^k q^(k(k-1)/2) x^k down; the solve
    # and the axiom suite must agree with it beyond the two builtins
    for p in range(2, 8):
        H = nichols_cyclic(p)
        assert solve_antipode(H) == H.S, p
        assert check_hopf(H).passed, p


def test_taft_matches_sweedler():
    t, s = taft(2), sweedler()
    for nm in ["m", "u", "delta", "eps", "S"]:
        assert getattr(t, nm).matrix == getattr(s, nm).matrix, nm


def test_build_dispatch_errors():
    with pytest.raises(ValueError):
        build("unknown_thing")
    with pytest.raises(ValueError):
        build("group_algebra")


def test_sweedler_antipode_order_four():
    H = sweedler()
    S2 = H.S * H.S
    S4 = S2 * S2
    assert S4 == identity_mor(H.carrier)
    assert S2 != identity_mor(H.carrier)


def _structure(H):
    """The structure maps of H on basis vectors, by label: products, unit,
    coproducts, counits and antipodes, each as {label(s): {label(s): int}}
    with the zero coefficients left out."""
    F = H.carrier.ctx.field
    names = [l for l, _ in H.carrier.basis]
    pairs = [(a, b) for a in names for b in names]

    def table(f, sources, targets):
        out = {}
        for j, src in enumerate(sources):
            col = {}
            for i, tgt in enumerate(targets):
                c = f.matrix.entries[i][j]
                if c:
                    assert c in (F.one, -F.one), (src, tgt, c)
                    col[tgt] = 1 if c == F.one else -1
            out[src] = col
        return out

    return {"m": table(H.m, pairs, names), "u": table(H.u, ["1"], names),
            "delta": table(H.delta, names, pairs),
            "eps": table(H.eps, names, ["1"]), "S": table(H.S, names, names)}


def test_sweedler_matches_its_textbook_presentation():
    """g g = 1, x x = 0, x g = v = -g x; Delta g = g (x) g,
    Delta x = x (x) 1 + g (x) x; eps(g) = 1, eps(x) = 0; S(g) = g,
    S(x) = -g x; everything else follows by multiplicativity."""
    s = _structure(sweedler())
    m = s["m"]
    assert m[("g", "g")] == {"1": 1} and m[("x", "x")] == {}
    assert m[("x", "g")] == {"v": 1} and m[("g", "x")] == {"v": -1}
    assert m[("g", "v")] == {"x": -1} and m[("v", "g")] == {"x": 1}
    assert m[("x", "v")] == m[("v", "x")] == m[("v", "v")] == {}
    for a in ("1", "g", "x", "v"):
        assert m[("1", a)] == m[(a, "1")] == {a: 1}
    assert s["u"] == {"1": {"1": 1}}
    assert s["delta"] == {"1": {("1", "1"): 1}, "g": {("g", "g"): 1},
                          "x": {("x", "1"): 1, ("g", "x"): 1},
                          "v": {("v", "g"): 1, ("1", "v"): 1}}
    assert s["eps"] == {"1": {"1": 1}, "g": {"1": 1}, "x": {}, "v": {}}
    assert s["S"] == {"1": {"1": 1}, "g": {"g": 1}, "x": {"v": 1},
                      "v": {"x": -1}}


def test_exterior_line_matches_its_textbook_presentation():
    """An odd x with x x = 0, Delta x = x (x) 1 + 1 (x) x, S(x) = -x."""
    H = exterior_line()
    ctx = H.carrier.ctx
    assert H.carrier.basis == (("1", (0,)), ("x", (1,)))
    assert ctx.chi.value(ctx.field, (1,), (1,)) == -ctx.field.one
    s = _structure(H)
    assert s["m"] == {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                      ("x", "1"): {"x": 1}, ("x", "x"): {}}
    assert s["u"] == {"1": {"1": 1}}
    assert s["delta"] == {"1": {("1", "1"): 1},
                          "x": {("x", "1"): 1, ("1", "x"): 1}}
    assert s["eps"] == {"1": {"1": 1}, "x": {}}
    assert s["S"] == {"1": {"1": 1}, "x": {"x": -1}}


def _failing_check_hopf(H):
    return CheckReport([("associativity", identity_mor(H.carrier))])


NOT_HOPF_LINE = ("error[NotHopf]: not a Hopf algebra: associativity fails; "
                 "associativity at row 0, col 0: 1")


def test_catalog_entry_failing_its_axioms_raises(monkeypatch):
    # the catalog checks nothing; a builtin that failed its axioms would be
    # stopped by the entry check of the command that uses it
    monkeypatch.setattr(bhl.cli, "check_hopf", _failing_check_hopf)
    for name in ("group_algebra:2", "sweedler"):
        with pytest.raises(NotHopfError) as err:
            ensure_hopf(build(name))
        assert err.value.code == "NotHopf"
        assert "error[NotHopf]: %s" % err.value == NOT_HOPF_LINE


FAILING_CATALOG_CLI = """
import sys
import bhl.cli
from bhl.braidedhopf import CheckReport
from bhl.gradedcat import identity_mor
bhl.cli.check_hopf = lambda H: CheckReport(
    [("associativity", identity_mor(H.carrier))])
sys.exit(bhl.cli.main(["yd-check", "--builtin", "sweedler"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cli_reports_a_failing_catalog_entry(flags):
    """The entry check does not rest on assert: under python -O too, a
    builtin that fails its axioms ends in one error[NotHopf] line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bhl.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable] + flags + ["-c", FAILING_CATALOG_CLI],
                          capture_output=True, env=env)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stderr.decode().splitlines() == [NOT_HOPF_LINE]
