"""Whiskered chains against the Kronecker products they replace.

Every axiom residual, induced braiding and comodule construction that the
engine now takes as a chain of whiskered maps (`gradedcat.chain`) must be
the morphism that the product of Kronecker products gives (`oracles`):
same source, same target, same matrix, so every report and witness stays
as it was.  The chains must also stay small: `check_hopf` on taft:3 peaks
far below what its Kronecker products took, and the axiom commands run
with `Matrix.__matmul__` unavailable.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl.braidedhopf import (HopfAlgebraData, braid_relation, check_hopf,
                             check_yd, yd_braiding, yd_braiding_inverse,
                             yd_samples)
from bhl.catalog import BUILTIN_NAMES, build
from bhl.cli import main
from bhl.coend import compute_coend, default_diagram
from bhl.comodcat import (comodule_dual, comodule_tensor, regular_comodule,
                          trivial_comodule, unit_comodule)
from bhl.exactalg import Matrix
from bhl.gradedcat import GradedMorphism, line_object
from oracles import (braid_relation_by_kron, check_hopf_by_kron,
                     check_yd_by_kron, comodule_dual_by_kron,
                     comodule_tensor_by_kron, coproduct_constraint_by_kron,
                     split_along_coev, yd_braiding_by_kron,
                     yd_braiding_inverse_by_kron)

NAMES = BUILTIN_NAMES + ["nichols_cyclic:5", "taft:3", "group_algebra:2,2"]
EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def _same_reports(report, oracle):
    assert [n for n, _ in report.checks] == [n for n, _ in oracle.checks]
    for (name, r), (_, o) in zip(report.checks, oracle.checks):
        assert (r.source, r.target) == (o.source, o.target), name
        assert r.matrix == o.matrix, name
        assert report.witness(name) == oracle.witness(name), name


def _same_yd_structure(H):
    for _, yd in yd_samples(H):
        _same_reports(check_yd(yd), check_yd_by_kron(yd))
        c = yd_braiding(yd, yd)
        assert c == yd_braiding_by_kron(yd, yd)
        assert yd_braiding_inverse(yd, yd) == yd_braiding_inverse_by_kron(yd, yd)
        assert braid_relation(c, yd.carrier) == braid_relation_by_kron(
            c, yd.carrier)


@pytest.mark.parametrize("name", NAMES)
def test_chains_equal_their_kronecker_products(name):
    H = build(name)
    _same_reports(check_hopf(H), check_hopf_by_kron(H))
    _same_yd_structure(H)
    ctx = H.carrier.ctx
    reg, unit = regular_comodule(H), unit_comodule(H)
    line = trivial_comodule(H, line_object(ctx, "l", ctx.group.zero))
    for A, B in ((reg, reg), (reg, unit), (unit, reg), (line, reg)):
        assert comodule_tensor(A, B).coaction == comodule_tensor_by_kron(A, B)
    for A in (reg, unit, line):
        assert comodule_dual(A).coaction == comodule_dual_by_kron(A)
    res = compute_coend(default_diagram(H))
    for i, B in enumerate(res.diagram.blocks):
        if B.carrier.dim <= H.carrier.dim:
            pi = res.pi(i).matrix
            assert split_along_coev(pi, B.carrier.dim) == \
                coproduct_constraint_by_kron(pi, B.carrier)


MUTATED = ("group_algebra:2", "sweedler", "exterior_line", "nichols_cyclic:3",
           "taft:2")


def _mutated(H, which, data):
    """H with one degree-preserving entry of m or Delta replaced."""
    f = getattr(H, which)
    field = f.matrix.field
    spots = [(i, j) for i in range(f.target.dim) for j in range(f.source.dim)
             if f.target.degree(i) == f.source.degree(j)]
    i, j = data.draw(st.sampled_from(spots))
    value = data.draw(st.sampled_from(
        [0, 1, -1, 2, field.zeta(1), f.matrix[i, j] + 1]))
    rows = [dict(row) for row in f.matrix.data]
    rows[i][j] = field.scalar(value) if isinstance(value, int) else value
    rows[i] = {c: v for c, v in rows[i].items() if v}
    g = GradedMorphism(f.source, f.target,
                       Matrix.from_rows(field, rows, f.source.dim))
    maps = {k: getattr(H, k) for k in ("m", "u", "delta", "eps", "S")}
    maps[which] = g
    return HopfAlgebraData(H.carrier, **maps)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_mutated_structure_maps_keep_residuals_and_witnesses(data):
    H = _mutated(build(data.draw(st.sampled_from(MUTATED))),
                 data.draw(st.sampled_from(["m", "delta"])), data)
    _same_reports(check_hopf(H), check_hopf_by_kron(H))
    _same_yd_structure(H)


def test_a_mutation_fails_with_the_oracles_witness():
    H = build("sweedler")
    rows = [dict(row) for row in H.m.matrix.data]
    rows[0][0] = H.m.matrix.field.scalar(2)
    m = GradedMorphism(H.m.source, H.m.target,
                       Matrix.from_rows(H.m.matrix.field, rows, H.m.source.dim))
    bad = HopfAlgebraData(H.carrier, m, H.u, H.delta, H.eps, H.S)
    report = check_hopf(bad)
    assert "associativity" in report.failures()
    assert report.witness("associativity") is not None
    _same_reports(report, check_hopf_by_kron(bad))


def test_check_hopf_peak_memory_stays_small():
    H = build("taft:3")
    tracemalloc.start()
    try:
        check_hopf(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def _axiom_ops():
    ops = json.loads(EXPECTED.read_text())["ops"]
    return sorted((op_id, exp) for op_id, exp in ops.items()
                  if not op_id.endswith(".json") and op_id.split(" ")[0]
                  in ("check-hopf", "antipode", "yd-check", "bosonize"))


def _no_kronecker(self, other):
    raise AssertionError("Kronecker product formed")


@pytest.mark.parametrize("op_id,expected", _axiom_ops(),
                         ids=[op_id for op_id, _ in _axiom_ops()])
def test_axiom_commands_form_no_kronecker_product(op_id, expected, tmp_path,
                                                  capsys, monkeypatch):
    monkeypatch.setattr(Matrix, "__matmul__", _no_kronecker)
    command, name = op_id.split(" ")
    out = tmp_path / "report.json"
    code = main([command, "--builtin", name, "--out", str(out)])
    assert code == expected["exit"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected["sha256"]
