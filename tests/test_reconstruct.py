"""Structure extraction from the coend: counit, coproduct, product, unit,
antipode, comparison isomorphism, equivalence samples; the quotient proved
Hopf by transport along the comparison, with the full axiom check as the
diagnosis when the comparison is not a Hopf morphism.  The maps read
through one section of the regular block's projection are those that the
constraints of every block pair pin (`oracles.extract_by_read_off`), and
each block's projection is the comparison after psi_bar of its coaction."""

import json

import pytest

import bhl.reconstruct
from bhl.braidedhopf import (BialgebraData, check_hopf, check_hopf_morphism,
                             solve_antipode)
from bhl.catalog import BUILTIN_NAMES, build, group_algebra, sweedler
from bhl.cli import datum_from_spec, main
from bhl.coend import (CoendResult, Diagram, _block_spaces, compute_coend,
                       reconstruction_diagram)
from bhl.comodcat import direct_sum_comodule, regular_comodule, unit_comodule
from bhl.exactalg import (Matrix, NoSolutionError, QuotientPresentation,
                          _null_space)
from bhl.gradedcat import GradedMorphism, GradedObject, identity_mor
from bhl.reconstruct import (NotIsoError, Reconstruction,
                             canonical_comparison, reconstruct)
from oracles import (coproduct_by_read_off, counit_by_read_off,
                     extract_by_read_off, perfbench_module,
                     product_by_read_off, psi_bar)


def test_reconstruct_passes_on_all_builtins():
    for name in BUILTIN_NAMES:
        r = reconstruct(build(name))
        assert isinstance(r, Reconstruction)
        assert r.passed, (name, r.checks.failures())
        assert r.coend.dim == r.hopf.carrier.dim


def test_quotient_is_a_hopf_algebra():
    r = reconstruct(sweedler())
    rep = check_hopf(r.quotient_hopf)
    assert rep.passed, rep.failures()


def test_structure_transported_by_comparison():
    # the comparison carries every original structure map to the
    # reconstructed one on the nose
    for name in ("group_algebra:3", "sweedler", "exterior_line",
                 "nichols_cyclic:3"):
        H = build(name)
        r = reconstruct(H)
        h = r.comparison
        hinv = h.inverse()
        Q = r.quotient_hopf
        assert Q.m == h * H.m * (hinv @ hinv)
        assert Q.u == h * H.u
        assert Q.delta == (h @ h) * H.delta * hinv
        assert Q.eps == H.eps * hinv
        assert Q.S == h * H.S * hinv


def test_group_algebra_reconstructs_itself_on_the_nose():
    # for kZ/2 the canonical free coordinates line up with the original
    # basis, so the comparison is the identity and all matrices coincide
    H = group_algebra(2)
    r = reconstruct(H)
    F = H.carrier.ctx.field
    assert r.comparison.matrix == Matrix.identity(F, 2)
    assert r.quotient_hopf.m.matrix == H.m.matrix
    assert r.quotient_hopf.delta.matrix == H.delta.matrix
    assert r.quotient_hopf.S.matrix == H.S.matrix


def test_antipode_cross_check_is_independent():
    r = reconstruct(sweedler())
    Q = r.quotient_hopf
    S_conv = solve_antipode(BialgebraData(Q.carrier, Q.m, Q.u, Q.delta, Q.eps))
    assert S_conv == Q.S


def flags(r):
    return dict(r.checks.checks)


@pytest.fixture
def wrong_antipode(monkeypatch):
    """Plant S^-1, the antipode of the co-opposite, as Q's antipode.  On
    Sweedler's algebra S^2 != id, so it is not Q's antipode."""
    extract = bhl.reconstruct.extract_antipode

    def inverse(res, E):
        S = extract(res, E)
        S_inv = S.inverse()
        assert S_inv != S and S * S_inv == identity_mor(S.source)
        return S_inv

    monkeypatch.setattr(bhl.reconstruct, "extract_antipode", inverse)


def test_a_wrong_antipode_fails_the_comparison_and_the_diagnosis(
        wrong_antipode):
    r = reconstruct(sweedler())
    assert not flags(r)["comparison_is_hopf_morphism"]
    assert not flags(r)["quotient_is_hopf"]
    assert check_hopf_morphism(r.comparison, r.hopf,
                               r.quotient_hopf).failures() == [
        "respects_antipode"]


def test_a_wrong_antipode_fails_the_cli_report(wrong_antipode, tmp_path,
                                               capsys):
    out = tmp_path / "r.json"
    assert main(["verify-reconstruction", "--builtin", "sweedler",
                 "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert failed == {"quotient_is_hopf", "comparison_is_hopf_morphism"}


def test_a_comparison_that_is_not_a_morphism_leaves_the_quotient_hopf(
        monkeypatch):
    # 2h is bijective and degree-preserving but breaks respects_m; the
    # quotient itself is untouched, so the diagnosis must find it Hopf
    # (planted where the morphism check reads h, so the section that the
    # quotient's maps are read through is the true comparison's)
    check = bhl.reconstruct.check_hopf_morphism

    def doubled(h, H, Q):
        two = h.source.ctx.field.scalar(2)
        return check(GradedMorphism(h.source, h.target, h.matrix.scale(two)),
                     H, Q)

    monkeypatch.setattr(bhl.reconstruct, "check_hopf_morphism", doubled)
    r = reconstruct(sweedler())
    assert not flags(r)["comparison_is_hopf_morphism"]
    assert flags(r)["quotient_is_hopf"]


def test_not_iso_guard():
    # a presentation that kills the regular block cannot be compared
    H = group_algebra(2)
    D = Diagram(H, [regular_comodule(H), unit_comodule(H)])
    offsets, total = _block_spaces(D)
    field = H.carrier.ctx.field
    rows = [(p, {p: field.one}) for p in range(offsets[1])]
    free, proj = _null_space(field, total, rows)
    pres = QuotientPresentation(total, free, Matrix.from_rows(field, proj, total))
    quotient = GradedObject(H.carrier.ctx, [("c0", ())])
    res = CoendResult(D, offsets, pres, quotient, {})
    with pytest.raises(NotIsoError) as err:
        canonical_comparison(res)
    assert err.value.code == "NotIso"


def enlarged_diagram(H):
    return reconstruction_diagram(H).enlarged(
        direct_sum_comodule(regular_comodule(H), unit_comodule(H)))


def test_custom_diagram_reconstructs_too():
    # an enlarged diagram must reconstruct the same Hopf algebra
    H = group_algebra(2)
    r = reconstruct(H, diagram=enlarged_diagram(H))
    assert r.passed, r.checks.failures()
    assert r.coend.dim == 2


def test_report_names_cover_all_families():
    r = reconstruct(group_algebra(2))
    names = [name for name, _ in r.checks.checks]
    assert "quotient_is_hopf" in names
    assert "comparison_is_hopf_morphism" in names
    assert "coend_residuals" in names
    assert any(n.startswith("hom_dims") for n in names)
    assert any(n.startswith("action_carried") for n in names)
    assert any(n.startswith("block_comodule") for n in names)


def seed0_spec_datum(base, dense):
    """The benchmark's seed-0 spec of `base`, read as the CLI does."""
    doc = json.loads(perfbench_module("gen").generate(base, 0, dense))
    return datum_from_spec(doc)[0]


READ_OFF_CASES = {name: (lambda name=name: (build(name), None))
                  for name in BUILTIN_NAMES + ["taft:3", "nichols_cyclic:5",
                                               "group_algebra:2,2"]}
READ_OFF_CASES["enlarged_group_algebra:2"] = lambda: (
    group_algebra(2), enlarged_diagram(group_algebra(2)))
READ_OFF_CASES["cyclo5-diag"] = lambda: (
    seed0_spec_datum("nichols_cyclic:5", False), None)
READ_OFF_CASES["taft2-dense"] = lambda: (seed0_spec_datum("taft:2", True),
                                         None)


@pytest.mark.parametrize("case", READ_OFF_CASES)
def test_the_section_gives_the_maps_every_block_pins(case):
    # pi_reg is onto the quotient, so X . pi_reg = C_reg has one solution;
    # the oracle reads it off every block pair's constraints and verifies
    # each, so the other blocks' constraints hold too
    H, diagram = READ_OFF_CASES[case]()
    r = reconstruct(H, diagram)
    Q = r.quotient_hopf
    assert extract_by_read_off(r.coend) == (Q.eps, Q.delta, Q.m, Q.S)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_each_block_projection_is_the_comparison_after_psi_bar(name):
    # the projection is P_F^-1 P, and h = P_F^-1 by H's counit axiom
    H = build(name)
    res = compute_coend(reconstruction_diagram(H))
    h = canonical_comparison(res)
    for i, B in enumerate(res.diagram.blocks):
        assert res.pi_matrix(i) == h.matrix * psi_bar(
            B.coaction, H.carrier, B.carrier).matrix, i


@pytest.mark.parametrize("extract", [
    pytest.param(counit_by_read_off, id="extract_counit"),
    pytest.param(coproduct_by_read_off, id="extract_coproduct"),
    pytest.param(product_by_read_off, id="extract_product")])
def test_a_constraint_the_read_off_map_fails_raises(extract, monkeypatch):
    # doubling the unit block's projection leaves the regular block, which
    # already fixes the map, unchanged; the unit block's constraints then
    # fail, and the verification after the read-off must say so
    res = compute_coend(reconstruction_diagram(sweedler()))
    D = res.diagram
    one = D.index(D.derived(unit_comodule))
    two = D.hopf.carrier.ctx.field.scalar(2)
    pi_matrix = CoendResult.pi_matrix

    def doubled(self, i):
        p = pi_matrix(self, i)
        return p.scale(two) if i == one else p

    monkeypatch.setattr(CoendResult, "pi_matrix", doubled)
    with pytest.raises(NoSolutionError, match="constraints are inconsistent"):
        extract(res)
