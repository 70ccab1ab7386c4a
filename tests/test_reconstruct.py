"""Structure extraction from the coend: counit, coproduct, product, unit,
antipode, comparison isomorphism, equivalence samples; the quotient proved
Hopf by transport along the comparison, with the full axiom check as the
diagnosis when the comparison is not a Hopf morphism.  The maps read
through one section of the regular block's projection are those that the
constraints of every block pair pin (`oracles.extract_by_read_off`), and
each block's projection is the comparison after psi_bar of its coaction,
so each block over the quotient coacts through the comparison.  A diagram
without a block that an extraction reads raises InvalidStructure.  The
comparison is the certificate's P_F^-1, which is the chain
pi_reg (id (x) *eps), and the equivalence samples reported by transport
along it are those that the hom spaces compute
(`oracles.equivalence_by_hom_spaces`)."""

import json

import pytest

import bhl.reconstruct
from bhl.braidedhopf import (BialgebraData, check_hopf, check_hopf_morphism,
                             solve_antipode)
from bhl.catalog import BUILTIN_NAMES, build, group_algebra, sweedler
from bhl.cli import main
from bhl.coend import (CoendResult, Diagram, compute_coend, default_diagram,
                       reconstruction_diagram)
from bhl.comodcat import (comodule_dual, comodule_tensor, direct_sum_comodule,
                          regular_comodule, unit_comodule)
from bhl.exactalg import (InvalidStructureError, Matrix, NoSolutionError,
                          whiskered)
from bhl.gradedcat import GradedMorphism, identity_mor
from bhl.reconstruct import (Reconstruction, canonical_comparison,
                             reconstruct, regular_section,
                             verify_equivalence_samples)
from oracles import (comodule_over_quotient, comparison_by_chain,
                     coproduct_by_read_off, counit_by_read_off,
                     equivalence_by_hom_spaces, extract_by_read_off,
                     product_by_read_off, psi_bar, seed0_spec_datum)


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


def without_the_unit_block(H):
    """The regular block, its tensor square and its dual, and no unit
    block: every structure map but the unit can be read off."""
    reg = regular_comodule(H)
    return Diagram(H, [reg, comodule_tensor(reg, reg), comodule_dual(reg)])


@pytest.mark.parametrize("diagram, block", [
    (default_diagram, "dual of the regular block"),
    (without_the_unit_block, "unit comodule")])
def test_a_diagram_without_a_block_an_extraction_reads_raises(diagram,
                                                              block):
    # the diagram's coend is certified, and the extraction that needs the
    # missing block names it
    H = sweedler()
    with pytest.raises(InvalidStructureError) as err:
        reconstruct(H, diagram(H))
    assert err.value.code == "InvalidStructure"
    assert str(err.value) == "the %s is not a block of the diagram" % block


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


@pytest.mark.parametrize("case", READ_OFF_CASES)
def test_the_comparison_is_the_chain_and_the_section_splits_it(case):
    # h = P_F^-1 is pi_reg (id (x) *eps) by H's counit axiom, and
    # E = (id (x) *eps) P_F is a right inverse of pi_reg
    H, diagram = READ_OFF_CASES[case]()
    res = compute_coend(diagram if diagram is not None
                        else reconstruction_diagram(H))
    assert canonical_comparison(res) == comparison_by_chain(res)
    assert (res.pi(res.diagram.regular) * regular_section(res)
            == identity_mor(res.quotient))


@pytest.mark.parametrize("case", READ_OFF_CASES)
def test_the_equivalence_samples_by_transport_are_the_computed_ones(case):
    # every block over the quotient coacts through h (x) id, so the flags
    # reported by transport are those the hom spaces compute
    H, diagram = READ_OFF_CASES[case]()
    r = reconstruct(H, diagram)
    assert (equivalence_by_hom_spaces(r.coend, r.quotient_hopf).checks
            == verify_equivalence_samples(r.coend).checks)


def test_the_equivalence_oracle_fails_on_a_doubled_acted_projection(
        monkeypatch):
    # doubling the acted block's projection breaks its coaction over the
    # quotient, and the computed samples say so; the lemma reads no
    # projection, so its report is unchanged
    r = reconstruct(sweedler())
    res = r.coend
    acted = res.diagram.acted[0][0]
    lemma = verify_equivalence_samples(res).checks
    two = res.diagram.hopf.carrier.ctx.field.scalar(2)
    pi_matrix = CoendResult.pi_matrix

    def doubled(self, i):
        p = pi_matrix(self, i)
        return p.scale(two) if i == acted else p

    monkeypatch.setattr(CoendResult, "pi_matrix", doubled)
    oracle = equivalence_by_hom_spaces(res, r.quotient_hopf)
    assert oracle.failures() == ["action_carried[0]"]
    assert verify_equivalence_samples(res).checks == lemma
    assert all(ok for _, ok in lemma)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_each_block_projection_is_the_comparison_after_psi_bar(name):
    # the projection is P_F^-1 P, and h = P_F^-1 by H's counit axiom
    H = build(name)
    res = compute_coend(reconstruction_diagram(H))
    h = canonical_comparison(res)
    for i, B in enumerate(res.diagram.blocks):
        assert res.pi_matrix(i) == h.matrix * psi_bar(
            B.coaction, H.carrier, B.carrier).matrix, i


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft:3", "nichols_cyclic:5",
                                                  "group_algebra:2,2"])
def test_each_block_over_the_quotient_coacts_through_the_comparison(name):
    # q_of[B] = (h (x) id) rho_B for every block B, the premise from which
    # the equivalence samples would follow by transport along h
    r = reconstruct(build(name))
    h = r.comparison.matrix
    for i, B in enumerate(r.coend.diagram.blocks):
        q_of = comodule_over_quotient(r.coend, r.quotient_hopf, B)
        assert q_of.coaction.matrix == whiskered(1, h, B.carrier.dim,
                                                 B.coaction.matrix), i


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
