"""Structure extraction from the coend: counit, coproduct, product, unit,
antipode (two routes), comparison isomorphism, equivalence samples."""

import pytest

from bhl.braidedhopf import BialgebraData, check_hopf, solve_antipode
from bhl.catalog import BUILTIN_NAMES, build, group_algebra, sweedler
from bhl.coend import (CoendResult, Diagram, _block_spaces, compute_coend,
                       reconstruction_diagram)
from bhl.comodcat import direct_sum_comodule, regular_comodule, unit_comodule
from bhl.exactalg import (Matrix, NoSolutionError, QuotientPresentation,
                          _null_space)
from bhl.gradedcat import GradedObject, braiding, identity_mor
from bhl.reconstruct import (
    CrossCheckMismatchError, NotIsoError, Reconstruction, canonical_comparison,
    extract_antipode, extract_coproduct, extract_counit, extract_product,
    reconstruct,
)


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


def test_antipode_cross_check_mismatch_detected():
    # feeding the co-opposite bialgebra makes the convolution route return
    # the inverse antipode; on Sweedler's algebra S^2 != id, so the two
    # routes must disagree
    H = sweedler()
    res = compute_coend(reconstruction_diagram(H))
    flip = braiding(H.carrier, H.carrier)
    cop = BialgebraData(H.carrier, H.m, H.u, flip * H.delta, H.eps)
    # sanity: the co-opposite really is a bialgebra with the inverse antipode
    S_cop = solve_antipode(cop)
    assert S_cop != H.S and S_cop * H.S == identity_mor(H.carrier)
    with pytest.raises(CrossCheckMismatchError) as err:
        extract_antipode(res, cop)
    assert err.value.code == "CrossCheckMismatch"


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


def test_custom_diagram_reconstructs_too():
    # an enlarged diagram must reconstruct the same Hopf algebra
    H = group_algebra(2)
    D = reconstruction_diagram(H).enlarged(
        direct_sum_comodule(regular_comodule(H), unit_comodule(H)))
    r = reconstruct(H, diagram=D)
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


@pytest.mark.parametrize("extract", [extract_counit, extract_coproduct,
                                     extract_product])
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
