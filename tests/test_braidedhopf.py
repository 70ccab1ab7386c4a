"""Axiom checkers, convolution/antipode solving, YD modules, bosonization."""

import pytest

from bhl.braidedhopf import (
    BialgebraData, CheckReport, HopfAlgebraData, SingularAntipodeError,
    YDModuleData, bosonize_with_maps, check_bialgebra, check_hopf,
    check_hopf_morphism, check_yd, solve_antipode, yd_braiding,
    yd_braiding_inverse, yd_samples,
)
from bhl.catalog import (BUILTIN_NAMES, build, exterior_line, group_algebra,
                         sweedler)
from bhl.exactalg import (CycloField, InvalidStructureError, Matrix,
                          NonUniqueError, NoSolutionError)
from bhl.gradedcat import (
    AbelianGroup, Bicharacter, Context, GradedMorphism, GradedObject,
    identity_mor, tensor_obj, unit_object,
)
from oracles import rational_matrix, solve_product_constraints


def trivially_graded_exterior():
    """The exterior line with the braiding forgotten (trivial grading):
    not a bialgebra -- the coproduct fails to be an algebra map."""
    ctx = Context.trivial(CycloField(1))
    H = GradedObject(ctx, [("1", ()), ("x", ())])
    unit = unit_object(ctx)
    one = ctx.field.one
    m = GradedMorphism.from_dict(tensor_obj(H, H), H,
                                 {(0, 0): one, (1, 1): one, (1, 2): one})
    u = GradedMorphism.from_dict(unit, H, {(0, 0): one})
    delta = GradedMorphism.from_dict(H, tensor_obj(H, H),
                                     {(0, 0): one, (2, 1): one, (1, 1): one})
    eps = GradedMorphism.from_dict(H, unit, {(0, 0): one})
    return BialgebraData(H, m, u, delta, eps)


def test_check_hopf_passes_on_catalog_samples():
    for H in (group_algebra(2), exterior_line(), sweedler()):
        report = check_hopf(H)
        assert report.passed, report.failures()


def test_exterior_without_braiding_fails_mult_compat():
    B = trivially_graded_exterior()
    report = check_bialgebra(B)
    assert not report.passed
    assert "mult_compat" in report.failures()
    # the residual on x (x) x is exactly 2 x (x) x
    i, j, v = report.witness("mult_compat")
    assert j == 3 and i == 3 and v == B.carrier.ctx.field.scalar(-2)


def convolution(B, f, g):
    """The convolution product m (f (x) g) Delta of two endomorphisms."""
    return B.m * (f @ g) * B.delta


def test_convolution_unit_and_inverse():
    H = sweedler()
    i = identity_mor(H.carrier)
    ue = H.u * H.eps
    assert convolution(H, i, ue) == i
    assert convolution(H, ue, i) == i
    assert convolution(H, H.S, i) == ue
    assert convolution(H, i, H.S) == ue


def test_convolution_square_on_group_algebra():
    H = group_algebra(2)
    i = identity_mor(H.carrier)
    sq = convolution(H, i, i)  # g |-> g^2 = 1
    F = H.carrier.ctx.field
    assert sq.matrix == rational_matrix(F, [[1, 1], [0, 0]])


def test_solve_antipode_matches_catalog():
    for H in (group_algebra(2), group_algebra(3), sweedler(), exterior_line()):
        S = solve_antipode(H)
        assert S == H.S


def test_solve_antipode_no_solution():
    # the monoid algebra of {1, a | a^2 = a}: a bialgebra with no antipode
    ctx = Context.trivial(CycloField(1))
    H = GradedObject(ctx, [("1", ()), ("a", ())])
    unit = unit_object(ctx)
    one = ctx.field.one
    m = GradedMorphism.from_dict(tensor_obj(H, H), H,
                                 {(0, 0): one, (1, 1): one, (1, 2): one, (1, 3): one})
    u = GradedMorphism.from_dict(unit, H, {(0, 0): one})
    delta = GradedMorphism.from_dict(H, tensor_obj(H, H),
                                     {(0, 0): one, (3, 1): one})
    eps = GradedMorphism.from_dict(H, unit, {(0, 0): one, (0, 1): one})
    B = BialgebraData(H, m, u, delta, eps)
    assert check_bialgebra(B).passed
    with pytest.raises(NoSolutionError):
        solve_antipode(B)
    assert _outcome(solve_antipode, B) == _outcome(antipode_by_oracle, B)


def antipode_by_oracle(B):
    """solve_antipode by the oracle's full solve: m (S (x) id) Delta = u eps
    as the sum over k of A_k S B_k, with A_k[p][i] = m[p][i*n + k] and
    B_k[j] = Delta[j*n + k], then the same two-sided check."""
    H = B.carrier
    n = H.dim
    field = H.ctx.field
    A_rows = [[{} for _ in range(n)] for _ in range(n)]
    for p, col, v in B.m.matrix.items():
        i, k = divmod(col, n)
        A_rows[k][p][i] = v
    B_rows = [[None] * n for _ in range(n)]
    for row_index, row in enumerate(B.delta.matrix.data):
        j, k = divmod(row_index, n)
        B_rows[k][j] = row
    terms = [(Matrix.from_rows(field, A_rows[k], n),
              Matrix.from_rows(field, B_rows[k], n)) for k in range(n)]
    S = GradedMorphism(H, H, solve_product_constraints(
        field, [(terms, (B.u * B.eps).matrix)], (n, n)))
    if not (B.m * (identity_mor(H) @ S) * B.delta - B.u * B.eps).is_zero():
        raise NoSolutionError("left convolution inverse is not two-sided")
    return S


def _outcome(solve, B):
    """solve(B), or the type and message of the engine error it raises."""
    try:
        return solve(B)
    except (NoSolutionError, NonUniqueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", BUILTIN_NAMES + [
    "nichols_cyclic:5", "nichols_cyclic:7", "group_algebra:2,2,2", "taft:3"])
def test_solve_antipode_matches_the_oracle(name):
    H = build(name)
    B = BialgebraData(H.carrier, H.m, H.u, H.delta, H.eps)
    S = solve_antipode(B)
    assert S == antipode_by_oracle(B) == H.S


# ---------------------------------------------------------------------------
# Yetter-Drinfeld modules over kZ/2
# ---------------------------------------------------------------------------

def kz2_yd_samples():
    """Three valid YD modules on 2-dim carriers over kZ/2: (adjoint = trivial
    action, regular coaction), (trivial, trivial), (regular action, trivial
    coaction)."""
    H = group_algebra(2)
    return H, [yd for _, yd in yd_samples(H)]


def mistyped_data():
    """Each shape check of this module, handed a datum of the wrong type."""
    H = sweedler()
    kz2, samples = kz2_yd_samples()
    kz3_samples = [yd for _, yd in yd_samples(group_algebra(3))]
    V = samples[0]
    return {
        "bialgebra_m": lambda: BialgebraData(H.carrier, H.delta, H.u,
                                             H.delta, H.eps),
        "bialgebra_u": lambda: BialgebraData(H.carrier, H.m, H.eps,
                                             H.delta, H.eps),
        "bialgebra_delta": lambda: BialgebraData(H.carrier, H.m, H.u, H.m,
                                                 H.eps),
        "bialgebra_eps": lambda: BialgebraData(H.carrier, H.m, H.u, H.delta,
                                               H.u),
        "hopf_antipode": lambda: HopfAlgebraData(H.carrier, H.m, H.u,
                                                 H.delta, H.eps, H.eps),
        "yd_action": lambda: YDModuleData(kz2, V.carrier, V.coaction,
                                          V.coaction),
        "yd_coaction": lambda: YDModuleData(kz2, V.carrier, V.action,
                                            V.action),
        "yd_braiding": lambda: yd_braiding(V, kz3_samples[0]),
        "yd_braiding_inverse": lambda: yd_braiding_inverse(V,
                                                           kz3_samples[0]),
        "hopf_morphism": lambda: check_hopf_morphism(H.u, H, H),
    }


@pytest.mark.parametrize("case", sorted(mistyped_data()))
def test_mistyped_datum_raises_invalid_structure(case):
    # shape checks are not asserts: they hold under python -O too
    with pytest.raises(InvalidStructureError):
        mistyped_data()[case]()


def test_yd_samples_pass():
    _, samples = kz2_yd_samples()
    for yd in samples:
        report = check_yd(yd)
        assert report.passed, report.failures()


def test_yd_compat_failure():
    # swap action with the g^k-graded coaction: module and comodule axioms
    # hold but the YD compatibility fails
    H = group_algebra(2)
    ctx = H.carrier.ctx
    V = GradedObject(ctx, [("v0", ()), ("v1", ())])
    one = ctx.field.one
    action = GradedMorphism.from_dict(
        tensor_obj(H.carrier, V), V,
        {(0, 0): one, (1, 1): one,   # 1 acts as id
         (1, 2): one, (0, 3): one})  # g swaps v0, v1
    coaction = GradedMorphism.from_dict(
        V, tensor_obj(H.carrier, V),
        {(0, 0): one, (3, 1): one})  # v0 -> 1 (x) v0, v1 -> g (x) v1
    yd = YDModuleData(H, V, action, coaction)
    report = check_yd(yd)
    assert report.residual("module_assoc").is_zero()
    assert report.residual("module_unit").is_zero()
    assert report.residual("comodule_coassoc").is_zero()
    assert report.residual("comodule_counit").is_zero()
    assert not report.residual("yd_compat").is_zero()


def test_non_action_reported():
    H = group_algebra(2)
    ctx = H.carrier.ctx
    V = GradedObject(ctx, [("v0", ()), ("v1", ())])
    one = ctx.field.one
    bad_action = GradedMorphism.from_dict(
        tensor_obj(H.carrier, V), V,
        {(0, 0): one, (1, 1): one, (1, 2): one, (1, 3): one})  # g.v0=v1, g.v1=v1
    coaction = H.u @ identity_mor(V)
    report = check_yd(YDModuleData(H, V, bad_action, coaction))
    assert "module_assoc" in report.failures()


def test_yd_braiding_trivial_case_is_flip():
    H, samples = kz2_yd_samples()
    triv = samples[1]
    c = yd_braiding(triv, triv)
    F = H.carrier.ctx.field
    n = triv.carrier.dim
    flip = {(j * n + i, i * n + j): F.one for i in range(n) for j in range(n)}
    assert c.matrix == Matrix.from_dict(F, n * n, n * n, flip)


def test_yd_braiding_invertible_both_ways():
    _, samples = kz2_yd_samples()
    for V in samples:
        for W in samples:
            c = yd_braiding(V, W)
            ci = yd_braiding_inverse(V, W)
            assert ci * c == identity_mor(c.source)
            assert c * ci == identity_mor(c.target)


def test_yd_braiding_hand_value():
    # for V with regular coaction and W with regular action over kZ/2:
    # c(v (x) w) = v_(-1) w (x) v_0, so c(g (x) g) = g.g (x) g = 1 (x) g
    H, samples = kz2_yd_samples()
    V = samples[0]   # trivial action, regular coaction
    W = samples[2]   # regular action, trivial coaction
    c = yd_braiding(V, W)
    n = 2
    col = 1 * n + 1  # g (x) g
    F = H.carrier.ctx.field
    vals = [c.matrix.entries[r][col] for r in range(4)]
    # expect 1 (x) g at row (0*2+1) = 1
    assert vals == [F.zero, F.one, F.zero, F.zero]


def test_singular_antipode_error():
    # a Hopf-like datum with a non-invertible "antipode" matrix: the error
    # path of the inverse braiding
    H = group_algebra(2)
    broken = HopfAlgebraData(H.carrier, H.m, H.u, H.delta, H.eps,
                             H.u * H.eps)  # uses u.eps, rank 1
    _, samples = kz2_yd_samples()
    V = YDModuleData(broken, samples[0].carrier, samples[0].action,
                     samples[0].coaction)
    with pytest.raises(SingularAntipodeError):
        yd_braiding_inverse(V, V)


# ---------------------------------------------------------------------------
# bosonization
# ---------------------------------------------------------------------------

def unit_hopf_in(ctx):
    U = unit_object(ctx)
    i = identity_mor(U)
    return HopfAlgebraData(U, i, i, i, i, i)


def test_bosonize_trivial_algebra_gives_group_algebra():
    group = AbelianGroup([2])
    ctx = Context(CycloField(1), group, Bicharacter(group, 2, [[1]]))
    R = unit_hopf_in(ctx)
    res = bosonize_with_maps(R)
    kG = group_algebra(2)
    for nm in ["m", "u", "delta", "eps", "S"]:
        assert getattr(res.hopf, nm).matrix == getattr(kG, nm).matrix
    assert res.hopf.carrier.dim == 2


def test_bosonize_exterior_is_sweedler():
    res = bosonize_with_maps(exterior_line())
    sw = sweedler()
    assert [l for l, _ in res.hopf.carrier.basis] == ["1#g0", "1#g1", "x#g0", "x#g1"]
    for nm in ["m", "u", "delta", "eps", "S"]:
        assert getattr(res.hopf, nm).matrix == getattr(sw, nm).matrix, nm


def test_bosonization_maps_are_hopf_maps():
    res = bosonize_with_maps(exterior_line())
    assert check_hopf_morphism(res.projection, res.hopf, res.group_hopf).passed
    assert check_hopf_morphism(res.inclusion, res.group_hopf, res.hopf).passed
    assert res.projection * res.inclusion == identity_mor(res.group_hopf.carrier)


def test_bosonize_passes_axioms():
    H = bosonize_with_maps(exterior_line()).hopf
    assert check_hopf(H).passed
