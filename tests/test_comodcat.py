"""Comodules: constructors, tensor/dual/act, exact hom spaces, section."""

import pytest

from bhl.catalog import exterior_line, group_algebra, sweedler
from bhl.comodcat import (
    Comodule, act, comodule_dual, comodule_tensor, direct_sum_comodule,
    hom_space, is_colinear, regular_comodule, trivial_comodule, unit_comodule,
)
from bhl.exactalg import InvalidStructureError, Matrix
from bhl.gradedcat import (
    GradedMorphism, GradedObject, identity_mor, left_dual, line_object,
    tensor_obj, unit_object,
)
from oracles import check_monoidal_module, check_section, is_comodule_morphism


def vectorized(basis, A, B):
    """The hom basis maps F(A) -> F(B) as the columns of one matrix, each
    map vectorized row-major."""
    dA = A.carrier.dim
    rows = [{i * dA + j: v for i, j, v in f.matrix.items()} for f in basis]
    return Matrix.from_rows(A.carrier.ctx.field, rows,
                            B.carrier.dim * dA).transpose()


def dense_hom_dim(A, B):
    """Independent oracle: the colinearity equations assembled densely on all
    of Hom(F(A), F(B)), with degree preservation imposed as extra equations,
    nullspace dimension as columns minus rank."""
    F = A.carrier.ctx.field
    dA, dB, dH = A.carrier.dim, B.carrier.dim, A.hopf.carrier.dim
    iH = Matrix.identity(F, dH)
    cols = []
    for i in range(dB):
        for j in range(dA):
            E = Matrix.from_dict(F, dB, dA, {(i, j): F.one})
            R = B.coaction.matrix * E - (iH @ E) * A.coaction.matrix
            col = [R.entries[r][c] for r in range(R.rows)
                   for c in range(R.cols)]
            # a category morphism must also preserve the grading
            for i2 in range(dB):
                for j2 in range(dA):
                    mixes = B.carrier.degree(i2) != A.carrier.degree(j2)
                    col.append(F.one if mixes and (i2, j2) == (i, j) else F.zero)
            cols.append(col)
    M = Matrix(F, [[cols[k][r] for k in range(len(cols))]
                   for r in range(len(cols[0]))], cols=dB * dA)
    return M.cols - M.rank()


def test_regular_and_trivial_comodules_construct():
    for H in (group_algebra(2), sweedler(), exterior_line()):
        R = regular_comodule(H)
        assert R.carrier == H.carrier
        V = line_object(H.carrier.ctx, "t", H.carrier.ctx.group.zero)
        T = trivial_comodule(H, V)
        assert T.coaction == H.u @ identity_mor(V)


def test_bad_coaction_rejected():
    H = group_algebra(2)
    V = H.carrier
    # degree-preserving but violates the counit law
    bad = GradedMorphism.from_dict(
        V, tensor_obj(V, V),
        {(3, 0): V.ctx.field.one, (2, 1): V.ctx.field.one})
    with pytest.raises(InvalidStructureError):
        Comodule(H, V, bad)


def coaction_on(H, V, rows):
    return GradedMorphism(V, tensor_obj(H.carrier, V), Matrix.from_rows(
        H.carrier.ctx.field, rows, V.dim))


@pytest.mark.parametrize("case, message", [
    ("sum_of_grouplikes", "coaction is not coassociative"),
    ("zero_on_a_line", "coaction violates the counit"),
    ("doubled_x", "coaction is not coassociative"),
    ("doubled_delta", "coaction is not coassociative"),
    ("zero_on_sweedler", "coaction violates the counit"),
])
def test_comodule_axioms_keep_their_errors(case, message):
    # the axioms are compared through whiskered products, with the errors
    # of the Kronecker-product comparison they replace
    if case in ("sum_of_grouplikes", "zero_on_a_line"):
        H = group_algebra(2)
        V = unit_object(H.carrier.ctx)
        one = H.carrier.ctx.field.one
        rows = [{0: one}, {0: one}] if case == "sum_of_grouplikes" else [{}, {}]
    else:
        H = sweedler()
        V = H.carrier
        two = V.ctx.field.scalar(2)
        delta = H.delta.matrix.data
        rows = {"doubled_x": [{j: v * two if j == 2 else v
                               for j, v in row.items()} for row in delta],
                "doubled_delta": [{j: v * two for j, v in row.items()}
                                  for row in delta],
                "zero_on_sweedler": [{} for _ in delta]}[case]
    with pytest.raises(InvalidStructureError) as err:
        Comodule(H, V, coaction_on(H, V, rows))
    assert str(err.value) == message


def test_tensor_of_comodules_is_comodule():
    for H in (group_algebra(2), sweedler()):
        R = regular_comodule(H)
        T = comodule_tensor(R, R)
        assert T.carrier == tensor_obj(H.carrier, H.carrier)
        U = unit_comodule(H)
        assert comodule_tensor(U, R) == R
        assert comodule_tensor(R, U) == R


def test_dual_comodule_and_evaluation_colinearity():
    for H in (group_algebra(2), sweedler(), exterior_line()):
        R = regular_comodule(H)
        D = comodule_dual(R)
        d = left_dual(H.carrier)
        assert D.carrier == d.space
        # evaluation and coevaluation are comodule morphisms
        assert is_comodule_morphism(d.ev, comodule_tensor(R, D), unit_comodule(H))
        assert is_comodule_morphism(d.coev, unit_comodule(H), comodule_tensor(D, R))


def test_act_is_trivial_on_the_object_factor():
    H = exterior_line()
    ctx = H.carrier.ctx
    L = line_object(ctx, "w", (1,))
    B = act(regular_comodule(H), L)
    assert B.carrier == tensor_obj(H.carrier, L)
    # acting by the unit object changes nothing
    assert act(regular_comodule(H), unit_object(ctx)) == regular_comodule(H)
    # tensoring with a trivial comodule is the same thing
    assert comodule_tensor(regular_comodule(H), trivial_comodule(H, L)) == B


def test_hom_space_endos_of_regular():
    # colinear endomorphisms of the regular comodule pair off against the
    # degree-zero part of the dual algebra
    cases = [(group_algebra(2), 2), (group_algebra(3), 3),
             (exterior_line(), 1), (sweedler(), 4)]
    for H, expected in cases:
        R = regular_comodule(H)
        basis = hom_space(R, R)
        assert len(basis) == expected
        assert vectorized(basis, R, R).rank() == expected
        assert dense_hom_dim(R, R) == expected
        for f in basis:
            assert is_comodule_morphism(f, R, R)


def test_hom_space_trivial_to_regular():
    for H in (group_algebra(2), sweedler()):
        T = unit_comodule(H)
        R = regular_comodule(H)
        assert len(hom_space(R, T)) == 1
        assert dense_hom_dim(T, R) == 1
        # the inclusion of the unit is the unit map itself
        (f,) = hom_space(T, R)
        assert f.matrix.entries[0][0] == H.carrier.ctx.field.one


def test_hom_space_identity_always_present():
    H = sweedler()
    R = regular_comodule(H)
    T = comodule_tensor(R, R)
    basis = hom_space(T, T)
    for f in basis:
        assert is_comodule_morphism(f, T, T)
    mat = vectorized(basis, T, T)
    # vec(id) must lie in the column span: solve by rank comparison
    F = H.carrier.ctx.field
    n = T.carrier.dim
    idvec = Matrix.from_dict(F, n * n, 1,
                             {(i * n + i, 0): F.one for i in range(n)})
    assert mat.hstack(idvec).rank() == mat.rank()


def test_hom_space_big_pair_matches_dense_oracle():
    H = sweedler()
    R = regular_comodule(H)
    T = comodule_tensor(R, R)
    basis = hom_space(T, R)
    assert len(basis) == dense_hom_dim(T, R)
    for f in basis:
        assert is_comodule_morphism(f, T, R)
    mat = vectorized(basis, T, R)
    # the multiplication itself is one of them
    m = H.m
    assert is_comodule_morphism(m, T, R)
    vec = Matrix(H.carrier.ctx.field,
                 [[m.matrix.entries[i][j]] for i in range(m.matrix.rows)
                  for j in range(m.matrix.cols)], cols=1)
    assert mat.hstack(vec).rank() == mat.rank()


def test_direct_sum_comodule_hom_additivity():
    H = group_algebra(2)
    R = regular_comodule(H)
    T = unit_comodule(H)
    S = direct_sum_comodule(R, T)
    assert S.carrier.dim == 3
    dim = lambda A, B: len(hom_space(A, B))
    assert dim(R, S) == dim(R, R) + dim(R, T)
    assert dim(S, S) == dim(R, R) + dim(T, T) + dim(R, T) + dim(T, R)


def test_check_monoidal_module_default_passes():
    for H in (sweedler(), exterior_line()):
        ctx = H.carrier.ctx
        comods = [regular_comodule(H), unit_comodule(H)]
        objs = [line_object(ctx, "w", ctx.group.zero), unit_object(ctx)]
        report = check_monoidal_module(H, comods, objs)
        assert report.passed, report.failures()


def test_check_monoidal_module_detects_bad_structure_map():
    H = exterior_line()
    ctx = H.carrier.ctx
    L = line_object(ctx, "w", (1,))

    def skew(B, X):
        f = identity_mor(tensor_obj(B.carrier, X))
        if X == L:
            return f + f
        return f

    report = check_monoidal_module(H, [regular_comodule(H)], [L], l=skew)
    assert not report.passed
    assert any(name.startswith("mixed_assoc") for name in report.failures())


def test_check_section_passes():
    for H in (group_algebra(2), sweedler(), exterior_line()):
        ctx = H.carrier.ctx
        objs = [line_object(ctx, "a", ctx.group.zero), unit_object(ctx)]
        if ctx.group.rank:
            objs.append(GradedObject(ctx, [("p", ctx.group.zero), ("q", (1,))]))
        report = check_section(H, objs)
        assert report.passed, report.failures()


def test_mismatched_operands_raise_under_optimization():
    # the operand checks are `require`s, not asserts, so python -O keeps them
    A, B = regular_comodule(group_algebra(2)), regular_comodule(sweedler())
    for op in (hom_space, comodule_tensor, direct_sum_comodule):
        with pytest.raises(InvalidStructureError):
            op(A, B)
    with pytest.raises(InvalidStructureError):
        act(A, A)


def test_is_colinear_agrees_with_the_dense_residual():
    for H in (sweedler(), exterior_line()):
        R = regular_comodule(H)
        T = comodule_tensor(R, R)
        maps = hom_space(T, R) + [H.m, identity_mor(H.carrier)]
        F = H.carrier.ctx.field
        maps.append(GradedMorphism(H.carrier, H.carrier, Matrix.from_dict(
            F, H.carrier.dim, H.carrier.dim, {(0, 0): F.one})))
        for f in maps:
            A = T if f.source == T.carrier else R
            assert is_colinear(f, A, R) == is_comodule_morphism(f, A, R)
        assert not is_colinear(maps[-1], R, R)
