"""Braided graded category tests: tensor, braiding, duals, pairing maps."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import bhl
from bhl.exactalg import CycloField, InvalidStructureError, Matrix
from bhl.gradedcat import (
    AbelianGroup, Bicharacter, Context, GradedMorphism, GradedObject,
    braiding, braiding_inverse, direct_sum_obj, dual_morphism, identity_mor,
    left_dual, line_object, phi_left, psi, tensor_obj, unit_object,
)
from oracles import psi_bar, rational_matrix


def super_ctx():
    """Z/2-graded vector spaces with the sign braiding."""
    group = AbelianGroup([2])
    return Context(CycloField(1), group, Bicharacter(group, 2, [[1]]))


def zmod3_ctx():
    group = AbelianGroup([3])
    return Context(CycloField(3), group, Bicharacter(group, 3, [[1]]))


def test_group_basics():
    g = AbelianGroup([2, 4])
    assert math.prod(g.invariant_factors) == len(g.elements()) == 8
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 3)
    assert AbelianGroup([]).elements() == [()]


def test_bicharacter_validation():
    group = AbelianGroup([2])
    with pytest.raises(ValueError):
        Bicharacter(group, 4, [[1]])  # 2*1 != 0 mod 4
    chi = Bicharacter(group, 2, [[1]])
    assert chi.exponent((1,), (1,)) == 1
    assert chi.exponent((0,), (1,)) == 0
    F = CycloField(1)
    assert chi.value(F, (1,), (1,)) == F.scalar(-1)


def test_bicharacter_bilinear():
    group = AbelianGroup([3])
    chi = Bicharacter(group, 3, [[2]])
    F = CycloField(3)
    for a in group.elements():
        for b in group.elements():
            for c in group.elements():
                assert chi.value(F, group.add(a, b), c) == \
                    chi.value(F, a, c) * chi.value(F, b, c)
                assert chi.value(F, a, group.add(b, c)) == \
                    chi.value(F, a, b) * chi.value(F, a, c)


def test_tensor_object_strictness():
    ctx = super_ctx()
    V = GradedObject(ctx, [("v", (0,)), ("w", (1,))])
    U = unit_object(ctx)
    assert tensor_obj(U, V) == V
    assert tensor_obj(V, U) == V
    W = line_object(ctx, "x", (1,))
    assert tensor_obj(tensor_obj(V, W), V) == tensor_obj(V, tensor_obj(W, V))
    T = tensor_obj(V, W)
    assert T.dim == 2
    assert T.degree(0) == (1,) and T.degree(1) == (0,)
    # the product degrees are the same group elements a fresh object holds
    assert T == GradedObject(ctx, T.basis)


def test_tensor_and_direct_sum_reject_colliding_labels():
    # valid labels can collide through the tensor product:
    # a (x) b(x)c and a(x)b (x) c are both "a⊗b⊗c"
    ctx = super_ctx()
    V = GradedObject(ctx, [("a", (0,)), ("a⊗b", (1,))])
    W = GradedObject(ctx, [("b⊗c", (1,)), ("c", (0,))])
    with pytest.raises(InvalidStructureError):
        tensor_obj(V, W)
    with pytest.raises(InvalidStructureError):
        tensor_obj(V, GradedObject(zmod3_ctx(), [("d", (0,))]))
    with pytest.raises(InvalidStructureError):
        direct_sum_obj(V, GradedObject(zmod3_ctx(), [("d", (0,))]))


def test_morphism_degree_check():
    ctx = super_ctx()
    V = GradedObject(ctx, [("v", (0,)), ("w", (1,))])
    with pytest.raises(InvalidStructureError):
        GradedMorphism(V, V, rational_matrix(ctx.field, [[0, 1], [1, 0]]))
    f = GradedMorphism(V, V, rational_matrix(ctx.field, [[2, 0], [0, 3]]))
    assert not f.is_zero()


def test_tensor_morphism_functorial():
    ctx = zmod3_ctx()
    rng = random.Random(5)
    V = GradedObject(ctx, [("a", (0,)), ("b", (1,))])
    W = GradedObject(ctx, [("c", (2,)), ("d", (2,))])

    def rand_endo(X):
        F = ctx.field
        data = {}
        for i in range(X.dim):
            for j in range(X.dim):
                if X.degree(i) == X.degree(j):
                    data[(i, j)] = F.scalar(rng.randint(-3, 3)) + F.zeta() * rng.randint(-2, 2)
        return GradedMorphism.from_dict(X, X, data)

    f1, f2 = rand_endo(V), rand_endo(V)
    g1, g2 = rand_endo(W), rand_endo(W)
    assert (f1 @ g1) * (f2 @ g2) == (f1 * f2) @ (g1 * g2)


def test_braiding_super_sign():
    ctx = super_ctx()
    x = line_object(ctx, "x", (1,))
    s = braiding(x, x)
    assert s.matrix == rational_matrix(ctx.field, [[-1]])
    e = line_object(ctx, "e", (0,))
    assert braiding(e, x).matrix == rational_matrix(ctx.field, [[1]])


def test_braiding_unit_strict():
    ctx = super_ctx()
    V = GradedObject(ctx, [("v", (0,)), ("w", (1,))])
    U = unit_object(ctx)
    assert braiding(U, V) == identity_mor(V)
    assert braiding(V, U) == identity_mor(V)


def test_braiding_inverse():
    ctx = zmod3_ctx()
    V = GradedObject(ctx, [("a", (1,)), ("b", (2,))])
    W = GradedObject(ctx, [("c", (1,)), ("d", (0,))])
    s = braiding(V, W)
    si = braiding_inverse(V, W)
    assert si * s == identity_mor(tensor_obj(V, W))
    assert s * si == identity_mor(tensor_obj(W, V))


def test_braiding_naturality():
    ctx = zmod3_ctx()
    rng = random.Random(9)
    V = GradedObject(ctx, [("a", (0,)), ("b", (1,)), ("b2", (1,))])
    W = GradedObject(ctx, [("c", (2,)), ("d", (2,)), ("e", (0,))])

    def rand_endo(X, seed_shift):
        F = ctx.field
        data = {}
        for i in range(X.dim):
            for j in range(X.dim):
                if X.degree(i) == X.degree(j):
                    data[(i, j)] = F.scalar(rng.randint(-3, 3))
        return GradedMorphism.from_dict(X, X, data)

    f, g = rand_endo(V, 0), rand_endo(W, 1)
    assert braiding(V, W) * (f @ g) == (g @ f) * braiding(V, W)


def hexagon_holds(X, Y, Z):
    lhs1 = braiding(X, tensor_obj(Y, Z))
    rhs1 = (identity_mor(Y) @ braiding(X, Z)) * (braiding(X, Y) @ identity_mor(Z))
    lhs2 = braiding(tensor_obj(X, Y), Z)
    rhs2 = (braiding(X, Z) @ identity_mor(Y)) * (identity_mor(X) @ braiding(Y, Z))
    return lhs1 == rhs1 and lhs2 == rhs2


def braid_relation_holds(X, Y, Z):
    s12 = braiding(X, Y) @ identity_mor(Z)
    s23 = identity_mor(Y) @ braiding(X, Z)
    s12b = braiding(Y, Z) @ identity_mor(X)
    lhs = s12b * s23 * s12
    t23 = identity_mor(X) @ braiding(Y, Z)
    t12 = braiding(X, Z) @ identity_mor(Y)
    t23b = identity_mor(Z) @ braiding(X, Y)
    rhs = t23b * t12 * t23
    return lhs == rhs


def test_hexagons_and_braid_relation_small():
    for ctx in (super_ctx(), zmod3_ctx()):
        n = ctx.group.invariant_factors[0]
        lines = [line_object(ctx, "l%d" % d, (d,)) for d in range(n)]
        V = GradedObject(ctx, [("p", (0,)), ("q", (1,))])
        objs = lines + [V]
        for X in objs:
            for Y in objs:
                for Z in objs:
                    assert hexagon_holds(X, Y, Z)
                    assert braid_relation_holds(X, Y, Z)


def test_left_dual_zigzags():
    ctx = zmod3_ctx()
    V = GradedObject(ctx, [("a", (0,)), ("b", (1,)), ("c", (2,))])
    d = left_dual(V)
    assert d.space.degree(1) == (2,)
    # (ev (x) id) (id (x) coev) = id_V
    left = (d.ev @ identity_mor(V)) * (identity_mor(V) @ d.coev)
    assert left == identity_mor(V)
    # (id (x) ev) (coev (x) id) = id_{*V}
    right = (identity_mor(d.space) @ d.ev) * (d.coev @ identity_mor(d.space))
    assert right == identity_mor(d.space)


def test_dual_of_unit_is_unit():
    ctx = super_ctx()
    U = unit_object(ctx)
    assert left_dual(U).space == U
    assert left_dual(U).ev == identity_mor(U)


def test_dual_morphism_transpose_identities():
    ctx = zmod3_ctx()
    V = GradedObject(ctx, [("a", (1,)), ("b", (1,)), ("c", (0,))])
    W = GradedObject(ctx, [("x", (1,)), ("y", (0,))])
    F = ctx.field
    f = GradedMorphism.from_dict(V, W, {(0, 0): F.zeta(), (0, 1): F.scalar(2),
                                        (1, 2): F.scalar(-1)})
    dv, dw = left_dual(V), left_dual(W)
    fd = dual_morphism(f)
    # ev_W (f (x) id) = ev_V (id (x) *f)  on V (x) *W
    lhs = dw.ev * (f @ identity_mor(dw.space))
    rhs = dv.ev * (identity_mor(V) @ fd)
    assert lhs == rhs
    # (id (x) f) coev_V = (*f (x) id) coev_W  into *W?? -- the matching one:
    # (*f (x) id_V) coev_V? types: coev_V: 1 -> *V (x) V. (id_{*V} (x) f): -> *V (x) W
    lhs2 = (identity_mor(dv.space) @ f) * dv.coev
    rhs2 = (fd @ identity_mor(W)) * dw.coev
    assert lhs2 == rhs2


def test_phi_left_line_is_trivial():
    ctx = super_ctx()
    x = line_object(ctx, "x", (1,))
    y = line_object(ctx, "y", (1,))
    p = phi_left(x, y)
    assert p.matrix == Matrix.identity(ctx.field, 1)


def test_phi_left_inverse_and_unit():
    ctx = zmod3_ctx()
    V = GradedObject(ctx, [("a", (0,)), ("b", (1,))])
    W = GradedObject(ctx, [("c", (2,)), ("d", (1,)), ("e", (0,))])
    p = phi_left(V, W)
    assert p.matrix.rank() == V.dim * W.dim
    U = unit_object(ctx)
    assert phi_left(U, V) == identity_mor(left_dual(V).space)
    assert phi_left(V, U) == identity_mor(left_dual(V).space)


def test_evaluation_of_tensor_product_factors():
    # ev_{V (x) W} = ev_V (id (x) ev_W (x) id) (id (x) phi^{-1}) with our pairing
    ctx = zmod3_ctx()
    V = GradedObject(ctx, [("a", (0,)), ("b", (1,))])
    W = GradedObject(ctx, [("c", (2,)), ("d", (1,))])
    T = tensor_obj(V, W)
    dT, dV, dW = left_dual(T), left_dual(V), left_dual(W)
    p = phi_left(V, W)
    lhs = dT.ev
    inner = identity_mor(V) @ dW.ev @ identity_mor(dV.space)
    rhs = dV.ev * inner * (identity_mor(T) @ p.inverse())
    assert lhs == rhs


def test_coev_of_dual_identity():
    # ev_{*V} = *(coev_V) . phi^l_{*V, V}
    ctx = super_ctx()
    V = GradedObject(ctx, [("a", (0,)), ("b", (1,))])
    dV = left_dual(V)
    ddV = left_dual(dV.space)
    lhs = ddV.ev
    rhs = dual_morphism(dV.coev) * phi_left(dV.space, V)
    assert lhs == rhs


def test_psi_psibar_roundtrip():
    ctx = zmod3_ctx()
    rng = random.Random(3)
    X = GradedObject(ctx, [("x1", (0,)), ("x2", (1,))])
    Y = GradedObject(ctx, [("y1", (1,)), ("y2", (2,))])
    Z = GradedObject(ctx, [("z1", (2,)), ("z2", (0,)), ("z3", (2,))])
    dY = left_dual(Y)
    src = tensor_obj(X, dY.space)
    F = ctx.field
    data = {}
    for i in range(Z.dim):
        for j in range(src.dim):
            if Z.degree(i) == src.degree(j):
                data[(i, j)] = F.scalar(rng.randint(-3, 3))
    f = GradedMorphism.from_dict(src, Z, data)
    g = psi(f, X, Y)
    assert g.source == X and g.target == tensor_obj(Z, Y)
    f2 = psi_bar(g, Z, Y)
    assert f2 == f
    g2 = psi(f2, X, Y)
    assert g2 == g


def test_direct_sum_object():
    ctx = super_ctx()
    V = GradedObject(ctx, [("v", (0,))])
    W = GradedObject(ctx, [("v", (1,)), ("w", (0,))])
    S = direct_sum_obj(V, W)
    assert S.dim == 3
    assert S.basis[0][0] == "0:v" and S.basis[1][0] == "1:v"
    assert S.degree(1) == (1,)


def test_zero_morphism():
    ctx = super_ctx()
    V = GradedObject(ctx, [("v", (0,)), ("w", (1,))])
    z = GradedMorphism(V, V, Matrix.zeros(ctx.field, V.dim, V.dim))
    assert z.is_zero()
    assert z + identity_mor(V) == identity_mor(V)


# -- type checks hold under python -O ------------------------------------------

TYPE_CHECKS = textwrap.dedent("""
    from bhl.exactalg import CycloField, InvalidStructureError
    from bhl.gradedcat import (AbelianGroup, Bicharacter, Context,
                               braiding, braiding_inverse, identity_mor,
                               line_object, phi_left, psi, tensor_obj)
    Z2, Z3 = AbelianGroup([2]), AbelianGroup([3])
    ctx = Context(CycloField(1), Z2, Bicharacter(Z2, 2, [[1]]))
    other = Context(CycloField(3), Z3, Bicharacter(Z3, 3, [[1]]))
    X, Y = line_object(ctx, "x", (1,)), line_object(ctx, "y", (0,))
    W = line_object(other, "w", (1,))
    iX, iY = identity_mor(X), identity_mor(Y)
    cases = [lambda: iX * iY, lambda: iX * 1, lambda: iX + iY,
             lambda: iX - iY, lambda: braiding(X, W),
             lambda: braiding_inverse(X, W), lambda: phi_left(X, W),
             lambda: psi(identity_mor(tensor_obj(X, Y)), X, Y),
             lambda: Context(1, Z2, Bicharacter(Z2, 2, [[1]])),
             lambda: Context(CycloField(1), Z3, Bicharacter(Z2, 2, [[1]]))]
    for case in cases:
        try:
            case()
        except InvalidStructureError:
            continue
        raise SystemExit("no InvalidStructureError")
    print(len(cases))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_mistyped_morphisms_raise_without_asserts(flags):
    env = dict(os.environ, PYTHONPATH=str(
        Path(bhl.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable] + flags + ["-c", TYPE_CHECKS],
                         capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["10"]
