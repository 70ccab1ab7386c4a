"""Left comodules over a braided Hopf algebra and their category structure.

Comodules form a monoidal category acted on by the ambient graded category:
`act` tensors a comodule with a plain graded object on the right (the
object carries the trivial coaction).

Hom spaces are exact.  Into a cofree comodule H (x) L -- a comodule whose
coaction matrix is Delta and whose degrees are H's shifted by one degree d
(the regular comodule, and it acted on by a line) -- they are written down
by formula: Hom^H(A, H (x) L) = Hom(F(A), L) through f |-> (id (x) f) rho_A,
so the maps (id (x) E_a) rho_A, one for each basis vector a of A of degree
d, are a basis, with no elimination.  Into any other comodule they are the
kernel of the colinearity equations.  By the counit axiom,
sum_b eps(h_b) rho_A[(b, a), j] = [j = a], so where eps(h_b0) = 1 and eps
vanishes on the other basis vectors, row b0 of (id (x) E_a) rho_A is the
unit row e_a: the coend streams the dinaturality columns (., b0) of these
maps first, since each has a single entry in A's block (see `coend`).

The comodule axioms are checked exactly at construction, without forming
Kronecker products: (Delta (x) id) rho and (eps (x) id) rho are
`exactalg.kron_id_mul` products, (id (x) rho) rho is `exactalg.id_kron_mul`,
and `comodule_tensor` merges the two coactions through m and the braiding
the same way.
"""

from collections import defaultdict

from .exactalg import (Matrix, SparseEliminator, _null_space, id_kron_mul,
                       kron_id_mul, require)
from .gradedcat import (GradedMorphism, GradedObject, braiding,
                        direct_sum_obj, identity_mor, left_dual, tensor_obj,
                        unit_object)


class Comodule:
    """A left comodule: carrier V with coaction V -> H (x) V.

    `hopf` may be any structure with carrier/delta/eps (coalgebra data is
    enough for hom spaces; tensor and dual need the full Hopf structure).
    Comodule axioms are verified exactly at construction.
    """

    def __init__(self, hopf, carrier, coaction):
        H = hopf.carrier
        require(coaction.source == carrier, "coaction source mismatch")
        require(coaction.target == tensor_obj(H, carrier),
                "coaction target mismatch")
        rho, d = coaction.matrix, carrier.dim
        require(kron_id_mul(hopf.delta.matrix, d, rho)
                == id_kron_mul(H.dim, rho, rho),
                "coaction is not coassociative")
        require(kron_id_mul(hopf.eps.matrix, d, rho)
                == Matrix.identity(rho.field, d),
                "coaction violates the counit")
        self.hopf = hopf
        self.carrier = carrier
        self.coaction = coaction

    def _key(self):
        return (self.hopf, self.carrier, self.coaction)

    def __eq__(self, other):
        return isinstance(other, Comodule) and other._key() == self._key()

    def __hash__(self):
        return hash(("Comodule", self.carrier, self.coaction))

    def __repr__(self):
        return "Comodule(%r)" % (self.carrier,)


def regular_comodule(H):
    """H coacting on itself by the coproduct."""
    return Comodule(H, H.carrier, H.delta)


def trivial_comodule(H, V):
    """V with coaction u (x) id."""
    return Comodule(H, V, H.u @ identity_mor(V))


def unit_comodule(H):
    return trivial_comodule(H, unit_object(H.carrier.ctx))


def comodule_tensor(A, B):
    """Tensor product comodule; the coactions are merged through m and the
    ambient braiding."""
    require(A.hopf == B.hopf, "comodules over different Hopf algebras")
    Hd = A.hopf
    H, V, W = Hd.carrier, A.carrier, B.carrier
    # (m (x) id (x) id) (id (x) c_{V,H} (x) id) (rho_A (x) rho_B), whiskered
    swap = braiding(V, H).matrix @ Matrix.identity(H.ctx.field, W.dim)
    rho = kron_id_mul(Hd.m.matrix, V.dim * W.dim, id_kron_mul(
        H.dim, swap, A.coaction.matrix @ B.coaction.matrix))
    carrier = tensor_obj(V, W)
    return Comodule(Hd, carrier,
                    GradedMorphism(carrier, tensor_obj(H, carrier), rho))


def comodule_dual(A):
    """Left dual comodule on *V, twisting the coaction through the antipode."""
    Hd = A.hopf
    H = Hd.carrier
    V = A.carrier
    d = left_dual(V)
    iD = identity_mor(d.space)
    rho = (((Hd.S @ iD) * braiding(d.space, H)) @ d.ev) \
        * (iD @ A.coaction @ iD) \
        * (d.coev @ iD)
    return Comodule(Hd, d.space, rho)


def act(B, X):
    """The right action of the ambient category: B (x) X with X inert."""
    require(isinstance(X, GradedObject), "an action must be by a graded object")
    return Comodule(B.hopf, tensor_obj(B.carrier, X),
                    B.coaction @ identity_mor(X))


def direct_sum_comodule(A, B):
    """Block direct sum of two comodules."""
    require(A.hopf == B.hopf, "comodules over different Hopf algebras")
    Hd = A.hopf
    nH = Hd.carrier.dim
    dA, dB = A.carrier.dim, B.carrier.dim
    carrier = direct_sum_obj(A.carrier, B.carrier)
    n = dA + dB
    field = carrier.ctx.field
    rows = [{} for _ in range(nH * n)]
    for r, row in enumerate(A.coaction.matrix.data):
        h, v = divmod(r, dA)
        rows[h * n + v] = row
    for r, row in enumerate(B.coaction.matrix.data):
        h, w = divmod(r, dB)
        rows[h * n + dA + w] = {dA + c: x for c, x in row.items()}
    rho = GradedMorphism(carrier, tensor_obj(Hd.carrier, carrier),
                         Matrix.from_rows(field, rows, n))
    return Comodule(Hd, carrier, rho)


def cofree_degree(B):
    """The degree d if B is the cofree comodule H (x) L_d written in H's
    basis -- its coaction matrix is Delta's and its degree i is H's degree
    i plus d -- else None."""
    H = B.hopf.carrier
    V = B.carrier
    if B.coaction.matrix != B.hopf.delta.matrix:
        return None
    group = V.ctx.group
    d = group.add(V.degree(0), group.neg(H.degree(0)))
    if any(V.degree(i) != group.add(H.degree(i), d) for i in range(V.dim)):
        return None
    return d


def hom_space(A, B):
    """A basis of the comodule morphisms A -> B: a list of
    degree-preserving colinear GradedMorphisms F(A) -> F(B).  Into a
    cofree B it is (id (x) E_a) rho_A for the basis vectors a of A of B's
    shift degree, in order; otherwise the canonical null-space basis of
    the colinearity equations."""
    require(A.hopf.carrier == B.hopf.carrier,
            "comodules over different coalgebras")
    require(A.hopf.delta == B.hopf.delta and A.hopf.eps == B.hopf.eps,
            "comodules over different coalgebras")
    VA, VB = A.carrier, B.carrier
    dA, dB = VA.dim, VB.dim
    field = VA.ctx.field
    d = cofree_degree(B)
    if d is not None:
        # row h of (id (x) E_a) rho_A is row (h, a) of rho_A
        rho = A.coaction.matrix.data
        return [GradedMorphism(VA, VB, Matrix.from_rows(
                    field, [rho[h * dA + a] for h in range(dB)], dA))
                for a in range(dA) if VA.degree(a) == d]
    unknowns = {}
    for i in range(dB):
        for j in range(dA):
            if VB.degree(i) == VA.degree(j):
                unknowns[(i, j)] = len(unknowns)
    rows = defaultdict(dict)
    for r, c, v in B.coaction.matrix.items():
        h, i2 = divmod(r, dB)
        for j in range(dA):
            k = unknowns.get((c, j))
            if k is not None:
                eq = rows[(h, i2, j)]
                eq[k] = eq.get(k, field.zero) + v
    for r, c, v in A.coaction.matrix.items():
        h, j2 = divmod(r, dA)
        for i2 in range(dB):
            k = unknowns.get((i2, j2))
            if k is not None:
                eq = rows[(h, i2, c)]
                eq[k] = eq.get(k, field.zero) - v
    elim = SparseEliminator(field)
    for key in sorted(rows):
        vec = {k: v for k, v in rows[key].items() if v}
        elim.add(vec)
    _, basis = _null_space(field, len(unknowns), elim.rref_rows())
    entry = list(unknowns)  # unknown k -> its matrix entry (i, j)
    out = []
    for vec in basis:
        mat = [{} for _ in range(dB)]
        for k, v in vec.items():
            i, j = entry[k]
            mat[i][j] = v
        out.append(GradedMorphism(VA, VB, Matrix.from_rows(field, mat, dA)))
    return out


def is_colinear(f, A, B):
    """Whether f: F(A) -> F(B) is colinear: rho_B f = (id (x) f) rho_A,
    the right side taken as f times each H-slice of rho_A."""
    field, dA = f.matrix.field, A.carrier.dim
    rho = A.coaction.matrix.data
    rhs = []
    for h in range(A.hopf.carrier.dim):
        rhs.extend((f.matrix * Matrix.from_rows(
            field, rho[h * dA:(h + 1) * dA], dA)).data)
    return (B.coaction.matrix * f.matrix).data == tuple(rhs)


class FlagReport:
    """Named boolean checks (used where residual matrices do not apply)."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def passed(self):
        return all(ok for _, ok in self.checks)

    def failures(self):
        return [name for name, ok in self.checks if not ok]

    def __repr__(self):
        bad = self.failures()
        return "FlagReport(passed)" if not bad else "FlagReport(failed: %s)" % ", ".join(bad)
