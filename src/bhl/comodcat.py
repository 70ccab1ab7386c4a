"""Left comodules over a braided Hopf algebra and their category structure.

Comodules form a monoidal category acted on by the ambient graded category:
`act` tensors a comodule with a plain graded object on the right (the
object carries the trivial coaction).

The engine's hom spaces are those into a cofree comodule H (x) L -- a
comodule whose coaction matrix is Delta and whose degrees are H's shifted
by one degree d (the regular comodule, and it acted on by a line).  They
are written down by formula: Hom^H(A, H (x) L) = Hom(F(A), L) through
f |-> (id (x) f) rho_A, so the maps (id (x) E_a) rho_A, one for each basis
vector a of A of degree d, are a basis, with no colinearity equations
solved; the tests' oracle `hom_basis_by_elimination` solves them, for any
pair of comodules.  By the counit axiom,
sum_b eps(h_b) rho_A[(b, a), j] = [j = a], so the eps-weighted sum of the
rows of (id (x) E_a) rho_A is the unit row e_a: the coend's certificate
rests on this (see `coend`).

`Comodule(hopf, carrier, coaction)` stores its data and checks nothing.
Every comodule the engine builds -- the regular and trivial comodules,
tensor products, duals, the action and direct sums -- is a comodule by
theorem once H is a Hopf algebra (the CLI checks that once, at its entry)
and its operands are comodules; each constructor names the premise it
rests on.  Their coactions are chains of whiskered maps
(`gradedcat.chain`).
"""

from .exactalg import Matrix, require
from .gradedcat import (GradedMorphism, GradedObject, braiding, chain,
                        direct_sum_obj, left_dual, tensor_obj, unit_object)


class Comodule:
    """A left comodule: carrier V with coaction V -> H (x) V.

    `hopf` may be any structure with carrier/delta/eps (coalgebra data is
    enough for hom spaces; tensor and dual need the full Hopf structure).
    Nothing is checked here: whoever builds a comodule names the theorem
    that makes it one.
    """

    def __init__(self, hopf, carrier, coaction):
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
    """H coacting on itself by the coproduct: a comodule by H's coalgebra
    axioms (coassociativity and the counit)."""
    return Comodule(H, H.carrier, H.delta)


def trivial_comodule(H, V):
    """V with coaction u (x) id: a comodule because Delta u = u (x) u and
    eps u = 1 (H's unit_compat and unit_counit)."""
    return Comodule(H, V, chain(V, tensor_obj(H.carrier, V), (1, H.u, V.dim)))


def unit_comodule(H):
    return trivial_comodule(H, unit_object(H.carrier.ctx))


def comodule_tensor(A, B):
    """Tensor product comodule; the coactions are merged through m and the
    ambient braiding.  A comodule by the operands' own axioms, the
    naturality of the braiding, and Delta m = (m (x) m)(id (x) c (x) id)
    (Delta (x) Delta) and eps m = eps (x) eps (H's mult_compat and
    counit_compat)."""
    require(A.hopf == B.hopf, "comodules over different Hopf algebras")
    Hd = A.hopf
    H, V, W = Hd.carrier, A.carrier, B.carrier
    n, dV, dW = H.dim, V.dim, W.dim
    carrier = tensor_obj(V, W)
    # (m (x) id (x) id) (id (x) c_{V,H} (x) id) (rho_A (x) rho_B)
    return Comodule(Hd, carrier, chain(
        carrier, tensor_obj(H, carrier), (dV, B.coaction, 1),
        (1, A.coaction, n * dW), (n, braiding(V, H), dW), (1, Hd.m, dV * dW)))


def comodule_dual(A):
    """Left dual comodule on *V, twisting the coaction through the antipode.
    A comodule by the operand's own axioms, the zig-zag identities of ev
    and coev, and H's antipode axioms, which make S an anti-coalgebra map
    of the bialgebra H."""
    Hd = A.hopf
    H = Hd.carrier
    V = A.carrier
    d = left_dual(V)
    D, k = d.space, d.space.dim
    # (((S (x) id) c_{*V,H}) (x) ev) (id (x) rho (x) id) (coev (x) id)
    return Comodule(Hd, D, chain(
        D, tensor_obj(H, D), (1, d.coev, k), (k, A.coaction, k),
        (k * H.dim, d.ev, 1), (1, braiding(D, H), 1), (1, Hd.S, k)))


def act(B, X):
    """The right action of the ambient category: B (x) X with X inert, a
    comodule by B's own axioms (its coaction is rho_B (x) id)."""
    require(isinstance(X, GradedObject), "an action must be by a graded object")
    return Comodule(B.hopf, tensor_obj(B.carrier, X), act_coaction(B, X))


def act_coaction(B, X):
    """The coaction rho_B (x) id of B (x) X."""
    VX = tensor_obj(B.carrier, X)
    return chain(VX, tensor_obj(B.hopf.carrier, VX), (1, B.coaction, X.dim))


def direct_sum_comodule(A, B):
    """Block direct sum of two comodules, a comodule by the operands' own
    axioms (its coaction is rho_A (+) rho_B)."""
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
    """A basis of the comodule morphisms A -> B into a cofree B: the
    degree-preserving colinear GradedMorphisms (id (x) E_a) rho_A:
    F(A) -> F(B), for the basis vectors a of A of B's shift degree, in
    order.  InvalidStructureError if B is not cofree."""
    require(A.hopf.carrier == B.hopf.carrier,
            "comodules over different coalgebras")
    require(A.hopf.delta == B.hopf.delta and A.hopf.eps == B.hopf.eps,
            "comodules over different coalgebras")
    d = cofree_degree(B)
    require(d is not None, "hom spaces are built only into cofree comodules")
    VA, VB = A.carrier, B.carrier
    dA = VA.dim
    # row h of (id (x) E_a) rho_A is row (h, a) of rho_A
    rho = A.coaction.matrix.data
    return [GradedMorphism(VA, VB, Matrix.from_rows(
                VA.ctx.field, [rho[h * dA + a] for h in range(VB.dim)], dA))
            for a in range(dA) if VA.degree(a) == d]


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
