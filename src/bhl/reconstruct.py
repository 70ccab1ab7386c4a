"""Recovering the full Hopf structure on a computed coend quotient.

Every structure map X is pinned by the equations X . B_t = C_t that its
universal property imposes through the block projections:

* counit:      eps . pi_B             = evaluation on F(B);
* coproduct:   Delta . pi_B           = (pi_B (x) pi_B) after inserting a
                                         coevaluation in the middle;
* unit:        the unit block's projection itself;
* product:     m . (pi_A (x) pi_B)    = pi_{A(x)B} after braiding the dual
                                         legs together;
* antipode:    S . pi_B               = the dual block's projection with the
                                         evaluation/coevaluation zig-zag,
               cross-checked against the convolution inverse of the
               identity on the reconstructed bialgebra.

The maps are read off, not solved for: the columns of the B_t are streamed
until they reach full rank (the regular block's projection, which is in
every group, already does after `check_regular_surjective`), X is C_J B_J^-1
on those columns J, and X . B_t == C_t is then verified exactly for every
t, so an inconsistent system still raises NoSolutionError
(`exactalg.read_off`).  The constraints are stated on matrices: pi_A (x)
pi_B, pi (x) pi and the maps that insert a coevaluation or braid the dual
legs are Kronecker products of matrices, so no graded tensor object of a
four-fold product is built; each map read off is wrapped as a
GradedMorphism, which checks its degrees.

A canonical comparison map from the original Hopf algebra is built from the
regular block and checked to be an isomorphism of Hopf algebras; each block
becomes a comodule over the quotient, and sample hom spaces on both sides
are compared dimension by dimension.
"""

from .braidedhopf import (BialgebraData, HopfAlgebraData, check_hopf,
                          check_hopf_morphism, solve_antipode)
from .coend import compute_coend, reconstruction_diagram
from .comodcat import (Comodule, FlagReport, comodule_dual,
                       comodule_tensor, hom_space, unit_comodule)
from .exactalg import EngineError, InvalidStructureError, Matrix, read_off
from .gradedcat import (GradedMorphism, braiding, braiding_inverse,
                        dual_morphism, dual_object, identity_mor, left_dual,
                        phi_left, psi, tensor_obj, unit_object)


class NotIsoError(EngineError):
    code = "NotIso"


class CrossCheckMismatchError(EngineError):
    code = "CrossCheckMismatch"


def _field(res):
    return res.diagram.hopf.carrier.ctx.field


def extract_counit(res):
    """eps: Q -> 1, pinned by eps . pi_B = ev_{F(B)} over every block."""
    constraints = [(res.pi(i).matrix, left_dual(B.carrier).ev.matrix)
                   for i, B in enumerate(res.diagram.blocks)]
    X = read_off(_field(res), constraints, (1, res.dim))
    return GradedMorphism(res.quotient, unit_object(res.quotient.ctx), X)


def extract_coproduct(res):
    """Delta: Q -> Q (x) Q, from splitting each small block along a
    coevaluation (the regular block alone already pins the solution)."""
    H = res.diagram.hopf
    q = res.dim
    field = _field(res)
    constraints = []
    for i, B in enumerate(res.diagram.blocks):
        if B.carrier.dim > H.carrier.dim:
            continue
        V = B.carrier
        d = left_dual(V)
        pi = res.pi(i).matrix
        insert = (Matrix.identity(field, V.dim) @ d.coev.matrix
                  @ Matrix.identity(field, d.space.dim))
        constraints.append((pi, (pi @ pi) * insert))
    X = read_off(field, constraints, (q * q, q))
    QQ = tensor_obj(res.quotient, res.quotient)
    return GradedMorphism(res.quotient, QQ, X)


def extract_unit(res):
    """u: 1 -> Q is the unit block's projection."""
    D = res.diagram
    return res.pi(D.index(D.derived(unit_comodule)))


def extract_product(res):
    """m: Q (x) Q -> Q from the regular/unit block pairs.

    For blocks A, B the product must close the square
    m . (pi_A (x) pi_B) = pi_{A(x)B} . (braid the dual legs into place),
    where the two dual legs are merged by the dual-pairing isomorphism.
    """
    D = res.diagram
    q = res.dim
    field = _field(res)
    reg, one = D.regular, D.index(D.derived(unit_comodule))
    constraints = []
    for a, b in ((reg, reg), (reg, one), (one, reg), (one, one)):
        VA, VB = D.blocks[a].carrier, D.blocks[b].carrier
        piAB = res.pi(D.index(D.derived(comodule_tensor, a, b)))
        mid = Matrix.identity(field, VA.dim) @ braiding(
            dual_object(VA), tensor_obj(VB, dual_object(VB))).matrix
        glue = (Matrix.identity(field, VA.dim * VB.dim)
                @ phi_left(VA, VB).matrix)
        rhs = piAB.matrix * glue * mid
        constraints.append((res.pi(a).matrix @ res.pi(b).matrix, rhs))
    X = read_off(field, constraints, (q, q * q))
    QQ = tensor_obj(res.quotient, res.quotient)
    return GradedMorphism(QQ, res.quotient, X)


def extract_antipode(res, bialgebra):
    """S: Q -> Q, two independent ways; they must agree exactly.

    The primary route pairs the regular block against its dual block with an
    evaluation/coevaluation zig-zag; the cross-check is the convolution
    inverse of the identity.  A mismatch raises CrossCheckMismatchError.
    """
    D = res.diagram
    V = D.hopf.carrier
    dV = left_dual(V)
    ddV = left_dual(dV.space)
    pi_dual = res.pi(D.index(D.derived(comodule_dual, D.regular)))
    start = identity_mor(tensor_obj(V, dV.space)) @ ddV.coev
    middle = identity_mor(V) @ pi_dual @ identity_mor(dV.space)
    unbraid = identity_mor(V) @ braiding_inverse(dV.space, res.quotient)
    finish = dV.ev @ identity_mor(res.quotient)
    target = finish * unbraid * middle * start
    X = read_off(_field(res), [(res.pi(D.regular).matrix, target.matrix)],
                 (res.dim, res.dim))
    S = GradedMorphism(res.quotient, res.quotient, X)
    S_conv = solve_antipode(bialgebra)
    if S != S_conv:
        raise CrossCheckMismatchError(
            "dual-block antipode disagrees with the convolution inverse")
    return S


def canonical_comparison(res):
    """h: H -> Q, the class of (x, counit-slot) in the regular block.

    Must be invertible -- this is the reconstruction isomorphism.
    """
    H = res.diagram.hopf
    h = res.pi(res.diagram.regular) * (identity_mor(H.carrier)
                                       @ dual_morphism(H.eps))
    if H.carrier.dim != res.dim or h.matrix.rank() < res.dim:
        raise NotIsoError("comparison map from the original Hopf algebra "
                          "is not invertible")
    return h


def comodule_over_quotient(res, quotient_hopf, B):
    """The image of a block under the equivalence: same carrier, coaction
    curried out of the block projection."""
    rho = psi(res.pi(res.diagram.index(B)), B.carrier, B.carrier)
    return Comodule(quotient_hopf, B.carrier, rho)


class Reconstruction:
    """The reconstructed Hopf algebra with its verification report."""

    def __init__(self, hopf, coend, quotient_hopf, comparison, checks):
        self.hopf = hopf
        self.coend = coend
        self.quotient_hopf = quotient_hopf
        self.comparison = comparison
        self.checks = checks

    @property
    def passed(self):
        return self.checks.passed


def verify_equivalence_samples(res, quotient_hopf):
    """Sample checks that block |-> (F(block), curried projection) is an
    equivalence onto comodules over the quotient: hom-space dimensions agree
    pair by pair, every small block becomes a genuine quotient comodule, and
    the inert right action is carried to the inert right action."""
    D = res.diagram
    reg, one = D.regular, D.index(D.derived(unit_comodule))
    checks = []
    q_of = {}
    for i, B in enumerate(D.blocks):
        if B.carrier.dim > D.hopf.carrier.dim:
            continue
        try:
            q_of[i] = comodule_over_quotient(res, quotient_hopf, B)
            ok = True
        except InvalidStructureError:
            ok = False
        checks.append(("block_comodule[%d]" % i, ok))
    for k, (a, b) in enumerate(((reg, reg), (one, reg), (one, one))):
        dim_H = len(D.hom_basis(a, b))
        checks.append(("hom_dims[%d]" % k,
                       dim_H == len(hom_space(q_of[a], q_of[b]))))
    for k, (ci, wi, X) in enumerate(D.acted):
        if ci not in q_of or wi not in q_of:
            continue
        # q_of[wi] is a verified comodule, so comparing coactions decides
        # q_of[ci] == act(q_of[wi], X) without re-checking the axioms
        checks.append(("action_carried[%d]" % k,
                       q_of[ci].coaction
                       == q_of[wi].coaction @ identity_mor(X)))
    return FlagReport(checks)


def reconstruct(H, diagram=None):
    """Full pipeline: coend, structure maps, comparison, equivalence checks."""
    res = compute_coend(diagram if diagram is not None
                        else reconstruction_diagram(H))
    res.modp_rows = None  # nothing is enlarged here: free the rank bound's rows
    res.check_regular_surjective()
    eps = extract_counit(res)
    delta = extract_coproduct(res)
    u = extract_unit(res)
    m = extract_product(res)
    bialgebra = BialgebraData(res.quotient, m, u, delta, eps)
    S = extract_antipode(res, bialgebra)
    quotient_hopf = HopfAlgebraData(res.quotient, m, u, delta, eps, S)
    hopf_report = check_hopf(quotient_hopf)
    h = canonical_comparison(res)
    morph_report = check_hopf_morphism(h, H, quotient_hopf)
    checks = [("quotient_is_hopf", hopf_report.passed),
              ("comparison_is_hopf_morphism", morph_report.passed)]
    equiv = verify_equivalence_samples(res, quotient_hopf)
    checks.extend(equiv.checks)
    residuals = res.residual_report()
    checks.append(("coend_residuals", residuals.passed))
    return Reconstruction(H, res, quotient_hopf, h, FlagReport(checks))
