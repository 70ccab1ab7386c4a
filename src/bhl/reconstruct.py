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
                                         evaluation/coevaluation zig-zag.

Each map is read off its constraints by `exactalg.read_off`: the columns
of the B_t, each extended by the same column of C_t, are streamed into one
eliminator until the B parts reach full rank (the regular block's
projection, which is in every group, already does after
`check_regular_surjective`), X is read off the reduced rows, and
X . B_t == C_t is then verified exactly for every t, so an inconsistent
system still raises NoSolutionError.  The constraints are stated on
matrices, with no graded tensor object of a four-fold product: the
coproduct's (pi (x) pi)(id (x) coev (x) id) is summed entry by entry, the
other legs are whiskered (`exactalg.whiskered`, `gradedcat.chain`), and
pi_A (x) pi_B is the engine's one Kronecker product.  Each map read off is
wrapped as a GradedMorphism, which checks its degrees.

A canonical comparison map from the original Hopf algebra is built from the
regular block and checked to be an isomorphism of Hopf algebras, which
proves the quotient Hopf by transport of structure (see `reconstruct`);
each block becomes a comodule over the quotient, and sample hom spaces on
both sides are compared dimension by dimension.
"""

from itertools import product

from .braidedhopf import HopfAlgebraData, check_hopf, check_hopf_morphism
from .coend import compute_coend, reconstruction_diagram
from .comodcat import (Comodule, FlagReport, act_coaction, comodule_dual,
                       comodule_tensor, hom_space, unit_comodule)
from .exactalg import (EngineError, InvalidStructureError, Matrix, read_off,
                       whiskered)
from .gradedcat import (GradedMorphism, braiding, braiding_inverse, chain,
                        dual_morphism, dual_object, left_dual, phi_left, psi,
                        tensor_obj, unit_object)


class NotIsoError(EngineError):
    code = "NotIso"


def _field(res):
    return res.diagram.hopf.carrier.ctx.field


def extract_counit(res):
    """eps: Q -> 1, pinned by eps . pi_B = ev_{F(B)} over every block; ev is
    the 1 x d^2 row with ones at (i, i), written down as a matrix."""
    field = _field(res)
    dims = [B.carrier.dim for B in res.diagram.blocks]
    constraints = [(res.pi_matrix(i), Matrix.from_rows(
        field, [dict.fromkeys(range(0, d * d, d + 1), field.one)], d * d))
        for i, d in enumerate(dims)]
    X = read_off(field, constraints, (1, res.dim))
    return GradedMorphism(res.quotient, unit_object(res.quotient.ctx), X)


def _split_along_coev(pi, d):
    """(pi (x) pi) (id (x) coev (x) id) for the projection pi of a
    d-dimensional block, entry by entry: row (q1, q2), column (v, w) is
    sum_k pi[q1, (v, k)] pi[q2, (k, w)]."""
    q = pi.rows
    cols = pi.transpose().data
    rows = [{} for _ in range(q * q)]
    for v, k, w in product(range(d), repeat=3):
        vw = v * d + w
        for q1, x in cols[v * d + k].items():
            for q2, y in cols[k * d + w].items():
                row = rows[q1 * q + q2]
                row[vw] = row[vw] + x * y if vw in row else x * y
    return Matrix.from_rows(pi.field, [{c: v for c, v in row.items() if v}
                                       for row in rows], d * d)


def extract_coproduct(res):
    """Delta: Q -> Q (x) Q, from splitting each small block along a
    coevaluation (the regular block alone already pins the solution)."""
    H = res.diagram.hopf
    q = res.dim
    constraints = []
    for i, B in enumerate(res.diagram.blocks):
        if B.carrier.dim > H.carrier.dim:
            continue
        pi = res.pi_matrix(i)
        constraints.append((pi, _split_along_coev(pi, B.carrier.dim)))
    X = read_off(_field(res), constraints, (q * q, q))
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
    D, q = res.diagram, res.dim
    reg, one = D.regular, D.index(D.derived(unit_comodule))
    constraints = []
    for a, b in ((reg, reg), (reg, one), (one, reg), (one, one)):
        VA, VB = D.blocks[a].carrier, D.blocks[b].carrier
        try:
            ab = D.index(D.derived(comodule_tensor, a, b))
        except KeyError:  # m breaks a unit law, say
            raise InvalidStructureError(
                "the tensor product of blocks %d and %d is not a block of "
                "the diagram" % (a, b)) from None
        # pi_AB (id (x) phi) (id (x) c_{*A,B(x)*B}), whiskered on the
        # transposes: (X F)^T = F^T X^T
        dA, dB = VA.dim, VB.dim
        mid = braiding(dual_object(VA), tensor_obj(VB, dual_object(VB)))
        rhs = whiskered(dA, mid.matrix.transpose(), 1, whiskered(
            dA * dB, phi_left(VA, VB).matrix.transpose(), 1,
            res.pi_matrix(ab).transpose()))
        constraints.append((res.pi_matrix(a) @ res.pi_matrix(b),
                            rhs.transpose()))
    X = read_off(_field(res), constraints, (q, q * q))
    QQ = tensor_obj(res.quotient, res.quotient)
    return GradedMorphism(QQ, res.quotient, X)


def extract_antipode(res):
    """S: Q -> Q, pairing the regular block against its dual block with an
    evaluation/coevaluation zig-zag."""
    D = res.diagram
    V = D.hopf.carrier
    n = V.dim
    dV = left_dual(V)
    ddV = left_dual(dV.space)
    pi_dual = res.pi(D.index(D.derived(comodule_dual, D.regular)))
    # (ev (x) id) (id (x) c^-1_{*V,Q}) (id (x) pi_dual (x) id) (id (x) coev)
    target = chain(tensor_obj(V, dV.space), res.quotient, (n * n, ddV.coev, 1),
                   (n, pi_dual, n), (n, braiding_inverse(dV.space, res.quotient), 1),
                   (1, dV.ev, res.dim))
    X = read_off(_field(res), [(res.pi_matrix(D.regular), target.matrix)],
                 (res.dim, res.dim))
    return GradedMorphism(res.quotient, res.quotient, X)


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


def comodule_over_quotient(res, quotient_hopf, B):
    """The image of a block under the equivalence: same carrier, coaction
    rho = psi(pi_B) curried out of the block projection.

    A comodule for a block B of dimension at most dim H whose projection
    pinned quotient_hopf's counit and coproduct: its premises are
    eps . pi_B = ev_{F(B)} and Delta . pi_B = (pi_B (x) pi_B)(id (x) coev (x)
    id), which `extract_counit` and `extract_coproduct` verify exactly
    (`read_off` checks X . B_t = C_t for every constraint t) before
    `reconstruct` calls this.  Entry by entry, (eps (x) id) rho is then the
    identity and (Delta (x) id) rho = (id (x) rho) rho both read
    sum_k pi_B[q1, (v, k)] pi_B[q2, (k, w)] at ((q1, q2, w), v)."""
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
    premises `comodule_over_quotient` names, which the extraction verified,
    so its flag records the block), and the inert right action is carried
    to the inert right action."""
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
    res.check_regular_surjective()
    eps = extract_counit(res)
    delta = extract_coproduct(res)
    u = extract_unit(res)
    m = extract_product(res)
    S = extract_antipode(res)
    quotient_hopf = HopfAlgebraData(res.quotient, m, u, delta, eps, S)
    h = canonical_comparison(res)
    morph_report = check_hopf_morphism(h, H, quotient_hopf)
    checks = [("quotient_is_hopf", morph_report.passed
               or check_hopf(quotient_hopf).passed),
              ("comparison_is_hopf_morphism", morph_report.passed)]
    checks += verify_equivalence_samples(res, quotient_hopf).checks
    checks.append(("coend_residuals", res.residual_report().passed))
    return Reconstruction(H, res, quotient_hopf, h, FlagReport(checks))
