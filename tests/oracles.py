"""Oracles for the reconstruction theorem's hypotheses, and test inputs.

The relative coend reconstructs H only when the comodule category is a
monoidal module category over the ambient graded category and the forgetful
functor F has a monoidal section.  The engine relies on both without
checking them; these functions check them exactly on finite samples, and
build the prebalancing exchange that the balancing relations encode and
psi_bar, the map the certified coend's candidate is built from entrywise,
and `hom_basis_by_elimination`, the oracle for the hom bases that
`hom_space` writes down by formula.  `verify_presentation_by_product` is
the oracle for `QuotientPresentation.verify`, which reads the projection at
the free coordinates instead of forming the product P * E_free.  `parse_scalar_by_fractions` and
`format_scalar_by_fractions` read and write scalar literals with
`fractions.Fraction` (held to the int digit limit), the oracle for the int-only `parse_scalar` and
`format_scalar`.  `solve_product_constraints` solves sum_t A_t X B_t = C
for an unknown map X by eliminating one equation per entry, the oracle for
`read_off` and `solve_antipode`.  `coend_by_elimination` divides every
relation column of a coend diagram out by exact elimination, the oracle
for the certified `compute_coend`.  `stability_by_kappa` computes the
comparison kappa between a coend and an enlargement's, the oracle for
`check_stability`, which reports its flags by lemma.  `kron` is the
Kronecker product entry by entry, and the `*_by_kron` functions state the
axiom residuals, induced braidings, comodule coactions and the coproduct's
constraint as products of Kronecker products: the oracles for
`exactalg.whiskered` and the chains of `gradedcat.chain` that replace them;
`check_comodule_by_kron` states the comodule axioms that way, the oracle
for the comodules built by theorem.
`extract_by_read_off` reads the quotient's counit, coproduct, product and
antipode off the constraints of every block pair that pins them, each
verified against all of its constraints by `read_off`: the oracle for
`reconstruct`, which reads each map through one section of the regular
block's projection.
`comparison_by_chain` composes the comparison h = pi_reg (id (x) *eps),
the oracle for `canonical_comparison`, which takes h = P_F^-1 from the
coend's certificate.  `equivalence_by_hom_spaces` computes the equivalence
samples, each block over the quotient by `comodule_over_quotient` (psi of
its projection) and every hom space by `hom_basis_by_elimination`: the
oracle for `verify_equivalence_samples`, which reports them by transport
along h.  `null_space` reads the canonical null space off reduced rows,
and `psi` curries a map's dual leg, the inverse of `psi_bar`.
`perfbench_module` loads a module of the benchmark, whose generator builds
the seeded spec files; `seed0_spec_datum` reads one of them as the CLI does.
"""

import importlib.util
import json
import re
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from bhl.cli import datum_from_spec
from bhl.coend import _block_at
from bhl.comodcat import (Comodule, FlagReport, act, act_coaction,
                          comodule_dual, comodule_tensor, trivial_comodule,
                          unit_comodule)
from bhl.exactalg import (Matrix, NonUniqueError, NoSolutionError,
                          QuotientPresentation, Scalar, SparseEliminator,
                          read_off, require)
from bhl.braidedhopf import CheckReport
from bhl.gradedcat import (GradedMorphism, braiding, braiding_inverse, chain,
                           dual_morphism, dual_object, identity_mor,
                           left_dual, phi_left, tensor_obj, unit_object)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py, imported from its file (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seed0_spec_datum(base, dense):
    """The benchmark's seed-0 spec of `base`, read as the CLI does."""
    doc = json.loads(perfbench_module("gen").generate(base, 0, dense))
    return datum_from_spec(doc)[0]


def kron(A, B):
    """The Kronecker product A (x) B, row-major on both indices, entry by
    entry (as `Matrix.__matmul__` defines it): the oracle for
    `exactalg.whiskered` and the chains of `gradedcat.chain`."""
    require(A.field is B.field, "Kronecker product of matrices over %r and %r"
            % (A.field, B.field))
    bc = B.cols
    return Matrix.from_rows(A.field, [
        {j * bc + l: v * w for j, v in arow.items() for l, w in brow.items()}
        for arow in A.data for brow in B.data], A.cols * bc)


def tensor(f, *rest):
    """f (x) g (x) ... of graded morphisms, by `kron`."""
    for g in rest:
        f = GradedMorphism(tensor_obj(f.source, g.source),
                           tensor_obj(f.target, g.target),
                           kron(f.matrix, g.matrix))
    return f


def check_hopf_by_kron(H):
    """The residuals of `check_hopf`, each side a product of Kronecker
    products, as the engine once formed them."""
    i = identity_mor(H.carrier)
    sigma = braiding(H.carrier, H.carrier)
    ue = H.u * H.eps
    return CheckReport([
        ("associativity", H.m * tensor(H.m, i) - H.m * tensor(i, H.m)),
        ("unit_left", H.m * tensor(H.u, i) - i),
        ("unit_right", H.m * tensor(i, H.u) - i),
        ("coassociativity",
         tensor(H.delta, i) * H.delta - tensor(i, H.delta) * H.delta),
        ("counit_left", tensor(H.eps, i) * H.delta - i),
        ("counit_right", tensor(i, H.eps) * H.delta - i),
        ("mult_compat", H.delta * H.m - tensor(H.m, H.m)
         * tensor(i, sigma, i) * tensor(H.delta, H.delta)),
        ("unit_compat", H.delta * H.u - tensor(H.u, H.u)),
        ("counit_compat", H.eps * H.m - tensor(H.eps, H.eps)),
        ("unit_counit", H.eps * H.u - identity_mor(unit_object(H.carrier.ctx))),
        ("antipode_left", H.m * tensor(H.S, i) * H.delta - ue),
        ("antipode_right", H.m * tensor(i, H.S) * H.delta - ue),
    ])


def check_yd_by_kron(yd):
    """The residuals of `check_yd` by Kronecker products."""
    Hd = yd.hopf
    H, V = Hd.carrier, yd.carrier
    a, rho = yd.action, yd.coaction
    iH, iV = identity_mor(H), identity_mor(V)
    lhs = (tensor(Hd.m, a) * tensor(iH, braiding(H, H), iV)
           * tensor(Hd.delta, rho))
    rhs = (tensor(Hd.m, iV) * tensor(iH, braiding(V, H)) * tensor(rho * a, iH)
           * tensor(iH, braiding(H, V)) * tensor(Hd.delta, iV))
    return CheckReport([
        ("module_assoc", a * tensor(Hd.m, iV) - a * tensor(iH, a)),
        ("module_unit", a * tensor(Hd.u, iV) - iV),
        ("comodule_coassoc",
         tensor(Hd.delta, iV) * rho - tensor(iH, rho) * rho),
        ("comodule_counit", tensor(Hd.eps, iV) * rho - iV),
        ("yd_compat", lhs - rhs),
    ])


def yd_braiding_by_kron(V, W):
    return (tensor(W.action, identity_mor(V.carrier))
            * tensor(identity_mor(V.hopf.carrier),
                     braiding(V.carrier, W.carrier))
            * tensor(V.coaction, identity_mor(W.carrier)))


def yd_braiding_inverse_by_kron(V, W):
    H = V.hopf.carrier
    Sm1 = GradedMorphism(H, H, V.hopf.S.matrix.inverse())
    iV, iW = identity_mor(V.carrier), identity_mor(W.carrier)
    return (braiding_inverse(V.carrier, W.carrier)
            * tensor(W.action, iV)
            * tensor(braiding_inverse(H, W.carrier), iV)
            * tensor(iW, Sm1, iV)
            * tensor(iW, V.coaction))


def braid_relation_by_kron(c, V):
    """(c (x) id)(id (x) c)(c (x) id) - (id (x) c)(c (x) id)(id (x) c) for a
    braiding c of V with itself."""
    iV = identity_mor(V)
    return (tensor(c, iV) * tensor(iV, c) * tensor(c, iV)
            - tensor(iV, c) * tensor(c, iV) * tensor(iV, c))


def check_comodule_by_kron(C):
    """The comodule axioms of C, each side a product of Kronecker products:
    the oracle for the comodules that `comodcat` and
    `reconstruct.comodule_over_quotient` build (`Comodule` checks
    nothing)."""
    Hd, rho, iV = C.hopf, C.coaction, identity_mor(C.carrier)
    return CheckReport([
        ("coassociativity", tensor(Hd.delta, iV) * rho
         - tensor(identity_mor(Hd.carrier), rho) * rho),
        ("counit", tensor(Hd.eps, iV) * rho - iV),
    ])


def comodule_tensor_by_kron(A, B):
    """The coaction of A (x) B: (m (x) id) (id (x) c_{V,H} (x) id)
    (rho_A (x) rho_B)."""
    H = A.hopf
    iV, iW = identity_mor(A.carrier), identity_mor(B.carrier)
    return (tensor(H.m, iV, iW)
            * tensor(identity_mor(H.carrier), braiding(A.carrier, H.carrier), iW)
            * tensor(A.coaction, B.coaction))


def comodule_dual_by_kron(A):
    """The coaction of the dual comodule on *V."""
    Hd = A.hopf
    d = left_dual(A.carrier)
    iD = identity_mor(d.space)
    return (tensor(tensor(Hd.S, iD) * braiding(d.space, Hd.carrier), d.ev)
            * tensor(iD, A.coaction, iD) * tensor(d.coev, iD))


def coproduct_constraint_by_kron(pi, V):
    """(pi (x) pi) (id (x) coev (x) id), the coproduct's constraint on a
    block projection pi of the block carried by V."""
    field = pi.field
    d = left_dual(V)
    insert = kron(kron(Matrix.identity(field, V.dim), d.coev.matrix),
                  Matrix.identity(field, d.space.dim))
    return kron(pi, pi) * insert


def split_along_coev(pi, d):
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


def counit_by_read_off(res):
    """eps: Q -> 1, read off eps . pi_B = ev_{F(B)} over every block; ev is
    the 1 x d^2 row with ones at (i, i)."""
    field = res.quotient.ctx.field
    constraints = []
    for i, B in enumerate(res.diagram.blocks):
        d = B.carrier.dim
        constraints.append((res.pi_matrix(i), Matrix.from_rows(
            field, [dict.fromkeys(range(0, d * d, d + 1), field.one)], d * d)))
    return GradedMorphism(res.quotient, unit_object(res.quotient.ctx),
                          read_off(field, constraints, (1, res.dim)))


def coproduct_by_read_off(res):
    """Delta: Q -> Q (x) Q, read off Delta . pi_B = (pi_B (x) pi_B)(id (x)
    coev (x) id) over every block of dimension at most dim H."""
    q = res.dim
    constraints = []
    for i, B in enumerate(res.diagram.blocks):
        if B.carrier.dim <= res.diagram.hopf.carrier.dim:
            pi = res.pi_matrix(i)
            constraints.append((pi, split_along_coev(pi, B.carrier.dim)))
    X = read_off(res.quotient.ctx.field, constraints, (q * q, q))
    return GradedMorphism(res.quotient, tensor_obj(res.quotient, res.quotient),
                          X)


def product_by_read_off(res):
    """m: Q (x) Q -> Q, read off m . (pi_A (x) pi_B) = pi_{A(x)B} (id (x)
    phi)(id (x) c_{*A,B(x)*B}) over the regular/unit block pairs (A, B)."""
    D, q = res.diagram, res.dim
    field = res.quotient.ctx.field
    reg, one = D.regular, D.index(D.derived(unit_comodule))
    constraints = []
    for a, b in ((reg, reg), (reg, one), (one, reg), (one, one)):
        VA, VB = D.blocks[a].carrier, D.blocks[b].carrier
        ab = D.index(D.derived(comodule_tensor, a, b))
        mid = braiding(dual_object(VA), tensor_obj(VB, dual_object(VB)))
        rhs = (res.pi_matrix(ab)
               * kron(Matrix.identity(field, VA.dim * VB.dim),
                      phi_left(VA, VB).matrix)
               * kron(Matrix.identity(field, VA.dim), mid.matrix))
        constraints.append((kron(res.pi_matrix(a), res.pi_matrix(b)), rhs))
    QQ = tensor_obj(res.quotient, res.quotient)
    return GradedMorphism(QQ, res.quotient,
                          read_off(field, constraints, (q, q * q)))


def antipode_by_read_off(res):
    """S: Q -> Q, read off S . pi_reg = the dual block's projection in the
    evaluation/coevaluation zig-zag."""
    D = res.diagram
    V = D.hopf.carrier
    n = V.dim
    dV = left_dual(V)
    pi_dual = res.pi(D.index(D.derived(comodule_dual, D.regular)))
    target = chain(tensor_obj(V, dV.space), res.quotient,
                   (n * n, left_dual(dV.space).coev, 1), (n, pi_dual, n),
                   (n, braiding_inverse(dV.space, res.quotient), 1),
                   (1, dV.ev, res.dim))
    X = read_off(res.quotient.ctx.field,
                 [(res.pi_matrix(D.regular), target.matrix)],
                 (res.dim, res.dim))
    return GradedMorphism(res.quotient, res.quotient, X)


def extract_by_read_off(res):
    """(eps, Delta, m, S) of the coend quotient, each read off the
    constraints of its blocks and verified against all of them."""
    return (counit_by_read_off(res), coproduct_by_read_off(res),
            product_by_read_off(res), antipode_by_read_off(res))


def is_comodule_morphism(f, A, B):
    """Exact colinearity residual of f: F(A) -> F(B)."""
    iH = identity_mor(A.hopf.carrier)
    return (B.coaction * f - (iH @ f) * A.coaction).is_zero()


def null_space(field, ncols, rref_rows):
    """(free, basis): the canonical null space of reduced rows on `ncols`
    coordinates.  `free` lists the coordinates that are no row's pivot, in
    order; basis[k] is the sparse vector {coordinate: value} that is 1 at
    free[k] and -row_p[free[k]] at each pivot p."""
    pivots = {p for p, _ in rref_rows}
    free = [j for j in range(ncols) if j not in pivots]
    free_pos = {j: k for k, j in enumerate(free)}
    one = field.one
    basis = [{j: one} for j in free]
    for p, row in rref_rows:
        for j, v in row.items():
            if j != p:
                basis[free_pos[j]][p] = -v
    return free, basis


def hom_basis_by_elimination(A, B):
    """A basis of the comodule maps A -> B, by exact elimination: the null
    space of f |-> rho_B f - (id (x) f) rho_A on the degree-preserving
    maps F(A) -> F(B), one unknown per matrix unit E_ij."""
    VA, VB = A.carrier, B.carrier
    field = VA.ctx.field
    iH = Matrix.identity(field, A.hopf.carrier.dim)
    units = [(i, j) for i in range(VB.dim) for j in range(VA.dim)
             if VB.degree(i) == VA.degree(j)]
    columns = []
    for i, j in units:
        E = Matrix.from_dict(field, VB.dim, VA.dim, {(i, j): field.one})
        R = B.coaction.matrix * E - (iH @ E) * A.coaction.matrix
        columns.append({r * R.cols + c: v for r, c, v in R.items()})
    n_eq = A.hopf.carrier.dim * VB.dim * VA.dim
    elim = SparseEliminator(field)
    for row in Matrix.from_rows(field, columns, n_eq).transpose().data:
        elim.add(dict(row))
    _, basis = null_space(field, len(units), elim.rref_rows())
    return [GradedMorphism(VA, VB, Matrix.from_dict(
                field, VB.dim, VA.dim, {units[k]: v for k, v in vec.items()}))
            for vec in basis]


def _default_l(B, X):
    return identity_mor(tensor_obj(B.carrier, X))


def check_monoidal_module(H, comodules, objects, l=None):
    """The comodule category as a module category over the ambient one.

    Verifies, for the given test comodules B and objects X, Y: the structure
    map l_{B,X}: F(B (|) X) -> F(B) (x) X is colinear into act(B, X), is the
    identity when either argument is the unit, and satisfies the strict
    mixed-associativity coherence.  `l` defaults to the identity (the module
    structure is strict); a perturbed l makes the report fail.
    """
    l = l or _default_l
    checks = []
    unit = unit_object(H.carrier.ctx)
    for bi, B in enumerate(comodules):
        lBu = l(B, unit)
        checks.append(("unit_object_law[%d]" % bi,
                       (lBu - identity_mor(B.carrier)).is_zero()))
        for xi, X in enumerate(objects):
            lBX = l(B, X)
            BX = act(B, X)
            checks.append(("l_colinear[%d,%d]" % (bi, xi),
                           lBX.source == BX.carrier
                           and is_comodule_morphism(lBX, BX, BX)))
            for yi, Y in enumerate(objects):
                lhs = (l(B, X) @ identity_mor(Y)) * l(act(B, X), Y)
                rhs = l(B, tensor_obj(X, Y))
                checks.append(("mixed_assoc[%d,%d,%d]" % (bi, xi, yi),
                               (lhs - rhs).is_zero()))
    return FlagReport(checks)


def check_section(H, objects):
    """The trivial-coaction functor G is a strict monoidal section of the
    forgetful functor F: F(G(V)) = V on the nose and G(V (x) W) equals
    G(V) (x) G(W) as comodules."""
    checks = []
    unitc = unit_comodule(H)
    checks.append(("unit_comodule", trivial_comodule(H, unit_object(H.carrier.ctx)) == unitc))
    for vi, V in enumerate(objects):
        GV = trivial_comodule(H, V)
        checks.append(("FG_identity[%d]" % vi, GV.carrier == V))
        checks.append(("G_unit_absorb[%d]" % vi,
                       comodule_tensor(unitc, GV) == GV
                       and comodule_tensor(GV, unitc) == GV))
        for wi, W in enumerate(objects):
            GW = trivial_comodule(H, W)
            lhs = comodule_tensor(GV, GW)
            rhs = trivial_comodule(H, tensor_obj(V, W))
            checks.append(("G_monoidal[%d,%d]" % (vi, wi), lhs == rhs))
    return FlagReport(checks)


def prebalancing(A, B, X):
    """The canonical invertible exchange

        F(B) (x) *F(A (|) X)  ->  F(B (|) *X) (x) *F(A)

    for comodules A, B over the same Hopf algebra and an object X of the
    ambient graded category.  The forgetful functor is the identity on
    carriers, so the exchange is just the dual-of-a-tensor identification
    on the right leg; it is the map along which a glued block's ambient
    coordinates correspond to its anchor's."""
    require(A.hopf == B.hopf,
            "prebalancing needs comodules over the same Hopf algebra")
    return identity_mor(B.carrier) @ phi_left(A.carrier, X).inverse()


def psi(f, X, Y):
    """Turn f: X (x) *Y -> Z into X -> Z (x) Y (currying the right dual leg)."""
    dual = left_dual(Y)
    require(f.source == tensor_obj(X, dual.space),
            "psi: source must be X (x) *Y")
    return chain(X, tensor_obj(f.target, Y), (X.dim, dual.coev, 1),
                 (1, f, Y.dim))


def psi_bar(g, Z, Y):
    """Turn g: X -> Z (x) Y back into X (x) *Y -> Z (inverse of psi)."""
    dual = left_dual(Y)
    require(g.target == tensor_obj(Z, Y), "psi_bar: target must be Z (x) Y")
    return (identity_mor(Z) @ dual.ev) * (g @ identity_mor(dual.space))


def verify_presentation_by_product(pres):
    """QuotientPresentation.verify with the identity on the free
    coordinates checked by forming projection x E_free, E_free the ambient
    x quotient matrix whose column k is e_(free k)."""
    q, amb = pres.quotient_dim, pres.ambient_dim
    require(pres.projection.rows == q and pres.projection.cols == amb,
            "projection is not quotient x ambient")
    require(len(set(pres.free)) == q and all(0 <= j < amb for j in pres.free),
            "free coordinates are not distinct ambient coordinates")
    field = pres.projection.field
    e_free = [{} for _ in range(amb)]
    for k, j in enumerate(pres.free):
        e_free[j][k] = field.one
    require(pres.projection * Matrix.from_rows(field, e_free, q)
            == Matrix.identity(field, q),
            "projection is not the identity on the free coordinates")


def solve_product_constraints(field, constraint_groups, shape):
    """Solve for X of the given (rows, cols) shape, exactly.

    Each constraint group is (terms, C) with terms a list of (A, B) pairs,
    requiring  sum_t  A_t * X * B_t  =  C.  Raises NoSolutionError if the
    system is inconsistent and NonUniqueError if X is underdetermined.
    """
    r, c = shape
    n_unknowns = r * c
    rhs_col = n_unknowns
    elim = SparseEliminator(field)
    for terms, C in constraint_groups:
        for A, B in terms:
            require(A.cols == r and B.rows == c, "constraint shape mismatch")
            require(C.rows == A.rows and C.cols == B.cols,
                    "constraint right side shape mismatch")
        # within one term every (i, j) gives its own unknown, so entries
        # can only cancel where two terms meet
        sparse_terms = [(A.data, B.transpose().data) for A, B in terms]
        summed = len(terms) > 1
        for p, crow in enumerate(C.data):
            for q in range(C.cols):
                row = {}
                for arows, bcols in sparse_terms:
                    bcol = bcols[q]
                    if not bcol:
                        continue
                    for i, a in arows[p].items():
                        base = i * c
                        for j, b in bcol.items():
                            k = base + j
                            if k in row:
                                row[k] = row[k] + a * b
                            else:
                                row[k] = a * b
                if summed:
                    row = {k: v for k, v in row.items() if v}
                rhs = crow.get(q)
                if rhs is not None:
                    row[rhs_col] = -rhs
                if row:
                    elim.add(row)
    if rhs_col in elim.rows:
        raise NoSolutionError("constraints are inconsistent")
    if elim.rank < n_unknowns:
        raise NonUniqueError("constraints leave %d free parameters"
                             % (n_unknowns - elim.rank))
    out = [{} for _ in range(r)]
    for p, row in elim.rref_rows():
        v = row.get(rhs_col)
        if v is not None:
            i, j = divmod(p, c)
            out[i][j] = -v
    return Matrix.from_rows(field, out, c)


def coend_by_elimination(diagram):
    """The canonical presentation of the coend of `diagram`, by exact
    elimination of every relation column as the `bhl.coend` module
    docstring defines them, and the projection read off the null space of
    the reduced relations.  Block B's coordinates (i, j) of F(B) (x) *F(B)
    follow those of the blocks before it.  Dinaturality gives, for every
    map f: A -> B of an eliminated hom basis between any two blocks and
    every basis pair (a, b), the column
    sum_i f[i,a] e_(B,(i,b)) - sum_j f[b,j] e_(A,(a,j)); balancing gives
    e_(C,p) - e_(W,p) at every coordinate p of a block C glued onto its
    anchor W."""
    blocks = diagram.blocks
    field = diagram.hopf.carrier.ctx.field
    offsets, total = [], 0
    for B in blocks:
        offsets.append(total)
        total += B.carrier.dim ** 2
    elim = SparseEliminator(field)
    for ci, wi in diagram.balance:
        for p in range(blocks[wi].carrier.dim ** 2):
            elim.add({offsets[ci] + p: field.one, offsets[wi] + p: -field.one})
    for ai, A in enumerate(blocks):
        for bi, B in enumerate(blocks):
            dA, dB = A.carrier.dim, B.carrier.dim
            for f in hom_basis_by_elimination(A, B):
                entries = list(f.matrix.items())  # (row, column, value)
                for a in range(dA):
                    for b in range(dB):
                        col = {}
                        for i, j, v in entries:
                            if j == a:
                                p = offsets[bi] + i * dB + b
                                col[p] = col.get(p, field.zero) + v
                            if i == b:
                                p = offsets[ai] + a * dA + j
                                col[p] = col.get(p, field.zero) - v
                        elim.add(col)
    free, projection = null_space(field, total, elim.rref_rows())
    return QuotientPresentation(total, free,
                                Matrix.from_rows(field, projection, total))


def stability_by_kappa(small, big):
    """Compare the coends of a diagram and an enlargement of it.

    The comparison sends each small quotient basis vector, at its free
    ambient coordinate, through the big projection; it must be an
    isomorphism commuting with every shared universal map.  The oracle
    for `coend.check_stability`, which reports these flags by the lemma
    that both projections are P_F^-1 P of one candidate P.
    """
    checks = [("dims_match", small.dim == big.dim)]
    shared = [big.diagram.index(B) for B in small.diagram.blocks]
    Pb = big.presentation.projection
    Pb_cols = Pb.transpose().data
    kappa = Matrix.from_rows(
        Pb.field, [Pb_cols[big.offsets[shared[i]] + q] for i, q in
                   (_block_at(small.offsets, p) for p in small.presentation.free)],
        big.dim).transpose()
    checks.append(("comparison_iso",
                   small.dim == big.dim and kappa.rank() == small.dim))
    for i, j in enumerate(shared):
        lhs = kappa * small.pi_matrix(i)
        rhs = big.pi_matrix(j)
        checks.append(("intertwines_pi[%d]" % i, lhs == rhs))
    return FlagReport(checks)


def comparison_by_chain(res):
    """h: H -> Q composed as pi_reg (id (x) *eps), the class of (x,
    counit-slot) in the regular block."""
    H = res.diagram.hopf
    return chain(H.carrier, res.quotient,
                 (H.carrier.dim, dual_morphism(H.eps), 1),
                 (1, res.pi(res.diagram.regular), 1))


def comodule_over_quotient(res, quotient_hopf, B):
    """The image of a block under the equivalence: same carrier, coaction
    rho = psi(pi_B) curried out of the block projection.

    Its premises are eps . pi_B = ev_{F(B)} and Delta . pi_B = (pi_B (x)
    pi_B)(id (x) coev (x) id): entry by entry, (eps (x) id) rho is then the
    identity and (Delta (x) id) rho = (id (x) rho) rho both read
    sum_k pi_B[q1, (v, k)] pi_B[q2, (k, w)] at ((q1, q2, w), v).  Both
    follow by transport once quotient_hopf's counit and coproduct are h's
    transport of H's: pi_B = h . psi_bar(rho_B), so they are B's comodule
    axioms carried along h."""
    rho = psi(res.pi(res.diagram.index(B)), B.carrier, B.carrier)
    return Comodule(quotient_hopf, B.carrier, rho)


def equivalence_by_hom_spaces(res, quotient_hopf):
    """The equivalence samples computed: every block of dimension at most
    dim H becomes a quotient comodule, hom-space dimensions agree on the
    pairs reg -> reg, unit -> reg and unit -> unit, and the inert right
    action is carried to the inert right action.  The oracle for
    `reconstruct.verify_equivalence_samples`, which reports these flags by
    transport along the comparison."""
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
        dim_H = len(hom_basis_by_elimination(D.blocks[a], D.blocks[b]))
        checks.append(("hom_dims[%d]" % k, dim_H == len(
            hom_basis_by_elimination(q_of[a], q_of[b]))))
    for k, (ci, wi, X) in enumerate(D.acted):
        if ci not in q_of or wi not in q_of:
            continue
        # block ci's carrier is F(W) (x) X, so comparing coactions decides
        # q_of[ci] == act(q_of[wi], X)
        checks.append(("action_carried[%d]" % k,
                       q_of[ci].coaction == act_coaction(q_of[wi], X)))
    return FlagReport(checks)


def rational_matrix(field, rows):
    """The matrix over `field` with the given rational entries, row by row."""
    return Matrix(field, [[field.scalar(v) for v in row] for row in rows])


def format_scalar_by_fractions(s):
    """format_scalar with every coefficient written by str(Fraction)."""
    terms = []
    for k, n in enumerate(s.num):
        if not n:
            continue
        c = Fraction(n, s.den)
        if k == 0:
            terms.append(str(c))
        else:
            z = "z" if k == 1 else "z^%d" % k
            if c == 1:
                terms.append(z)
            elif c == -1:
                terms.append("-" + z)
            else:
                terms.append("%s*%s" % (c, z))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += "+" + t if not t.startswith("-") else t
    return out


def fraction_within_digit_limit(literal):
    """Fraction(literal), but a literal whose exponent plus its mantissa
    digits exceeds `sys.get_int_max_str_digits()` is refused with
    ValueError, as an int literal of that many digits is."""
    match = re.fullmatch(r"\s*[+-]?([0-9_.]*)[eE][+-]?([0-9_]+)\s*", literal)
    limit = sys.get_int_max_str_digits()
    if match and limit:
        mantissa, exponent = match.groups()
        digits = int(exponent.replace("_", "")) + sum(
            ch.isdigit() for ch in mantissa)
        if digits > limit:
            raise ValueError("exponent literal %r exceeds the %d-digit limit"
                             % (literal, limit))
    return Fraction(literal)


def parse_scalar_by_fractions(field, text):
    """parse_scalar with every coefficient read by Fraction(literal), held
    to the int digit limit (`fraction_within_digit_limit`)."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty scalar literal")
    coeffs = [Fraction(0)] * field.degree
    extra = {}
    terms, cur = [], ""
    for ch in text:
        if ch in "+-" and cur and cur[-1] not in "+-*/^":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    for term in terms:
        if not term or term in "+-":
            raise ValueError("bad scalar literal %r" % text)
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign, term = -1, term[1:]
        if "z" in term:
            head, _, tail = term.partition("z")
            if head.endswith("*"):
                head = head[:-1]
            coef = fraction_within_digit_limit(head) if head else Fraction(1)
            if tail.startswith("^"):
                power = int(tail[1:])
            elif tail == "":
                power = 1
            else:
                raise ValueError("bad scalar term %r" % term)
        else:
            coef = fraction_within_digit_limit(term)
            power = 0
        coef *= sign
        if 0 <= power < field.degree:
            coeffs[power] += coef
        else:
            extra[power] = extra.get(power, Fraction(0)) + coef
    s = Scalar(field, coeffs)
    for power, coef in sorted(extra.items()):
        s = s + field.zeta(power) * coef
    return s
