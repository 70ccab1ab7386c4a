"""Hopf-algebra structure data inside a braided graded category.

Structure maps are GradedMorphisms; axioms are checked by computing exact
residual matrices (a check passes iff its residual is identically zero),
each side a chain of whiskered maps I (x) f (x) I and braidings
(`gradedcat.chain`), as in the string diagrams, with no Kronecker product.
The antipode, the convolution inverse of the identity, is read off the
convolution equation, which is linear in its matrix entries, by
`exactalg.read_off`, the engine's one solve for an unknown map.  Also
here: Yetter-Drinfeld module checks, their induced braiding, and
bosonization by a finite abelian group.
"""

from collections import namedtuple

from .exactalg import (Matrix, NoSolutionError, EngineError, read_off,
                       require)
from .gradedcat import (Context, GradedMorphism, GradedObject, braiding,
                        braiding_inverse, chain, identity_mor, tensor_obj,
                        unit_object)


class SingularAntipodeError(EngineError):
    code = "SingularAntipode"


class CheckReport:
    """Named exact residuals; passes iff every residual is zero."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def passed(self):
        return all(r.is_zero() for _, r in self.checks)

    def failures(self):
        return [name for name, r in self.checks if not r.is_zero()]

    def residual(self, name):
        for n, r in self.checks:
            if n == name:
                return r
        raise KeyError(name)

    def witness(self, name):
        """First nonzero entry of a named residual, as (row, col, value)."""
        for i, row in enumerate(self.residual(name).matrix.data):
            if row:
                j = min(row)
                return (i, j, row[j])
        return None

    def __repr__(self):
        bad = self.failures()
        return "CheckReport(passed)" if not bad else "CheckReport(failed: %s)" % ", ".join(bad)


class BialgebraData:
    """Algebra + coalgebra, compatible through the ambient braiding."""

    def __init__(self, carrier, m, u, delta, eps):
        HH = tensor_obj(carrier, carrier)
        unit = unit_object(carrier.ctx)
        require(m.source == HH and m.target == carrier,
                "bad multiplication type")
        require(u.source == unit and u.target == carrier, "bad unit type")
        require(delta.source == carrier and delta.target == HH,
                "bad coproduct type")
        require(eps.source == carrier and eps.target == unit,
                "bad counit type")
        self.carrier = carrier
        self.m = m
        self.u = u
        self.delta = delta
        self.eps = eps

    def _key(self):
        return (self.carrier, self.m, self.u, self.delta, self.eps)

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash((type(self).__name__,) + self._key())


class HopfAlgebraData(BialgebraData):
    """Bialgebra with a chosen antipode."""

    def __init__(self, carrier, m, u, delta, eps, S):
        super().__init__(carrier, m, u, delta, eps)
        require(S.source == carrier and S.target == carrier,
                "bad antipode type")
        self.S = S

    def _key(self):
        return super()._key() + (self.S,)


def check_algebra(A):
    H, m, u = A.carrier, A.m, A.u
    n, i, HHH = H.dim, identity_mor(H), tensor_obj(tensor_obj(H, H), H)
    return CheckReport([
        ("associativity",
         chain(HHH, H, (1, m, n), (1, m, 1)) - chain(HHH, H, (n, m, 1), (1, m, 1))),
        ("unit_left", chain(H, H, (1, u, n), (1, m, 1)) - i),
        ("unit_right", chain(H, H, (n, u, 1), (1, m, 1)) - i),
    ])


def check_coalgebra(C):
    H, delta, eps = C.carrier, C.delta, C.eps
    n, i, HHH = H.dim, identity_mor(H), tensor_obj(tensor_obj(H, H), H)
    return CheckReport([
        ("coassociativity", chain(H, HHH, (1, delta, 1), (1, delta, n))
         - chain(H, HHH, (1, delta, 1), (n, delta, 1))),
        ("counit_left", chain(H, H, (1, delta, 1), (1, eps, n)) - i),
        ("counit_right", chain(H, H, (1, delta, 1), (n, eps, 1)) - i),
    ])


def check_bialgebra(B):
    H, n = B.carrier, B.carrier.dim
    HH, unit = tensor_obj(H, H), unit_object(H.ctx)
    # (m (x) m) (id (x) sigma (x) id) (Delta (x) Delta)
    mult_compat = B.delta * B.m - chain(
        HH, HH, (n, B.delta, 1), (1, B.delta, n * n), (n, braiding(H, H), n),
        (n * n, B.m, 1), (1, B.m, n))
    unit_compat = B.delta * B.u - chain(unit, HH, (1, B.u, 1), (1, B.u, n))
    counit_compat = B.eps * B.m - chain(HH, unit, (1, B.eps, n), (1, B.eps, 1))
    unit_counit = B.eps * B.u - identity_mor(unit)
    return CheckReport(
        check_algebra(B).checks
        + check_coalgebra(B).checks
        + [("mult_compat", mult_compat),
           ("unit_compat", unit_compat),
           ("counit_compat", counit_compat),
           ("unit_counit", unit_counit)])


def antipode_residual(B, S, side):
    """m (S (x) id) Delta - u eps for side "left", m (id (x) S) Delta - u eps
    for "right": zero on both sides iff S is the antipode of B."""
    H, n = B.carrier, B.carrier.dim
    a, b = (1, n) if side == "left" else (n, 1)
    return chain(H, H, (1, B.delta, 1), (a, S, b), (1, B.m, 1)) - B.u * B.eps


def check_hopf(H):
    return CheckReport(check_bialgebra(H).checks
                       + [("antipode_" + side, antipode_residual(H, H.S, side))
                          for side in ("left", "right")])


def solve_antipode(B):
    """The convolution inverse of the identity, or NoSolutionError.

    m (S (x) id) Delta = u eps is linear in the entries of S: entry (p, q)
    reads sum_{i,j,k} m[p, i*n+k] S[i, j] Delta[j*n+k, q].  With x = vec(S),
    the 1 x n^2 row of the S[i, j] at i*n+j, it is x * M = vec(u eps) for
    M[i*n+j, p*n+q] = sum_k m[p, i*n+k] Delta[j*n+k, q], and S is read off
    that one constraint (`read_off`).  The left inverse must also be a
    right inverse.  A NonUnique outcome cannot occur for a counital
    coproduct and would be an internal error.
    """
    H = B.carrier
    n = H.dim
    field = H.ctx.field
    # the nonzeros (p, m[p, i*n+k]) and (q, Delta[j*n+k, q]), listed
    m_cols = [list(col.items()) for col in B.m.matrix.transpose().data]
    delta = [list(row.items()) for row in B.delta.matrix.data]
    M = []
    for i in range(n):
        for j in range(n):
            row = {}
            for k in range(n):
                d_row = delta[j * n + k]
                for p, v in m_cols[i * n + k] if d_row else ():
                    for q, w in d_row:
                        pq = p * n + q
                        row[pq] = row[pq] + v * w if pq in row else v * w
            M.append({pq: s for pq, s in row.items() if s})
    ue = {p * n + q: v for p, q, v in (B.u * B.eps).matrix.items()}
    x = read_off(field, [(Matrix.from_rows(field, M, n * n),
                          Matrix.from_rows(field, [ue], n * n))], (1, n * n))
    S_rows = [{} for _ in range(n)]
    for ij, v in x.data[0].items():
        i, j = divmod(ij, n)
        S_rows[i][j] = v
    S = GradedMorphism(H, H, Matrix.from_rows(field, S_rows, n))
    if not antipode_residual(B, S, "right").is_zero():
        raise NoSolutionError("left convolution inverse is not two-sided")
    return S


# ---------------------------------------------------------------------------
# Yetter-Drinfeld modules
# ---------------------------------------------------------------------------

class YDModuleData:
    """A carrier with an action H (x) V -> V and a coaction V -> H (x) V."""

    def __init__(self, hopf, carrier, action, coaction):
        H = hopf.carrier
        require(action.source == tensor_obj(H, carrier)
                and action.target == carrier, "bad action type")
        require(coaction.source == carrier
                and coaction.target == tensor_obj(H, carrier),
                "bad coaction type")
        self.hopf = hopf
        self.carrier = carrier
        self.action = action
        self.coaction = coaction

    def _key(self):
        return (self.hopf, self.carrier, self.action, self.coaction)

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash(("YDModuleData",) + self._key())


def check_yd(yd):
    """Module + comodule axioms and the Yetter-Drinfeld compatibility."""
    Hd = yd.hopf
    H, V = Hd.carrier, yd.carrier
    a, rho = yd.action, yd.coaction
    n, d, iV = H.dim, V.dim, identity_mor(V)
    HV, HHV = tensor_obj(H, V), tensor_obj(tensor_obj(H, H), V)
    # (m (x) a) (id (x) c_{H,H} (x) id) (Delta (x) rho)
    lhs = chain(HV, HV, (n, rho, 1), (1, Hd.delta, n * d),
                (n, braiding(H, H), d), (n * n, a, 1), (1, Hd.m, d))
    # (m (x) id) (id (x) c_{V,H}) ((rho a) (x) id) (id (x) c_{H,V}) (Delta (x) id)
    rhs = chain(HV, HV, (1, Hd.delta, d), (n, braiding(H, V), 1), (1, a, n),
                (1, rho, n), (n, braiding(V, H), 1), (1, Hd.m, d))
    return CheckReport([
        ("module_assoc", chain(HHV, V, (1, Hd.m, d), (1, a, 1))
         - chain(HHV, V, (n, a, 1), (1, a, 1))),
        ("module_unit", chain(V, V, (1, Hd.u, d), (1, a, 1)) - iV),
        ("comodule_coassoc", chain(V, HHV, (1, rho, 1), (1, Hd.delta, d))
         - chain(V, HHV, (1, rho, 1), (n, rho, 1))),
        ("comodule_counit", chain(V, V, (1, rho, 1), (1, Hd.eps, d)) - iV),
        ("yd_compat", lhs - rhs),
    ])


def yd_braiding(V, W):
    """The induced braiding c: V (x) W -> W (x) V of two YD modules,
    (a_W (x) id) (id (x) c_{V,W}) (rho_V (x) id)."""
    require(V.hopf == W.hopf, "YD modules over different Hopf algebras")
    X, Y = V.carrier, W.carrier
    return chain(tensor_obj(X, Y), tensor_obj(Y, X), (1, V.coaction, Y.dim),
                 (V.hopf.carrier.dim, braiding(X, Y), 1), (1, W.action, X.dim))


def yd_braiding_inverse(V, W):
    """Inverse of yd_braiding(V, W); requires an invertible antipode."""
    require(V.hopf == W.hopf, "YD modules over different Hopf algebras")
    H, X, Y = V.hopf.carrier, V.carrier, W.carrier
    try:
        S_inv = V.hopf.S.matrix.inverse()
    except NoSolutionError:
        raise SingularAntipodeError("antipode is not invertible") from None
    dX, dY = X.dim, Y.dim
    # c^-1_{V,W} (a_W (x) id) (c^-1_{H,W} (x) id) (id (x) S^-1 (x) id) (id (x) rho_V)
    return chain(tensor_obj(Y, X), tensor_obj(X, Y), (dY, V.coaction, 1),
                 (dY, GradedMorphism(H, H, S_inv), dX),
                 (1, braiding_inverse(H, Y), dX), (1, W.action, dX),
                 (1, braiding_inverse(X, Y), 1))


def braid_relation(c, V):
    """(c (x) id)(id (x) c)(c (x) id) - (id (x) c)(c (x) id)(id (x) c) for
    c: V (x) V -> V (x) V; zero iff c satisfies the braid relation."""
    d = V.dim
    VVV = tensor_obj(tensor_obj(V, V), V)
    return (chain(VVV, VVV, (1, c, d), (d, c, 1), (1, c, d))
            - chain(VVV, VVV, (d, c, 1), (1, c, d), (d, c, 1)))


def yd_samples(H):
    """Three sample Yetter-Drinfeld structures on the carrier of H itself:
    trivial action with the regular coaction, trivial with trivial, and the
    regular action with the trivial coaction.  All three are YD modules
    precisely when H is commutative and cocommutative, as kG is."""
    V, VV = H.carrier, tensor_obj(H.carrier, H.carrier)
    trivial_action = chain(VV, V, (1, H.eps, V.dim))
    trivial_coaction = chain(V, VV, (1, H.u, V.dim))
    return [("trivial_action_regular_coaction",
             YDModuleData(H, V, trivial_action, H.delta)),
            ("trivial_action_trivial_coaction",
             YDModuleData(H, V, trivial_action, trivial_coaction)),
            ("regular_action_trivial_coaction",
             YDModuleData(H, V, H.m, trivial_coaction))]


# ---------------------------------------------------------------------------
# bosonization
# ---------------------------------------------------------------------------

BosonizationResult = namedtuple(
    "BosonizationResult", ["hopf", "projection", "inclusion", "group_hopf"])


def _group_label(g):
    return "g" + "_".join(str(c) for c in g) if g else "e"


def bosonize_with_maps(R):
    """Bosonize a braided Hopf algebra by its grading group.

    Returns the ordinary (trivially braided) Hopf algebra on R (x) kG, the
    projection onto kG, the inclusion of kG, and the group Hopf algebra
    built on the matching basis order.  Basis order is R-major: (r_i, g_k)
    with k the fast index.
    """
    ctx = R.carrier.ctx
    group = ctx.group
    field = ctx.field
    tctx = Context.trivial(field)
    els = group.elements()
    gidx = {g: k for k, g in enumerate(els)}
    nR, nG = R.carrier.dim, len(els)
    N = nR * nG
    carrier = GradedObject(
        tctx, [("%s#%s" % (lr, _group_label(g)), ())
               for lr, _ in R.carrier.basis for g in els])

    chi = ctx.chi
    m_R, d_R, e_R, u_R = R.m.matrix, R.delta.matrix, R.eps.matrix, R.u.matrix
    deg = R.carrier.degree

    # multiplication: (r_i # g_k)(r_j # g_l) = chi(g_k, |r_j|) (r_i r_j # g_k g_l)
    m_data = {}
    for p, col_R, c in m_R.items():
        i, j = divmod(col_R, nR)
        for k, gk in enumerate(els):
            cc = c * chi.value(field, gk, deg(j))
            for l, gl in enumerate(els):
                out_g = gidx[group.add(gk, gl)]
                row = p * nG + out_g
                col = (i * nG + k) * N + (j * nG + l)
                m_data[(row, col)] = cc
    m = GradedMorphism(tensor_obj(carrier, carrier), carrier,
                       Matrix.from_dict(field, N, N * N, m_data))

    # coproduct: (r # g) |-> sum (r1 # |r2| g) (x) (r2 # g)
    d_data = {}
    for row_R, i, c in d_R.items():
        p, q = divmod(row_R, nR)
        dq = deg(q)
        for k, gk in enumerate(els):
            a = gidx[group.add(dq, gk)]
            row = (p * nG + a) * N + (q * nG + k)
            col = i * nG + k
            d_data[(row, col)] = c
    delta = GradedMorphism(carrier, tensor_obj(carrier, carrier),
                           Matrix.from_dict(field, N * N, N, d_data))

    unit = unit_object(tctx)
    e_data = {}
    for i, c in e_R.data[0].items():
        for k in range(nG):
            e_data[(0, i * nG + k)] = c
    eps = GradedMorphism(carrier, unit, Matrix.from_dict(field, 1, N, e_data))

    e_index = gidx[group.zero]
    u_data = {}
    for i, _, c in u_R.items():
        u_data[(i * nG + e_index, 0)] = c
    u = GradedMorphism(unit, carrier, Matrix.from_dict(field, N, 1, u_data))

    bialR = BialgebraData(carrier, m, u, delta, eps)
    S = solve_antipode(bialR)
    hopf = HopfAlgebraData(carrier, m, u, delta, eps, S)

    group_hopf = _group_algebra_on(tctx, group)
    # projection (r # g) |-> eps_R(r) g   and   inclusion g |-> 1 # g
    p_data = {}
    for i, c in e_R.data[0].items():
        for k in range(nG):
            p_data[(k, i * nG + k)] = c
    projection = GradedMorphism(carrier, group_hopf.carrier,
                                Matrix.from_dict(field, nG, N, p_data))
    i_data = {}
    for i, _, c in u_R.items():
        for k in range(nG):
            i_data[(i * nG + k, k)] = c
    inclusion = GradedMorphism(group_hopf.carrier, carrier,
                               Matrix.from_dict(field, N, nG, i_data))
    return BosonizationResult(hopf, projection, inclusion, group_hopf)


def _group_algebra_on(tctx, group):
    """Group Hopf algebra of a finite abelian group, trivially graded."""
    field = tctx.field
    els = group.elements()
    gidx = {g: k for k, g in enumerate(els)}
    n = len(els)
    carrier = GradedObject(tctx, [(_group_label(g), ()) for g in els])
    one = field.one
    m = GradedMorphism.from_dict(
        tensor_obj(carrier, carrier), carrier,
        {(gidx[group.add(a, b)], i * n + j): one
         for i, a in enumerate(els) for j, b in enumerate(els)})
    unit = unit_object(tctx)
    u = GradedMorphism.from_dict(unit, carrier, {(gidx[group.zero], 0): one})
    delta = GradedMorphism.from_dict(
        carrier, tensor_obj(carrier, carrier),
        {(i * n + i, i): one for i in range(n)})
    eps = GradedMorphism.from_dict(carrier, unit,
                                   {(0, i): one for i in range(n)})
    S = GradedMorphism.from_dict(carrier, carrier,
                                 {(gidx[group.neg(a)], i): one
                                  for i, a in enumerate(els)})
    return HopfAlgebraData(carrier, m, u, delta, eps, S)


def check_hopf_morphism(f, A, B):
    """Exact residuals for f: A -> B being a morphism of Hopf algebras."""
    require(f.source == A.carrier and f.target == B.carrier,
            "bad Hopf morphism type")
    nA, nB = A.carrier.dim, B.carrier.dim
    AA, BB = tensor_obj(A.carrier, A.carrier), tensor_obj(B.carrier, B.carrier)
    # f (x) f = (f (x) id) (id (x) f)
    return CheckReport([
        ("respects_m", f * A.m - chain(AA, B.carrier, (nA, f, 1), (1, f, nB),
                                       (1, B.m, 1))),
        ("respects_u", f * A.u - B.u),
        ("respects_delta", B.delta * f - chain(A.carrier, BB, (1, A.delta, 1),
                                               (nA, f, 1), (1, f, nB))),
        ("respects_eps", B.eps * f - A.eps),
        ("respects_antipode", B.S * f - f * A.S),
    ])
