"""Builtin catalog of verified Hopf algebra examples.

Every entry is checked against the full axiom suite at construction time.
Catalog entries are deterministic: building the same name twice gives equal
data.
"""

from .exactalg import CycloField
from .braidedhopf import (BialgebraData, HopfAlgebraData, YDModuleData,
                          bosonize_with_maps, check_hopf, solve_antipode,
                          _group_algebra_on)
from .gradedcat import (AbelianGroup, Bicharacter, Context, GradedMorphism,
                        GradedObject, identity_mor, tensor_obj, unit_object)


def _assert_hopf(H, name):
    report = check_hopf(H)
    assert report.passed, "catalog entry %s fails axioms: %s" % (name, report.failures())
    return H


def group_algebra(group):
    """The group Hopf algebra kG of a finite abelian group, trivially braided."""
    if isinstance(group, int):
        group = AbelianGroup([group])
    ctx = Context.trivial(CycloField(1))
    return _assert_hopf(_group_algebra_on(ctx, group),
                        "group_algebra(%r)" % (group.invariant_factors,))


def sweedler():
    """Sweedler's 4-dimensional Hopf algebra over Q, basis (1, g, x, v = xg).

    Relations: g^2 = 1, x^2 = 0, xg = -gx;  Delta g = g (x) g,
    Delta x = x (x) 1 + g (x) x;  S(g) = g, S(x) = -gx.
    """
    ctx = Context.trivial(CycloField(1))
    H = GradedObject(ctx, [("1", ()), ("g", ()), ("x", ()), ("v", ())])
    unit = unit_object(ctx)
    names = ["1", "g", "x", "v"]
    idx = {n: i for i, n in enumerate(names)}
    products = {
        ("1", "1"): [(1, "1")], ("1", "g"): [(1, "g")],
        ("1", "x"): [(1, "x")], ("1", "v"): [(1, "v")],
        ("g", "1"): [(1, "g")], ("g", "g"): [(1, "1")],
        ("g", "x"): [(-1, "v")], ("g", "v"): [(-1, "x")],
        ("x", "1"): [(1, "x")], ("x", "g"): [(1, "v")],
        ("x", "x"): [], ("x", "v"): [],
        ("v", "1"): [(1, "v")], ("v", "g"): [(1, "x")],
        ("v", "x"): [], ("v", "v"): [],
    }
    m_data = {}
    for (a, b), terms in products.items():
        col = idx[a] * 4 + idx[b]
        for c, out in terms:
            m_data[(idx[out], col)] = ctx.field.scalar(c)
    m = GradedMorphism.from_dict(tensor_obj(H, H), H, m_data)
    u = GradedMorphism.from_dict(unit, H, {(0, 0): ctx.field.one})
    coproducts = {
        "1": [(1, "1", "1")],
        "g": [(1, "g", "g")],
        "x": [(1, "x", "1"), (1, "g", "x")],
        "v": [(1, "v", "g"), (1, "1", "v")],
    }
    d_data = {}
    for a, terms in coproducts.items():
        for c, l, r in terms:
            d_data[(idx[l] * 4 + idx[r], idx[a])] = ctx.field.scalar(c)
    delta = GradedMorphism.from_dict(H, tensor_obj(H, H), d_data)
    eps = GradedMorphism.from_dict(
        H, unit, {(0, 0): ctx.field.one, (0, 1): ctx.field.one})
    S = GradedMorphism.from_dict(H, H, {
        (0, 0): ctx.field.one, (1, 1): ctx.field.one,
        (3, 2): ctx.field.one, (2, 3): ctx.field.scalar(-1)})
    return _assert_hopf(HopfAlgebraData(H, m, u, delta, eps, S), "sweedler")


def exterior_line():
    """The exterior algebra on one odd generator, a Hopf algebra in super
    vector spaces (Z/2-grading, sign braiding)."""
    group = AbelianGroup([2])
    ctx = Context(CycloField(1), group, Bicharacter(group, 2, [[1]]))
    H = GradedObject(ctx, [("1", (0,)), ("x", (1,))])
    unit = unit_object(ctx)
    one = ctx.field.one
    m = GradedMorphism.from_dict(
        tensor_obj(H, H), H,
        {(0, 0): one, (1, 1): one, (1, 2): one})
    u = GradedMorphism.from_dict(unit, H, {(0, 0): one})
    delta = GradedMorphism.from_dict(
        H, tensor_obj(H, H),
        {(0, 0): one, (2, 1): one, (1, 1): one})
    eps = GradedMorphism.from_dict(H, unit, {(0, 0): one})
    S = GradedMorphism.from_dict(H, H, {(0, 0): one, (1, 1): ctx.field.scalar(-1)})
    return _assert_hopf(HopfAlgebraData(H, m, u, delta, eps, S), "exterior_line")


def gaussian_binomial(field, n, k, q):
    """The Gaussian binomial coefficient [n choose k]_q as a field element,
    by the q-Pascal recursion C(n,k) = C(n-1,k-1) + q^k C(n-1,k)."""
    if k < 0 or k > n:
        return field.zero
    row = [field.one]
    for m in range(1, n + 1):
        qpow = field.one
        new = [field.one]
        for j in range(1, m):
            qpow = qpow * q
            new.append(row[j - 1] + qpow * row[j])
        new.append(field.one)
        row = new
    return row[k]


def nichols_cyclic(p):
    """The rank-one Nichols algebra k[x]/(x^p) in Z/p-graded spaces with the
    braiding given by a primitive p-th root of unity; the coproduct has
    Gaussian binomial coefficients."""
    if p < 2:
        raise ValueError("the order p must be at least 2, got %d" % p)
    # Q(zeta_2) = Q; keep the plain rational representation there
    field = CycloField(1) if p == 2 else CycloField(p)
    group = AbelianGroup([p])
    ctx = Context(field, group, Bicharacter(group, p, [[1]]))
    labels = ["1", "x"] + ["x^%d" % k for k in range(2, p)]
    H = GradedObject(ctx, [(labels[k], (k,)) for k in range(p)])
    unit = unit_object(ctx)
    one = field.one
    m_data = {}
    for a in range(p):
        for b in range(p):
            if a + b < p:
                m_data[(a + b, a * p + b)] = one
    m = GradedMorphism.from_dict(tensor_obj(H, H), H, m_data)
    u = GradedMorphism.from_dict(unit, H, {(0, 0): one})
    q = field.root_of_unity(p, 1)
    d_data = {}
    for k in range(p):
        for i in range(k + 1):
            c = gaussian_binomial(field, k, i, q)
            if c:
                d_data[(i * p + (k - i), k)] = c
    delta = GradedMorphism.from_dict(H, tensor_obj(H, H), d_data)
    eps = GradedMorphism.from_dict(H, unit, {(0, 0): one})
    B = BialgebraData(H, m, u, delta, eps)
    S = solve_antipode(B)
    return _assert_hopf(HopfAlgebraData(H, m, u, delta, eps, S),
                        "nichols_cyclic(%d)" % p)


def taft(p):
    """The Taft Hopf algebra of dimension p^2, as the bosonization of the
    rank-one Nichols algebra by Z/p."""
    result = bosonize_with_maps(nichols_cyclic(p))
    return _assert_hopf(result.hopf, "taft(%d)" % p)


def yd_samples(H):
    """Three sample Yetter-Drinfeld structures on the carrier of H itself:
    trivial action with the regular coaction, trivial with trivial, and the
    regular action with the trivial coaction.  The trio satisfies the YD
    compatibility precisely when H is commutative and cocommutative, so all
    three pass for group algebras."""
    iV = identity_mor(H.carrier)
    trivial_action = H.eps @ iV
    trivial_coaction = H.u @ iV
    return [
        ("trivial_action_regular_coaction",
         YDModuleData(H, H.carrier, trivial_action, H.delta)),
        ("trivial_action_trivial_coaction",
         YDModuleData(H, H.carrier, trivial_action, trivial_coaction)),
        ("regular_action_trivial_coaction",
         YDModuleData(H, H.carrier, H.m, trivial_coaction)),
    ]


BUILTIN_NAMES = [
    "group_algebra:2",
    "group_algebra:3",
    "sweedler",
    "exterior_line",
    "nichols_cyclic:3",
    "taft:2",
]


def build(name):
    """Build a catalog entry from its name, e.g. 'taft:2' or 'sweedler'."""
    base, _, arg = name.partition(":")
    if base == "group_algebra":
        if not arg:
            raise ValueError("group_algebra needs invariant factors, e.g. group_algebra:2")
        return group_algebra(AbelianGroup([int(x) for x in arg.split(",")]))
    if base == "sweedler":
        return sweedler()
    if base == "exterior_line":
        return exterior_line()
    if base == "nichols_cyclic":
        return nichols_cyclic(int(arg or 0))
    if base == "taft":
        return taft(int(arg or 0))
    raise ValueError("unknown builtin %r" % name)
