"""Builtin catalog of Hopf algebra examples.

Entries are built by formula and checked nowhere here: an input is checked
once, by the command line's entry check (`cli.ensure_hopf`), and the test
suite proves every entry (`test_all_builtins_pass_axiom_suite`).  The
formulas are the known ones: kG for a finite abelian group G; the rank-one
Nichols algebra nichols_cyclic(p), with its antipode
S(x^k) = (-1)^k q^(k(k-1)/2) x^k; taft(p), its bosonization by Z/p, a Hopf
algebra by the Radford-Majid theorem; the exterior line,
nichols_cyclic(2); and Sweedler's algebra, taft(2) relabelled.  Building
the same name twice gives equal data.
"""

from .exactalg import CycloField, canonical_int
from .braidedhopf import HopfAlgebraData, bosonize_with_maps, _group_algebra_on
from .gradedcat import (AbelianGroup, Bicharacter, Context, GradedMorphism,
                        GradedObject, tensor_obj, unit_object)


def group_algebra(group):
    """The group Hopf algebra kG of a finite abelian group, trivially braided."""
    if isinstance(group, int):
        group = AbelianGroup([group])
    return _group_algebra_on(Context.trivial(), group)


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
    braiding given by a primitive p-th root of unity q; the coproduct has
    Gaussian binomial coefficients, and the antipode is
    S(x^k) = (-1)^k q^(k(k-1)/2) x^k."""
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
    s_data, c, qk = {}, one, one
    for k in range(p):  # c = (-1)^k q^(0 + 1 + ... + (k-1))
        s_data[(k, k)] = c
        c, qk = -(c * qk), qk * q
    S = GradedMorphism.from_dict(H, H, s_data)
    return HopfAlgebraData(H, m, u, delta, eps, S)


def taft(p):
    """The Taft Hopf algebra of dimension p^2, as the bosonization of the
    rank-one Nichols algebra by Z/p (Radford-Majid)."""
    return bosonize_with_maps(nichols_cyclic(p)).hopf


def _relabelled(H, labels):
    """H on the same matrices, with its basis vectors renamed in order."""
    V = GradedObject(H.carrier.ctx, zip(labels, (d for _, d in H.carrier.basis)))
    VV, unit = tensor_obj(V, V), unit_object(V.ctx)
    return HopfAlgebraData(
        V, GradedMorphism(VV, V, H.m.matrix), GradedMorphism(unit, V, H.u.matrix),
        GradedMorphism(V, VV, H.delta.matrix),
        GradedMorphism(V, unit, H.eps.matrix), GradedMorphism(V, V, H.S.matrix))


def sweedler():
    """Sweedler's 4-dimensional Hopf algebra over Q, basis (1, g, x, v = xg).

    Relations: g^2 = 1, x^2 = 0, xg = -gx;  Delta g = g (x) g,
    Delta x = x (x) 1 + g (x) x;  S(g) = g, S(x) = -gx.

    It is taft(2), the bosonization of the exterior line by Z/2, with its
    basis 1#g0, 1#g1, x#g0, x#g1 renamed 1, g, x, v.
    """
    return _relabelled(taft(2), ["1", "g", "x", "v"])


def exterior_line():
    """The exterior algebra on one odd generator, a Hopf algebra in super
    vector spaces (Z/2-grading, sign braiding): x^2 = 0,
    Delta x = x (x) 1 + 1 (x) x, S(x) = -x.  It is nichols_cyclic(2)."""
    return nichols_cyclic(2)


BUILTIN_NAMES = [
    "group_algebra:2",
    "group_algebra:3",
    "sweedler",
    "exterior_line",
    "nichols_cyclic:3",
    "taft:2",
]


def _parameter(name, text):
    """The int that `text` spells in canonical decimal (no sign: see
    `canonical_int`), so that an entry has one name (and one report
    digest)."""
    value = canonical_int(text)
    if value is None:
        raise ValueError("builtin %r: parameter %r is not a canonical "
                         "decimal integer" % (name, text))
    return value


def build(name):
    """Build a catalog entry from its name, e.g. 'taft:2' or 'sweedler'."""
    base, colon, arg = name.partition(":")
    if base in ("sweedler", "exterior_line") and colon:
        raise ValueError("builtin %r takes no argument, got %r" % (base, name))
    if base == "group_algebra":
        if not arg:
            raise ValueError("group_algebra needs invariant factors, e.g. group_algebra:2")
        return group_algebra(AbelianGroup([_parameter(name, x)
                                           for x in arg.split(",")]))
    if base == "sweedler":
        return sweedler()
    if base == "exterior_line":
        return exterior_line()
    if base == "nichols_cyclic":
        return nichols_cyclic(_parameter(name, arg))
    if base == "taft":
        return taft(_parameter(name, arg))
    raise ValueError("unknown builtin %r" % name)
