"""Braided categories of finite-group-graded vector spaces.

Objects carry bases labeled by strings and graded by a finitely generated
abelian group; the braiding on homogeneous vectors is multiplication by a
bicharacter value followed by the flip.  The monoidal structure is strict:
tensoring is associative on the nose at the level of labeled bases, and the
unit object is absorbed exactly.  Left duals come with evaluation and
coevaluation maps in the all-delta convention, and the pairing isomorphism
between *Y (x) *X and *(X (x) Y) is the coefficient-one relabeling.
"""

from collections import namedtuple
from itertools import product as _iproduct

from .exactalg import CycloField, InvalidStructureError, Matrix, require


class AbelianGroup:
    """Finite abelian group given by invariant factors; elements are tuples."""

    def __init__(self, invariant_factors):
        factors = tuple(int(n) for n in invariant_factors)
        if not all(n >= 1 for n in factors):
            raise ValueError("invariant factors must be positive")
        self.invariant_factors = factors
        self.rank = len(factors)
        self.zero = (0,) * self.rank

    def __eq__(self, other):
        return (isinstance(other, AbelianGroup)
                and other.invariant_factors == self.invariant_factors)

    def __hash__(self):
        return hash(("AbelianGroup", self.invariant_factors))

    def __repr__(self):
        return "AbelianGroup(%r)" % (list(self.invariant_factors),)

    def element(self, exponents):
        e = tuple(int(x) % n for x, n in zip(exponents, self.invariant_factors))
        if len(exponents) != self.rank:
            raise InvalidStructureError("element has wrong rank")
        return e

    def elements(self):
        return [tuple(e) for e in _iproduct(*(range(n) for n in self.invariant_factors))]

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.invariant_factors))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.invariant_factors))


class Bicharacter:
    """chi(a, b) = zeta_r ^ (a . E . b) for a root order r and integer matrix E."""

    def __init__(self, group, root_order, exponent_matrix):
        self.group = group
        self.root_order = int(root_order)
        require(self.root_order >= 1, "root order must be positive")
        E = tuple(tuple(int(v) % self.root_order for v in row) for row in exponent_matrix)
        require(len(E) == group.rank
                and all(len(row) == group.rank for row in E),
                "exponent matrix must be rank x rank")
        self.exponent_matrix = E
        r = self.root_order
        for i, ni in enumerate(group.invariant_factors):
            for j, nj in enumerate(group.invariant_factors):
                if (ni * E[i][j]) % r or (nj * E[i][j]) % r:
                    raise ValueError(
                        "exponent matrix is not bilinear on the group: "
                        "entry (%d,%d)" % (i, j))

    def __eq__(self, other):
        return (isinstance(other, Bicharacter) and other.group == self.group
                and other.root_order == self.root_order
                and other.exponent_matrix == self.exponent_matrix)

    def __hash__(self):
        return hash(("Bicharacter", self.group, self.root_order, self.exponent_matrix))

    def __repr__(self):
        return "Bicharacter(order=%d, E=%r)" % (self.root_order, self.exponent_matrix)

    def exponent(self, a, b):
        E = self.exponent_matrix
        total = 0
        for i, x in enumerate(a):
            if x:
                row = E[i]
                for j, y in enumerate(b):
                    total += x * row[j] * y
        return total % self.root_order

    def value(self, field, a, b):
        return field.root_of_unity(self.root_order, self.exponent(a, b))

    def value_inverse(self, field, a, b):
        return field.root_of_unity(self.root_order, -self.exponent(a, b))

    @classmethod
    def trivial(cls, group):
        return cls(group, 1, [[0] * group.rank for _ in range(group.rank)])


class Context(namedtuple("Context", ["field", "group", "chi"])):
    """The ambient braided category: a field, a grading group, a bicharacter."""

    def __new__(cls, field, group, chi):
        require(isinstance(field, CycloField),
                "a context needs a cyclotomic field")
        require(chi.group == group, "bicharacter grading group mismatch")
        return super().__new__(cls, field, group, chi)

    @classmethod
    def trivial(cls, field=None):
        field = field or CycloField(1)
        group = AbelianGroup([])
        return cls(field, group, Bicharacter.trivial(group))


UNIT_LABEL = "1"


class GradedObject:
    """A finite-dimensional graded vector space with a labeled basis."""

    def __init__(self, ctx, basis):
        element = ctx.group.element
        self._set(ctx, tuple((str(label), element(degree))
                             for label, degree in basis))

    @classmethod
    def _of_elements(cls, ctx, basis):
        """From (str label, group element) pairs, taken as they are."""
        self = cls.__new__(cls)
        self._set(ctx, tuple(basis))
        return self

    def _set(self, ctx, basis):
        # labels of valid objects can still collide through the tensor
        # product: a (x) a(x)b against b(x)c (x) c
        require(len({l for l, _ in basis}) == len(basis), "duplicate basis labels")
        self.ctx = ctx
        self.basis = basis
        self.dim = len(basis)

    def __eq__(self, other):
        return (isinstance(other, GradedObject) and other.ctx == self.ctx
                and other.basis == self.basis)

    def __hash__(self):
        return hash((self.ctx, self.basis))

    def __repr__(self):
        return "GradedObject[%s]" % ", ".join(l for l, _ in self.basis)

    def degree(self, i):
        return self.basis[i][1]

    @property
    def is_unit(self):
        return (self.dim == 1 and self.basis[0][0] == UNIT_LABEL
                and self.basis[0][1] == self.ctx.group.zero)


def unit_object(ctx):
    return GradedObject(ctx, [(UNIT_LABEL, ctx.group.zero)])


def line_object(ctx, label, degree):
    return GradedObject(ctx, [(label, degree)])


def tensor_obj(V, W):
    """Strict tensor product; the unit object is absorbed exactly."""
    require(V.ctx == W.ctx, "tensor product of objects of different categories")
    if V.is_unit:
        return W
    if W.is_unit:
        return V
    # one group addition per pair of distinct degrees
    add = V.ctx.group.add
    w_degrees = {dw for _, dw in W.basis}
    sums = {dv: {dw: add(dv, dw) for dw in w_degrees}
            for dv in {dv for _, dv in V.basis}}
    return GradedObject._of_elements(V.ctx, [
        ("%s⊗%s" % (lv, lw), sums[dv][dw])
        for lv, dv in V.basis for lw, dw in W.basis])


def direct_sum_obj(V, W):
    """Direct sum; labels are prefixed with the summand index."""
    require(V.ctx == W.ctx, "direct sum of objects of different categories")
    return GradedObject._of_elements(
        V.ctx, [("0:%s" % l, d) for l, d in V.basis]
        + [("1:%s" % l, d) for l, d in W.basis])


class GradedMorphism:
    """A degree-preserving linear map, stored as a matrix on the chosen bases.

    Columns index the source basis, rows the target basis.  Composition is
    `*`, tensoring is `@`.
    """

    def __init__(self, source, target, matrix):
        if source.ctx != target.ctx:
            raise InvalidStructureError("source/target context mismatch")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise InvalidStructureError(
                "matrix shape %dx%d does not match map %d -> %d" % (
                    matrix.rows, matrix.cols, source.dim, target.dim))
        source_degrees = [d for _, d in source.basis]
        for i, ((_, d), row) in enumerate(zip(target.basis, matrix.data)):
            for j in row:
                if source_degrees[j] != d:
                    raise InvalidStructureError(
                        "entry (%d,%d) violates degree preservation" % (i, j))
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def from_dict(cls, source, target, data):
        return cls(source, target,
                   Matrix.from_dict(source.ctx.field, target.dim, source.dim, data))

    def __eq__(self, other):
        return (isinstance(other, GradedMorphism) and other.source == self.source
                and other.target == self.target and other.matrix == self.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return "GradedMorphism(%r -> %r)" % (self.source, self.target)

    def __mul__(self, other):
        """self after other."""
        require(isinstance(other, GradedMorphism),
                "composition with a non-morphism")
        require(other.target == self.source, "composition type mismatch")
        return GradedMorphism(other.source, self.target, self.matrix * other.matrix)

    def __matmul__(self, other):
        return GradedMorphism(tensor_obj(self.source, other.source),
                              tensor_obj(self.target, other.target),
                              self.matrix @ other.matrix)

    def __add__(self, other):
        require(other.source == self.source and other.target == self.target,
                "sum of morphisms of different types")
        return GradedMorphism(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        require(other.source == self.source and other.target == self.target,
                "difference of morphisms of different types")
        return GradedMorphism(self.source, self.target, self.matrix - other.matrix)

    def __neg__(self):
        return GradedMorphism(self.source, self.target, -self.matrix)

    def is_zero(self):
        return self.matrix.is_zero()

    def inverse(self):
        return GradedMorphism(self.target, self.source, self.matrix.inverse())


def identity_mor(V):
    return GradedMorphism(V, V, Matrix.identity(V.ctx.field, V.dim))


def braiding(V, W):
    """sigma_{V,W}: V (x) W -> W (x) V, flip times the bicharacter value."""
    require(V.ctx == W.ctx, "braiding of objects of different categories")
    ctx = V.ctx
    data = {}
    for i in range(V.dim):
        dv = V.degree(i)
        for j in range(W.dim):
            c = ctx.chi.value(ctx.field, dv, W.degree(j))
            data[(j * V.dim + i, i * W.dim + j)] = c
    return GradedMorphism(tensor_obj(V, W), tensor_obj(W, V),
                          Matrix.from_dict(ctx.field, V.dim * W.dim, V.dim * W.dim, data))


def braiding_inverse(V, W):
    """The inverse of braiding(V, W), from W (x) V back to V (x) W."""
    require(V.ctx == W.ctx, "braiding of objects of different categories")
    ctx = V.ctx
    data = {}
    for i in range(V.dim):
        dv = V.degree(i)
        for j in range(W.dim):
            c = ctx.chi.value_inverse(ctx.field, dv, W.degree(j))
            data[(i * W.dim + j, j * V.dim + i)] = c
    return GradedMorphism(tensor_obj(W, V), tensor_obj(V, W),
                          Matrix.from_dict(ctx.field, V.dim * W.dim, V.dim * W.dim, data))


def _dual_label_left(label):
    if label.startswith("*") or "⊗" in label:
        return "*(%s)" % label
    return "*%s" % label


DualityData = namedtuple("DualityData", ["space", "ev", "coev"])


def dual_object(V):
    """*V, the object of left_dual(V), without its ev and coev."""
    if V.is_unit:
        return V
    neg = V.ctx.group.neg
    return GradedObject(V.ctx, [(_dual_label_left(l), neg(d))
                                for l, d in V.basis])


def left_dual(V):
    """(*V, ev: V (x) *V -> 1, coev: 1 -> *V (x) V), delta-pairing."""
    ctx = V.ctx
    if V.is_unit:
        e = identity_mor(V)
        return DualityData(V, e, e)
    dual = dual_object(V)
    one = ctx.field.one
    unit = unit_object(ctx)
    n = V.dim
    ev = GradedMorphism.from_dict(
        tensor_obj(V, dual), unit, {(0, i * n + i): one for i in range(n)})
    coev = GradedMorphism.from_dict(
        unit, tensor_obj(dual, V), {(i * n + i, 0): one for i in range(n)})
    return DualityData(dual, ev, coev)


def dual_morphism(f):
    """*f: *W -> *V for f: V -> W (the transpose in the dual bases)."""
    sd = dual_object(f.target)
    td = dual_object(f.source)
    return GradedMorphism(sd, td, f.matrix.transpose())


def phi_left(X, Y):
    """The pairing isomorphism *Y (x) *X -> *(X (x) Y).

    On basis vectors, *y_j (x) *x_i goes to the dual vector of x_i (x) y_j
    with coefficient one; this is the convention that makes evaluation of a
    tensor product factor through the two evaluations without extra braiding
    coefficients.
    """
    require(X.ctx == Y.ctx, "pairing of objects of different categories")
    source = tensor_obj(dual_object(Y), dual_object(X))
    target = dual_object(tensor_obj(X, Y))
    one = X.ctx.field.one
    data = {}
    for i in range(X.dim):
        for j in range(Y.dim):
            data[(i * Y.dim + j, j * X.dim + i)] = one
    return GradedMorphism(source, target,
                          Matrix.from_dict(X.ctx.field, target.dim, source.dim, data))


def psi(f, X, Y):
    """Turn f: X (x) *Y -> Z into X -> Z (x) Y (currying the right dual leg)."""
    dual = left_dual(Y)
    require(f.source == tensor_obj(X, dual.space),
            "psi: source must be X (x) *Y")
    return (f @ identity_mor(Y)) * (identity_mor(X) @ dual.coev)
