"""Exact linear algebra over cyclotomic number fields.

Scalars live in Q(zeta_n), represented as residues modulo the n-th
cyclotomic polynomial: integer numerators in the power basis over one
positive common denominator, with their gcd divided out.  Phi_n is monic
with integer coefficients, so sums, products and inverses are integer
arithmetic plus one gcd.  Scalar literals are parsed and formatted with
ints too; only a literal in a rare form (an exponent, underscores) is
handed to `fractions.Fraction`, imported on first use.  Everything
downstream (graded categories, Hopf structure checks, coend quotients)
reduces to the handful of primitives in this module: sparse products, the
whiskered products (A (x) I) X and (I (x) B) X taken block by block without
forming the Kronecker product, sparse elimination to reduced rows, the
null space and quotient presentation read off them, and exact solves for
unknown linear maps.
All results are exact; "zero" always means identically zero.
"""

from functools import reduce
from math import gcd, lcm
from operator import add as _add, mul as _mul, neg as _neg, sub as _sub


class EngineError(Exception):
    """Base class for all structured engine failures."""

    code = "EngineError"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class NoSolutionError(EngineError):
    code = "NoSolution"


class NonUniqueError(EngineError):
    code = "NonUnique"


class InvalidStructureError(EngineError):
    code = "InvalidStructure"


def require(cond, message):
    """Raise InvalidStructureError(message) unless cond holds."""
    if not cond:
        raise InvalidStructureError(message)


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------

def _divide_monic(p, q):
    """p / q for integer polynomials (ascending), q monic and dividing p."""
    p = list(p)
    dq = len(q) - 1
    quot = [0] * (len(p) - dq)
    for k in reversed(range(len(quot))):
        c = quot[k] = p[k + dq]
        if c:
            for i, b in enumerate(q):
                p[k + i] -= c * b
    return quot


def cyclotomic_polynomial(n):
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    # x^n - 1 divided by Phi_d for each proper divisor d of n
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            p = _divide_monic(p, cyclotomic_polynomial(d))
    return p


class CycloField:
    """The cyclotomic field Q(zeta_n), elements stored modulo Phi_n.

    One instance exists per order, so `is` compares fields.
    """

    _cache = {}

    def __new__(cls, order):
        if order in cls._cache:
            return cls._cache[order]
        self = super().__new__(cls)
        cls._cache[order] = self
        self.order = order
        self.modulus = tuple(cyclotomic_polynomial(order))
        m = self.degree = len(self.modulus) - 1
        # reduction table: x^(m + k) in the power basis, integral because
        # Phi_n is monic; it covers products of residues and every power
        # zeta^j, j < order
        red = []
        cur = [-c for c in self.modulus[:m]]  # x^m
        for _ in range(max(2 * m - 1, order) - m):
            red.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [c + top * r for c, r in zip(cur, red[0])]
        self._reduction = tuple(red)
        # the exponents k of the Galois automorphisms zeta -> zeta^k other
        # than the identity
        self._conjugates = tuple(k for k in range(2, order) if gcd(k, order) == 1)
        self._zero = None
        self._one = None
        return self

    def __repr__(self):
        return "CycloField(%d)" % self.order

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.order == self.order

    def __hash__(self):
        return hash(("CycloField", self.order))

    def scalar(self, value):
        """Embed a rational number: an int, or anything with an exact
        `as_integer_ratio` (a Fraction, say)."""
        num, den = (value, 1) if type(value) is int else value.as_integer_ratio()
        return _scalar(self, (num,) + (0,) * (self.degree - 1), den)

    @property
    def zero(self):
        if self._zero is None:
            self._zero = self.scalar(0)
        return self._zero

    @property
    def one(self):
        if self._one is None:
            self._one = self.scalar(1)
        return self._one

    def zeta(self, power=1):
        """zeta_n^power as a field element."""
        power %= self.order
        c = [0] * max(self.degree, power + 1)
        c[power] = 1
        return _scalar(self, self._reduce(c), 1)

    def root_of_unity(self, root_order, power=0):
        """A primitive root_order-th root of unity raised to `power`.

        Available when root_order divides the field order, or for
        root_order <= 2 (then the root is rational).
        """
        power %= root_order
        if root_order == 1:
            return self.one
        if self.order % root_order == 0:
            return self.zeta(power * (self.order // root_order))
        if root_order == 2:
            return self.scalar(1 if power == 0 else -1)
        raise ValueError(
            "field Q(zeta_%d) has no %d-th root of unity" % (self.order, root_order))

    # integer residues: tuples of `degree` ints in the power basis

    def _reduce(self, coeffs):
        """The residue of sum coeffs[k] zeta^k (ints, len >= degree)."""
        m = self.degree
        out = coeffs[:m]
        for row, c in zip(self._reduction, coeffs[m:]):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return tuple(out)

    def _product(self, a, b):
        """The product of two residues."""
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        return self._reduce(prod)

    def _conjugate(self, a, k):
        """The image of residue a under zeta -> zeta^k, k prime to the order."""
        n = self.order
        c = [0] * n
        for i, x in enumerate(a):
            c[i * k % n] = x
        return self._reduce(c)


_new_object = object.__new__


def _scalar(field, num, den):
    """A Scalar from a tuple of ints and a positive int with no common factor."""
    s = _new_object(Scalar)
    s.field = field
    s.num = num
    s.den = den
    return s


def _normalized(field, num, den):
    """The Scalar num / den (a tuple of ints, den > 0), gcd divided out."""
    g = 1 if den == 1 else gcd(*num, den)
    if g == 1:
        return _scalar(field, num, den)
    return _scalar(field, tuple([x // g for x in num]), den // g)


def _combine(s, t, op):
    """s + t or s - t (op is operator.add or operator.sub)."""
    a, da, b, db = s.num, s.den, t.num, t.den
    if da == db:
        return _normalized(s.field, tuple(map(op, a, b)), da)
    return _normalized(s.field, tuple(map(op, [x * db for x in a], [y * da for y in b])),
                       da * db)


class Scalar:
    """An element (num[0] + num[1] z + ... + num[m-1] z^(m-1)) / den of a
    CycloField of degree m.

    `num` is a tuple of m ints and `den` a positive int, and
    gcd(*num, den) == 1.  Each element has exactly one such form (zero is
    (0, ..., 0) / 1), so == and hash compare it directly.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coeffs):
        """From the `field.degree` rational coefficients (ints, or numbers
        with an exact `as_integer_ratio` such as Fractions) of the power
        basis."""
        ratios = [(c, 1) if type(c) is int else c.as_integer_ratio()
                  for c in coeffs]
        if len(ratios) != field.degree:
            raise InvalidStructureError(
                "a scalar of Q(zeta_%d) has %d coefficients, not %d"
                % (field.order, field.degree, len(ratios)))
        # the lcm of the reduced denominators leaves no common factor
        den = lcm(*(d for _, d in ratios))
        self.field = field
        self.num = tuple(n * (den // d) for n, d in ratios)
        self.den = den

    def _coerce(self, other):
        """other as a Scalar of this field, or NotImplemented; every binary
        operation starts here, so none mixes two fields."""
        if type(other) is Scalar:
            if other.field is not self.field:
                raise InvalidStructureError(
                    "scalars from different fields: %r and %r"
                    % (self.field, other.field))
            return other
        # ints and rationals (a Fraction has a denominator, a float none)
        if isinstance(other, int) or hasattr(other, "denominator"):
            return self.field.scalar(other)
        return NotImplemented

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.field.order, self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, _add)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.field, tuple(map(_neg, self.num)), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, _sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if len(a) == 1:
            num = (a[0] * b[0],)
        elif not any(a[1:]):  # a rational factor only scales: no reduction
            x = a[0]
            num = tuple([x * y for y in b])
        elif not any(b[1:]):
            y = b[0]
            num = tuple([x * y for x in a])
        else:
            num = self.field._product(a, b)
        return _normalized(self.field, num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        a = self.num
        if not any(a):
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if not any(a[1:]):  # rational
            x = a[0]
            return _scalar(field, (self.den if x > 0 else -self.den,) + a[1:], abs(x))
        # 1/a is the product of the other Galois conjugates of a over the
        # norm of a, the product of all of them (a nonzero integer here)
        rest = reduce(field._product, [field._conjugate(a, k) for k in field._conjugates])
        norm = field._product(a, rest)[0]
        d = self.den if norm > 0 else -self.den
        return _normalized(field, tuple([d * x for x in rest]), abs(norm))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __repr__(self):
        return "Scalar(%s)" % (format_scalar(self),)


def _format_ratio(n, d):
    """n / d (d > 0) in lowest terms, as str(Fraction(n, d)) writes it."""
    g = gcd(n, d)
    return str(n // g) if d == g else "%d/%d" % (n // g, d // g)


def format_scalar(s):
    """Canonical human/serialization form: rational polynomial in z."""
    terms = []
    den = s.den
    for k, n in enumerate(s.num):
        if not n:
            continue
        if k == 0:
            terms.append(_format_ratio(n, den))
        else:
            z = "z" if k == 1 else "z^%d" % k
            if n == den:
                terms.append(z)
            elif n == -den:
                terms.append("-" + z)
            else:
                terms.append("%s*%s" % (_format_ratio(n, den), z))
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += "+" + t if not t.startswith("-") else t
    return out


def _digits(text):
    return text.isascii() and text.isdigit()


def _parse_rational(text):
    """(numerator, denominator > 0) of a rational literal, exactly as
    `Fraction(text)` reads it: ValueError if it is no literal and
    ZeroDivisionError for a zero denominator.  Integers, p/q and plain
    decimals are read here; rarer forms (exponents, underscores, padding)
    go to Fraction itself."""
    body = text[1:] if text[:1] in ("+", "-") else text
    whole, slash, den_text = body.partition("/")
    if _digits(whole) and (not slash or _digits(den_text)):
        num, den = int(text.partition("/")[0]), int(den_text or 1)
        if not den:
            raise ZeroDivisionError("Fraction(%d, 0)" % num)
    else:
        whole, dot, frac = body.partition(".")
        if not (dot and _digits(whole + frac)):
            from fractions import Fraction
            return Fraction(text).as_integer_ratio()
        num, den = int(whole + frac), 10 ** len(frac)
        if text[0] == "-":
            num = -num
    g = gcd(num, den)
    return num // g, den // g


def parse_scalar(field, text):
    """Inverse of format_scalar; accepts any signed sum of rational z-terms."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty scalar literal")
    coeffs = {}  # power of z -> (numerator, denominator), summed
    # split into signed terms
    terms, cur, depth = [], "", 0
    for ch in text:
        if ch in "+-" and cur and cur[-1] not in "+-*/^" and depth == 0:
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
            n, d = _parse_rational(head) if head else (1, 1)
            if tail.startswith("^"):
                power = int(tail[1:])
            elif tail == "":
                power = 1
            else:
                raise ValueError("bad scalar term %r" % term)
        else:
            n, d = _parse_rational(term)
            power = 0
        if power in coeffs:
            n0, d0 = coeffs[power]
            n, d = n0 * d + sign * n * d0, d0 * d
        else:
            n *= sign
        coeffs[power] = n, d
    m = field.degree
    ratios = [coeffs.pop(k) if k in coeffs else (0, 1) for k in range(m)]
    den = lcm(*(d for _, d in ratios))
    s = _normalized(field, tuple(n * (den // d) for n, d in ratios), den)
    for power, (n, d) in sorted(coeffs.items()):
        s = s + field.zeta(power) * _normalized(field, (n,) + (0,) * (m - 1), d)
    return s


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Sparse exact matrix over a CycloField (row-major, immutable).

    `data` is a tuple with one dict {column: Scalar} per row.  A row dict
    never holds a zero, so products, Kronecker products and zero tests cost
    the number of nonzeros, not rows x cols.  Row dicts may be shared
    between matrices and are never mutated once a matrix holds them.
    """

    __slots__ = ("field", "rows", "cols", "data", "_hash")

    def __init__(self, field, entries, cols=None):
        """From a dense grid: a list of equal-length rows of Scalars."""
        ncols = len(entries[0]) if entries else (cols or 0)
        data = []
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
            data.append({j: v for j, v in enumerate(row) if v})
        self.field = field
        self.data = tuple(data)
        self.rows = len(data)
        self.cols = ncols
        self._hash = None

    @classmethod
    def from_rows(cls, field, data, cols):
        """From sparse rows: {column: Scalar} dicts without zeros, all
        columns below `cols`.  The dicts are taken over, not copied."""
        self = cls.__new__(cls)
        self.field = field
        self.data = tuple(data)
        self.rows = len(self.data)
        self.cols = cols
        self._hash = None
        return self

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls.from_rows(field, [{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls.from_rows(field, [{i: one} for i in range(n)], n)

    @classmethod
    def from_dict(cls, field, rows, cols, data):
        """Build from {(i, j): Scalar}; indices must lie in rows x cols."""
        out = [{} for _ in range(rows)]
        for (i, j), v in data.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError("entry (%d,%d) outside a %dx%d matrix"
                                 % (i, j, rows, cols))
            if v:
                out[i][j] = v
        return cls.from_rows(field, out, cols)

    @property
    def entries(self):
        """Dense read-only view, rebuilt on every access (for serializing)."""
        z = self.field.zero
        return tuple(tuple(row.get(j, z) for j in range(self.cols))
                     for row in self.data)

    def items(self):
        """(row, col, value) of every nonzero, row by row."""
        for i, row in enumerate(self.data):
            for j, v in row.items():
                yield i, j, v

    def __getitem__(self, key):
        i, j = key
        return self.data[i].get(j, self.field.zero)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.cols == self.cols
                and other.data == self.data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.order, self.rows, self.cols,
                               tuple(frozenset(row.items()) for row in self.data)))
        return self._hash

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)

    def is_zero(self):
        return not any(self.data)

    def _merge(self, other, sign):
        require(self.rows == other.rows and self.cols == other.cols,
                "shape mismatch %dx%d and %dx%d"
                % (self.rows, self.cols, other.rows, other.cols))
        out = []
        for r1, r2 in zip(self.data, other.data):
            if not r2 or (not r1 and sign > 0):
                out.append(r1 or r2)
                continue
            row = dict(r1)
            for j, v in r2.items():
                if j in row:
                    s = row[j] + v if sign > 0 else row[j] - v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
                else:
                    row[j] = v if sign > 0 else -v
            out.append(row)
        return Matrix.from_rows(self.field, out, self.cols)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return Matrix.from_rows(self.field, [{j: -v for j, v in row.items()}
                                             for row in self.data], self.cols)

    def scale(self, s):
        if not s:
            return Matrix.zeros(self.field, self.rows, self.cols)
        return Matrix.from_rows(self.field, [{j: s * v for j, v in row.items()}
                                             for row in self.data], self.cols)

    def __mul__(self, other):
        """Matrix product."""
        require(self.cols == other.rows, "shape mismatch %dx%d * %dx%d"
                % (self.rows, self.cols, other.rows, other.cols))
        b = other.data
        return Matrix.from_rows(self.field, [_row_times(arow, b)
                                             for arow in self.data], other.cols)

    __rmul__ = scale

    def __matmul__(self, other):
        """Kronecker (tensor) product, row-major on both indices.  A row
        of either factor that is a single one (an identity factor's rows,
        say) copies the other factor's row to shifted columns instead of
        multiplying by it."""
        require(other.field is self.field,
                "Kronecker product of matrices over %r and %r"
                % (self.field, other.field))
        bc = other.cols
        one = self.field.one
        brows = [(brow, _unit_column(brow, one)) for brow in other.data]
        out = []
        for arow in self.data:
            shifted = [(j * bc, v) for j, v in arow.items()]
            if _unit_column(arow, one) is not None:
                # the other factor's rows, moved to this block's columns
                # (and shared as they are in the first block)
                (off, _), = shifted
                out.extend([{off + l: w for l, w in brow.items()}
                            for brow in other.data] if off else other.data)
                continue
            for brow, l in brows:
                if l is not None:
                    out.append({off + l: v for off, v in shifted})
                else:
                    out.append({off + l: v * w for off, v in shifted
                                for l, w in brow.items()})
        return Matrix.from_rows(self.field, out, self.cols * bc)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in row.items():
                out[j][i] = v
        return Matrix.from_rows(self.field, out, self.rows)

    def hstack(self, other):
        require(self.rows == other.rows, "hstack of %d rows and %d rows"
                % (self.rows, other.rows))
        off = self.cols
        out = []
        for r1, r2 in zip(self.data, other.data):
            row = dict(r1)
            for j, v in r2.items():
                row[off + j] = v
            out.append(row)
        return Matrix.from_rows(self.field, out, self.cols + other.cols)

    def rank(self):
        return _eliminate(self.field, self.data).rank

    def inverse(self):
        require(self.rows == self.cols, "inverse of non-square matrix")
        n = self.rows
        aug = self.hstack(Matrix.identity(self.field, n))
        rows = _eliminate(self.field, aug.data).rref_rows()
        if [p for p, _ in rows] != list(range(n)):
            raise NoSolutionError("matrix is singular")
        return Matrix.from_rows(self.field, [{j - n: v for j, v in row.items()
                                              if j >= n} for _, row in rows], n)


def _row_times(row, rows):
    """The sparse row vector `row` times the matrix with sparse rows `rows`."""
    if len(row) == 1:
        # one term per entry: products of nonzeros are nonzero
        (k, v), = row.items()
        return {j: v * w for j, w in rows[k].items()}
    acc = {}
    for k, v in row.items():
        for j, w in rows[k].items():
            if j in acc:
                acc[j] = acc[j] + v * w
            else:
                acc[j] = v * w
    return {j: s for j, s in acc.items() if s}


def kron_id_mul(A, d, X):
    """(A (x) I_d) * X without forming the Kronecker product: block i of
    the result (its rows i*d .. i*d + d - 1) is sum_k A[i,k] * block k of X.
    Row r of block i combines the rows k*d + r of X."""
    require(A.cols * d == X.rows, "shape mismatch (%dx%d (x) I_%d) * %dx%d"
            % (A.rows, A.cols, d, X.rows, X.cols))
    require(A.field is X.field, "product of matrices over %r and %r"
            % (A.field, X.field))
    strided = [X.data[r::d] for r in range(d)]
    return Matrix.from_rows(A.field, [_row_times(arow, rows)
                                      for arow in A.data for rows in strided],
                            X.cols)


def id_kron_mul(n, B, X):
    """(I_n (x) B) * X without forming the Kronecker product: block h of
    the result is B * block h of X (its rows h*B.cols .. (h+1)*B.cols - 1)."""
    require(n * B.cols == X.rows, "shape mismatch (I_%d (x) %dx%d) * %dx%d"
            % (n, B.rows, B.cols, X.rows, X.cols))
    require(B.field is X.field, "product of matrices over %r and %r"
            % (B.field, X.field))
    q = B.cols
    blocks = [X.data[h * q:(h + 1) * q] for h in range(n)]
    return Matrix.from_rows(B.field, [_row_times(brow, block)
                                      for block in blocks for brow in B.data],
                            X.cols)


def _unit_column(row, one):
    """j if the sparse row is the single entry `one` at column j, else None
    (a Scalar's form is unique, so its coefficients decide)."""
    if len(row) == 1:
        (j, v), = row.items()
        if v.den == 1 and v.num == one.num:
            return j
    return None


# ---------------------------------------------------------------------------
# sparse elimination core
# ---------------------------------------------------------------------------

class SparseEliminator:
    """Incremental exact Gaussian elimination on sparse row vectors.

    Rows are dicts {column: Scalar}.  `add` forward-reduces a vector against
    the current echelon rows and installs it (normalized) if independent.
    `rref_rows` back-substitutes once and returns the canonical reduced
    echelon basis of the accumulated row space, sorted by pivot.  The final
    basis depends only on the row space, not on insertion order.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> row dict (row[pivot] == 1)

    def add(self, vec):
        """Reduce vec (dict, consumed) into the basis; True if rank grew."""
        rows = self.rows
        while vec:
            p = min(vec)
            c = vec[p]
            if not c:
                del vec[p]
                continue
            row = rows.get(p)
            if row is None:
                inv = c.inverse()
                rows[p] = {k: v * inv for k, v in vec.items() if v}
                return True
            nc = -c
            for k, v in row.items():
                if k in vec:
                    nv = vec[k] + nc * v
                    if nv:
                        vec[k] = nv
                    else:
                        del vec[k]
                else:
                    vec[k] = nc * v
        return False

    @property
    def rank(self):
        return len(self.rows)

    def rref_rows(self):
        """Canonical reduced rows as a list of (pivot, row-dict), pivot ascending."""
        pivs = sorted(self.rows)
        reduced = {}
        for p in reversed(pivs):
            row = dict(self.rows[p])
            for k in [k for k in row if k != p and k in reduced]:
                c = row.pop(k)
                if c:
                    nc = -c
                    for kk, vv in reduced[k].items():
                        if kk == k:
                            continue
                        if kk in row:
                            nv = row[kk] + nc * vv
                            if nv:
                                row[kk] = nv
                            else:
                                del row[kk]
                        else:
                            row[kk] = nc * vv
            reduced[p] = row
        return [(p, reduced[p]) for p in pivs]


def _is_prime(n):
    """Miller-Rabin with bases 2, 3, 5, 7: exact below 3,215,031,751."""
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _modp_primes(field):
    """(p, r) for the primes p = 1 (mod the field order) above 2^30, in
    increasing order, with r the first root of Phi_n mod p found by
    x -> x^((p-1)/n).  zeta -> r is then a ring map from the elements of
    the field whose denominators p does not divide onto Z/p."""
    n = field.order
    p = (2 ** 30 // n + 1) * n + 1
    while True:
        if _is_prime(p):
            for a in range(2, p):
                r = pow(a, (p - 1) // n, p)
                if sum(c * pow(r, i, p) for i, c in enumerate(field.modulus)) % p == 0:
                    yield p, r
                    break
        p += n


class _ModpEliminator:
    """SparseEliminator's forward reduction on images mod a prime p.

    `add` maps a sparse row of Scalars through zeta -> root and raises
    ZeroDivisionError if p divides a coefficient's denominator.  A ring map
    never raises rank, so `rank` bounds the rank over the field from below.
    """

    def __init__(self, field, p, root):
        self.p = p
        self.powers = [pow(root, i, p) for i in range(field.degree)]
        self.rows = {}  # pivot column -> row {column: int}, row[pivot] == 1
        # id(Scalar) -> (Scalar, image); holding the Scalar keeps its id
        # from being reused, and ids hash without comparing coefficients
        self._images = {}

    def image(self, s):
        hit = self._images.get(id(s))
        if hit is None:
            hit = self._images[id(s)] = (s, self._map(s))
        return hit[1]

    def _map(self, s):
        # s.den is the lcm of the coefficients' reduced denominators, so p
        # divides it iff p divides one of them
        p = self.p
        if s.den % p == 0:
            raise ZeroDivisionError("p divides a denominator")
        return sum(map(_mul, s.num, self.powers)) * pow(s.den, -1, p) % p

    def add(self, vec):
        """Reduce the image of vec (not consumed); True if rank grew."""
        p, rows, image = self.p, self.rows, self.image
        vec = {k: x for k, x in ((k, image(v)) for k, v in vec.items()) if x}
        while vec:
            piv = min(vec)
            row = rows.get(piv)
            if row is None:
                inv = pow(vec[piv], -1, p)
                rows[piv] = {k: x * inv % p for k, x in vec.items()}
                return True
            c = p - vec[piv]
            for k, x in row.items():
                x = (vec.get(k, 0) + c * x) % p
                if x:
                    vec[k] = x
                else:
                    vec.pop(k, None)
        return False

    @property
    def rank(self):
        return len(self.rows)


def _eliminate(field, rows):
    """A SparseEliminator fed copies of the given sparse rows."""
    elim = SparseEliminator(field)
    for row in rows:
        elim.add(dict(row))
    return elim


def _null_space(field, ncols, rref_rows):
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


class QuotientPresentation:
    """An ambient space modulo the column span of a relation matrix.

    The quotient has one basis vector per free coordinate, the ambient
    coordinates not used as pivots by the reduced relation basis; the
    projection is the identity on them and kills the relations, and
    rank(relations) + quotient_dim = ambient_dim.  Presentations are
    canonical given the relation span.
    """

    def __init__(self, ambient_dim, relation_matrix, free, projection):
        self.ambient_dim = ambient_dim
        self.relation_matrix = relation_matrix
        self.free = free
        self.projection = projection
        self.verify()

    @property
    def quotient_dim(self):
        return len(self.free)

    def verify(self):
        q, amb = self.quotient_dim, self.ambient_dim
        require(self.projection.rows == q and self.projection.cols == amb,
                "projection is not quotient x ambient")
        free_pos = {j: k for k, j in enumerate(self.free)}
        require(len(free_pos) == q and all(0 <= j < amb for j in free_pos),
                "free coordinates are not distinct ambient coordinates")
        one = self.projection.field.one
        require(all({free_pos[j]: v for j, v in row.items() if j in free_pos}
                    == {k: one} for k, row in enumerate(self.projection.data)),
                "projection is not the identity on the free coordinates")
        rel = self.relation_matrix
        require(not rel.cols or rel.rows == amb, "shape mismatch %dx%d * %dx%d"
                % (q, amb, rel.rows, rel.cols))
        require(not rel.cols
                or _kills_relations(self.projection, rel, self.free, one),
                "projection does not kill the relations")
        # the relation columns are reduced: column k is 1 at its own pivot
        # row and 0 at every other column's, so the pivot rows are unit rows
        # e_k, one for each k, and the rank is the column count
        unit_rows = {k for row in rel.data if len(row) == 1
                     for k, v in row.items() if v == one}
        require(len(unit_rows) == rel.cols,
                "relation columns are not in reduced form")
        require(rel.cols + q == amb,
                "relation rank + quotient dimension != ambient dimension")


def _kills_relations(P, R, free, one):
    """Whether P * R == 0, for P the identity on the coordinates `free`.

    Row h of P * R is row free[h] of R plus the sum of P[h, j] times row j
    of R over the other coordinates j.  On reduced relations row j is the
    unit e_k of the column k whose pivot is j, so it contributes P[h, j] at
    k, and P * R == 0 says that each relation column k, on the free
    coordinates, is minus its pivot's projection column: a comparison of
    entries, not a product.  Rows of R that are not units are multiplied
    out, so the answer is exact for any R."""
    free_at = set(free)
    rel = R.data
    for prow, j0 in zip(P.data, free):
        image = {}
        for j, w in prow.items():
            if j in free_at:
                continue
            rrow = rel[j]
            if len(rrow) == 1:
                (k, v), = rrow.items()
                terms = ((k, w if v == one else w * v),)
            else:
                terms = [(k, w * v) for k, v in rrow.items()]
            for k, x in terms:
                image[k] = image[k] + x if k in image else x
        target = rel[j0]
        image = {k: x for k, x in image.items() if x}
        if len(image) != len(target) or any(
                image.get(k) != -v for k, v in target.items()):
            return False
    return True


def cokernel_from_rref(field, ambient_dim, rref_rows):
    """Canonical quotient presentation from the reduced relation row basis:
    projection row k is null-space vector k of the reduced rows."""
    free, proj = _null_space(field, ambient_dim, rref_rows)
    rel = [{} for _ in range(ambient_dim)]
    for k, (_, row) in enumerate(rref_rows):
        for j, v in row.items():
            rel[j][k] = v
    return QuotientPresentation(
        ambient_dim=ambient_dim,
        relation_matrix=Matrix.from_rows(field, rel, len(rref_rows)),
        free=free,
        projection=Matrix.from_rows(field, proj, ambient_dim),
    )


# ---------------------------------------------------------------------------
# solving for unknown maps
# ---------------------------------------------------------------------------

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


def read_off(field, constraints, shape):
    """Solve X * B_t = C_t for X of the given (rows, cols) shape, exactly:
    the same X, or the same error, as solve_product_constraints on the
    groups ([(identity, B_t)], C_t).

    The columns of B_1, B_2, ... are streamed into an eliminator until
    their rank reaches cols; on those columns J the only candidate is
    X = C_J * B_J^-1, and X * B_t == C_t is then required for every t,
    which decides consistency.  If the columns fall short of rank cols, X
    is read off the eliminator's pivot rows (zero on the others): it
    solves the system iff any X does, and then X is not unique."""
    r, c = shape
    for B, C in constraints:
        require(B.rows == c and C.rows == r and C.cols == B.cols,
                "constraint shape mismatch")
    elim = SparseEliminator(field)
    picked_B, picked_C = [], []  # the columns J of the B_t and C_t
    for B, C in constraints:
        if elim.rank == c:
            break
        C_cols = None
        for j, col in enumerate(B.transpose().data):
            if col and elim.add(dict(col)):
                if C_cols is None:
                    C_cols = C.transpose().data
                picked_B.append(col)
                picked_C.append(C_cols[j])
                if elim.rank == c:
                    break
    # B_J restricted to the pivot rows is invertible: the eliminator's rows
    # are triangular combinations of the picked columns with unit pivots
    pivots = sorted(elim.rows)
    square = Matrix.from_rows(field, [{k: col[p] for k, col in enumerate(picked_B)
                                       if p in col} for p in pivots], len(pivots))
    C_J = Matrix.from_rows(field, picked_C, r).transpose()
    X_J = C_J * square.inverse()
    X = Matrix.from_rows(field, [{pivots[k]: v for k, v in row.items()}
                                 for row in X_J.data], c)
    if any(X * B != C for B, C in constraints):
        raise NoSolutionError("constraints are inconsistent")
    if r and elim.rank < c:
        raise NonUniqueError("constraints leave %d free parameters"
                             % (r * (c - elim.rank)))
    return X
