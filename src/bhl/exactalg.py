"""Exact linear algebra over cyclotomic number fields.

Scalars live in Q(zeta_n), represented as residues modulo the n-th
cyclotomic polynomial: integer numerators in the power basis over one
positive common denominator, with their gcd divided out.  Phi_n is monic
with integer coefficients, so sums, products and inverses are integer
arithmetic plus one gcd.  Scalar literals are parsed and formatted with
ints too; only a literal in a rare form (an exponent, underscores) is
handed to `fractions.Fraction`, imported on first use, and an exponent is
held to Python's digit limit for int literals first.  Everything
downstream (graded categories, Hopf structure checks, coend quotients)
reduces to the handful of primitives in this module: sparse products,
`whiskered`, the one kernel for tensored maps, (I (x) f (x) I) X without the
Kronecker product, sparse elimination to reduced rows, the quotient
presentation given by its free coordinates F, P_F and P_F^-1, and
`read_off`, the one solve for an unknown linear map X from equations
X * B_t = C_t: it streams the columns of each B_t, extended by those of C_t,
into one eliminator, and reads X off the reduced rows.  Matrix inverses and
the antipode are solved through it.
All results are exact; "zero" always means identically zero.
"""

import sys
from functools import reduce
from itertools import compress, count
from math import gcd, lcm
from operator import add as _add, neg as _neg, sub as _sub


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


def canonical_int(text, signed=False):
    """The int that `text` spells as str() writes one -- ASCII digits with
    no sign, space, underscore or leading zero, plus, when `signed`, an
    optional "-" -- or None for any other spelling, or for more digits
    than int() reads.  Every integer the command line reads goes through
    here, so that each value has one spelling."""
    body = text[1:] if signed and text[:1] == "-" else text
    if not _digits(body):
        return None
    try:
        value = int(text)
    except ValueError:  # past the interpreter's int digit limit
        return None
    return value if str(value) == text else None


def _check_exponent(body):
    """ValueError, as for an int literal over Python's digit limit, if the
    exponent of the literal `body` plus its mantissa digits exceed it:
    Fraction builds 10^exponent unchecked, at a cost growing faster than
    the exponent."""
    mantissa, _, exp = body.lower().partition("e")
    exp = exp.strip().lstrip("+-").replace("_", "")
    limit = sys.get_int_max_str_digits()
    if limit and exp.isdecimal():
        digits = int(exp) + sum(map(str.isdecimal, mantissa))
        if digits > limit:
            raise ValueError("Exceeds the limit (%d digits) for integer "
                             "string conversion: value has up to %d digits"
                             % (limit, digits))


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
            _check_exponent(body)
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
        """Kronecker (tensor) product, row-major on both indices.  The
        engine forms none: every tensor product of maps is applied by
        `whiskered`."""
        require(other.field is self.field,
                "Kronecker product of matrices over %r and %r"
                % (self.field, other.field))
        bc = other.cols
        return Matrix.from_rows(self.field, [
            {j * bc + l: v * w for j, v in arow.items() for l, w in brow.items()}
            for arow in self.data for brow in other.data], self.cols * bc)

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
        elim = SparseEliminator(self.field)
        return sum(elim.add(dict(row)) for row in self.data)

    def inverse(self):
        """The X with X * self == I, read off (see `read_off`)."""
        require(self.rows == self.cols, "inverse of non-square matrix")
        n = self.rows
        return read_off(self.field, [(self, Matrix.identity(self.field, n))],
                        (n, n))


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


def whiskered(a, f, b, X):
    """(I_a (x) f (x) I_b) * X without forming the Kronecker product.

    Row (i, r, j) of the result, i < a and j < b, is the sum over k of
    f[r, k] times row (i, k, j) of X.  Only the nonzero rows of X are
    visited, each sent along its column of f, so the cost is their nonzeros.
    A row of f with a single entry copies the row of X (shared, as matrices
    share rows), scaled only when the entry is not one."""
    k, n = f.cols, f.rows
    require(a * k * b == X.rows, "shape mismatch (I_%d (x) %dx%d (x) I_%d) "
            "* %dx%d" % (a, n, k, b, X.rows, X.cols))
    require(f.field is X.field, "product of matrices over %r and %r"
            % (f.field, X.field))
    one = f.field.one
    # column kk of f: (row r, entry, or None for a one, r is f's only entry)
    columns = [[] for _ in range(k)]
    for r, frow in enumerate(f.data):
        for kk, w in frow.items():
            columns[kk].append((r * b, None if w == one else w, len(frow) == 1))
    kb, nb = k * b, n * b
    out = [{}] * (a * nb)
    sums = {}
    data = X.data
    for s in compress(count(), data):
        row = data[s]
        i, rest = divmod(s, kb)
        kk, j = divmod(rest, b)
        base = i * nb + j
        for rb, w, single in columns[kk]:
            t = base + rb
            if single:
                out[t] = row if w is None else {c: w * v for c, v in row.items()}
                continue
            acc = sums.setdefault(t, {})
            for c, v in row.items():
                x = v if w is None else w * v
                acc[c] = acc[c] + x if c in acc else x
    for t, acc in sums.items():
        out[t] = {c: v for c, v in acc.items() if v}
    return Matrix.from_rows(f.field, out, X.cols)


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


class QuotientPresentation:
    """An ambient space modulo a subspace, presented by its free
    coordinates F in ascending order, one per quotient basis vector, P_F
    and P_F^-1.  The coend's P_F is its certified candidate P at F, and its
    projection is P_F^-1 P, built block by block (see `coend`): the
    identity on F by construction once P_F^-1 P_F = I is checked."""

    def __init__(self, ambient_dim, free, p_free, p_free_inverse):
        self.ambient_dim = ambient_dim
        self.free = free
        self.p_free = p_free
        self.p_free_inverse = p_free_inverse
        self.verify()

    @property
    def quotient_dim(self):
        return len(self.free)

    def verify(self):
        q, P, inv = self.quotient_dim, self.p_free, self.p_free_inverse
        require(P.rows == P.cols == inv.rows == inv.cols == q,
                "P_F is not quotient x quotient")
        require(list(self.free) == sorted(set(self.free))
                and all(0 <= j < self.ambient_dim for j in self.free),
                "free coordinates are not ascending ambient coordinates")
        require(inv * P == Matrix.identity(P.field, q),
                "P_F^-1 is not the inverse of P_F")


# ---------------------------------------------------------------------------
# solving for unknown maps
# ---------------------------------------------------------------------------

def read_off(field, constraints, shape):
    """Solve X * B_t = C_t for X of the given (rows, cols) shape, exactly:
    the same X, or the same error and message, as the full solve of the
    equations X * B_t = C_t entry by entry (`solve_product_constraints` in
    the tests' oracles).

    Column j of each B_t, extended by column j of C_t on the coordinates
    cols .. cols+rows-1, is streamed into one eliminator until the B parts
    reach rank cols.  Every solution X satisfies [X, -I] v = 0 on each
    streamed vector v, so a vector whose B part reduces to zero while its C
    part does not proves the system inconsistent, and no such vector joins
    the basis: the rank is that of the B parts.  Row p of the reduced basis
    is then e_p, plus entries on the free coordinates when the rank falls
    short, plus sum_i X[i, p] e_(cols+i); X is read off those rows, zero on
    the free coordinates.  X * B_t == C_t is then required for every t,
    which decides the columns left unstreamed; if the rank falls short, X
    solves the system iff any X does, and then X is not unique."""
    r, c = shape
    for B, C in constraints:
        require(B.rows == c and C.rows == r and C.cols == B.cols,
                "constraint shape mismatch")
    elim = SparseEliminator(field)
    for B, C in constraints:
        if elim.rank == c:
            break
        for col, ccol in zip(B.transpose().data, C.transpose().data):
            vec = dict(col)
            for i, v in ccol.items():
                vec[c + i] = v
            # a new row's pivot is the last key of `elim.rows` (dicts keep
            # insertion order)
            if vec and elim.add(vec) and next(reversed(elim.rows)) >= c:
                raise NoSolutionError("constraints are inconsistent")
            if elim.rank == c:
                break
    out = [{} for _ in range(r)]
    for p, row in elim.rref_rows():
        for k, v in row.items():
            if k >= c:
                out[k - c][p] = v
    X = Matrix.from_rows(field, out, c)
    if any(X * B != C for B, C in constraints):
        raise NoSolutionError("constraints are inconsistent")
    if r and elim.rank < c:
        raise NonUniqueError("constraints leave %d free parameters"
                             % (r * (c - elim.rank)))
    return X
