"""Exact field arithmetic and linear algebra tests.

Cyclotomic polynomials are cross-checked against sympy as an independent
oracle; algebraic identities are asserted exactly.
"""

import math
import operator
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import bhl
from bhl.exactalg import (
    CycloField, InvalidStructureError, Matrix, NoSolutionError,
    NonUniqueError, QuotientPresentation, Scalar, _eliminate,
    _null_space, _ModpEliminator, _modp_primes, cokernel_from_rref,
    cyclotomic_polynomial, format_scalar, id_kron_mul, kron_id_mul,
    parse_scalar, read_off, solve_product_constraints,
)
from oracles import (format_scalar_by_fractions, parse_scalar_by_fractions,
                     rational_matrix, verify_presentation_by_product)


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.Symbol("x")
    for n in [1, 2, 3, 4, 5, 6, 8, 9, 12, 15]:
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert [Fraction(int(c)) for c in theirs] == ours


def test_euler_phi_degree():
    for n, phi in [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (12, 4)]:
        assert CycloField(n).degree == phi


def test_zeta_powers():
    F = CycloField(3)
    z = F.zeta()
    assert z * z * z == F.one
    assert z * z + z + 1 == F.zero
    assert F.zeta(2) == z * z
    assert F.zeta(5) == z * z


def test_rational_arithmetic():
    F = CycloField(1)
    a = F.scalar(Fraction(1, 2))
    b = F.scalar(Fraction(1, 3))
    assert a + b == F.scalar(Fraction(5, 6))
    assert a * b == F.scalar(Fraction(1, 6))
    assert a / b == F.scalar(Fraction(3, 2))


def test_roots_of_unity_embedding():
    # -1 exists in every cyclotomic field
    F = CycloField(1)
    assert F.root_of_unity(2, 1) == F.scalar(-1)
    assert F.root_of_unity(2, 0) == F.one
    F3 = CycloField(3)
    assert F3.root_of_unity(3, 1) == F3.zeta()
    assert F3.root_of_unity(3, 4) == F3.zeta()
    with pytest.raises(ValueError):
        F3.root_of_unity(4, 1)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(1, 20), st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_field_axioms_random(a1, a2, a3, d1, d2, d3):
    F = CycloField(12)
    x = F.scalar(Fraction(a1, d1)) + F.zeta(1) * a2 + F.zeta(2) * Fraction(a2, d2)
    y = F.zeta(3) * Fraction(a3, d3) + F.scalar(a1)
    z = F.zeta(1) * a3 - F.scalar(Fraction(a2, d1))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x:
        assert x * x.inverse() == F.one
        assert (x / x) == F.one


def test_inverse_of_zero_raises():
    F = CycloField(4)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_scalar_format_roundtrip():
    F = CycloField(12)
    samples = [F.zero, F.one, -F.one, F.zeta(1), -F.zeta(3),
               F.scalar(Fraction(-7, 3)) + F.zeta(2) * Fraction(5, 4),
               F.zeta(1) + F.zeta(2) + F.zeta(3) * 2]
    for s in samples:
        assert parse_scalar(F, format_scalar(s)) == s
    assert format_scalar(F.zero) == "0"
    assert parse_scalar(F, "1/2*z^2 - z + 3") == \
        F.zeta(2) * Fraction(1, 2) - F.zeta(1) + 3 * F.one


def test_scalar_rejects_a_wrong_coefficient_count():
    F = CycloField(5)
    for coeffs in ([], [1, 2, 3], [1, 2, 3, 4, 5]):
        with pytest.raises(InvalidStructureError):
            Scalar(F, coeffs)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv, operator.eq])
def test_mixed_field_operations_raise(op):
    pairs = [(CycloField(3).zeta(), CycloField(5).zeta()),
             (CycloField(1).one, CycloField(3).one)]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(InvalidStructureError):
                op(x, y)


# -- Scalar against sympy polynomial arithmetic modulo Phi_n ------------------

_X = sympy.Symbol("x")
ORACLE_FIELDS = [CycloField(n) for n in (1, 3, 5, 8, 12)]
# a small prime p = 1 (mod n) per field, so that p divides some drawn
# denominators
SMALL_PRIMES = {1: 7, 3: 7, 5: 11, 8: 17, 12: 13}
_RATIONALS = st.fractions(-20, 20, max_denominator=20)


def _coeffs(F):
    """Rational power-basis coefficients; zeros are frequent, so rational
    elements and zero occur too."""
    return st.lists(st.one_of(st.just(Fraction(0)), _RATIONALS),
                    min_size=F.degree, max_size=F.degree)


def _poly(coeffs):
    """Ascending rational coefficients as a sympy polynomial over QQ."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], _X, domain="QQ")


def _phi(F):
    return sympy.Poly(sympy.cyclotomic_poly(F.order, _X), _X, domain="QQ")


def _value(s):
    """s as a sympy polynomial, after checking that its form is normal."""
    assert len(s.num) == s.field.degree and s.den > 0
    assert math.gcd(*s.num, s.den) == 1
    return _poly([Fraction(n, s.den) for n in s.num])


def _small_root(F, p):
    return next(r for r in range(1, p)
                if sum(c * pow(r, i, p) for i, c in enumerate(F.modulus)) % p == 0)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_scalar_arithmetic_matches_sympy(data):
    F = data.draw(st.sampled_from(ORACLE_FIELDS))
    phi = _phi(F)
    ca, cb = data.draw(_coeffs(F)), data.draw(_coeffs(F))
    r = data.draw(_RATIONALS)
    a, b = Scalar(F, ca), Scalar(F, cb)
    pa, pb = _poly(ca), _poly(cb)
    assert _value(a) == pa
    assert _value(a + b) == pa + pb
    assert _value(a - b) == pa - pb
    assert _value(-a) == -pa
    assert _value(a * b) == (pa * pb).rem(phi)
    assert _value(a * r) == _value(r * a) == pa * _poly([r])
    assert _value(r - a) == _poly([r]) - pa
    assert (a == b) == (pa == pb) and bool(a) == (not pa.is_zero)
    # equal values reached by different routes are equal, with equal hashes
    for same in ((a + b) - b, b + a - b, a * F.one, a * 1):
        assert same == a and hash(same) == hash(a)
    if b:
        inv = pb.invert(phi)
        assert _value(b.inverse()) == inv
        assert _value(a / b) == (pa * inv).rem(phi)
        assert _value(r / b) == (_poly([r]) * inv).rem(phi)
        same = a * b / b
        assert same == a and hash(same) == hash(a)
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    assert parse_scalar(F, format_scalar(a)) == a


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_parse_scalar_reduces_every_power_like_sympy(data):
    F = data.draw(st.sampled_from(ORACLE_FIELDS))
    n = F.order
    terms = data.draw(st.lists(st.tuples(_RATIONALS, st.integers(-2 * n, 2 * n)),
                               min_size=1, max_size=4))
    text = "".join("%s%s*z^%d" % ("-" if c < 0 else "+", abs(c), k) for c, k in terms)
    # z^k is zeta^k for every integer k, negative ones included
    ref = sum((_poly([c]) * sympy.Poly(_X ** (k % n), _X, domain="QQ")
               for c, k in terms), _poly([Fraction(0)]))
    s = parse_scalar(F, text)
    assert _value(s) == ref.rem(_phi(F))
    assert parse_scalar(F, format_scalar(s)) == s


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_modp_image_is_the_coefficientwise_map(data):
    F = data.draw(st.sampled_from(ORACLE_FIELDS))
    coeffs = data.draw(_coeffs(F))
    s = Scalar(F, coeffs)
    small = SMALL_PRIMES[F.order]
    for p, root in (next(_modp_primes(F)), (small, _small_root(F, small))):
        elim = _ModpEliminator(F, p, root)
        if any(c.denominator % p == 0 for c in coeffs):
            with pytest.raises(ZeroDivisionError):
                elim.image(s)
        else:
            assert elim.image(s) == sum(
                c.numerator * pow(c.denominator, -1, p) * pow(root, i, p)
                for i, c in enumerate(coeffs)) % p
    # a denominator divisible by p anywhere raises
    elim = _ModpEliminator(F, small, _small_root(F, small))
    with pytest.raises(ZeroDivisionError):
        elim.image(Scalar(F, coeffs[:-1] + [Fraction(1, small)]))


def rref_rows(m):
    """The reduced row basis of m's row space, as the engine computes it."""
    return _eliminate(m.field, m.data).rref_rows()


def kernel(m):
    """m's null space through the path `hom_space` takes, its basis
    vectors as columns."""
    _, basis = _null_space(m.field, m.cols, rref_rows(m))
    return Matrix.from_rows(m.field, basis, m.cols).transpose()


def cokernel(m):
    """The row-index space of m modulo the span of m's columns."""
    return cokernel_from_rref(m.field, m.rows, rref_rows(m.transpose()))


def test_rref_worked_example():
    F = CycloField(1)
    m = rational_matrix(F, [[2, 4], [1, 2]])
    assert rref_rows(m) == [(0, {0: F.one, 1: F.scalar(2)})]


def test_rref_identity_fixed():
    F = CycloField(3)
    m = Matrix.identity(F, 4)
    assert rref_rows(m) == [(p, {p: F.one}) for p in range(4)]


def test_rref_idempotent_random():
    rng = random.Random(7)
    F = CycloField(4)
    for _ in range(10):
        m = Matrix(F, [[F.scalar(rng.randint(-3, 3)) + F.zeta() * rng.randint(-2, 2)
                        for _ in range(5)] for _ in range(4)])
        rows = rref_rows(m)
        r = Matrix.from_rows(F, [row for _, row in rows], m.cols)
        assert rref_rows(r) == rows


def test_kernel_worked_example():
    F = CycloField(1)
    m = rational_matrix(F, [[1, 1], [1, 1]])
    k = kernel(m)
    assert k.cols == 1
    assert (m * k).is_zero()
    # spanned by (1, -1)
    assert k[0, 0] * F.scalar(-1) == k[1, 0]
    assert k[0, 0] != F.zero


def test_kernel_invertible_and_zero():
    F = CycloField(1)
    assert kernel(rational_matrix(F, [[1, 2], [3, 4]])).cols == 0
    k = kernel(Matrix.zeros(F, 2, 3))
    assert k.cols == 3 and k == Matrix.identity(F, 3)


def test_kernel_membership_random():
    rng = random.Random(11)
    F = CycloField(3)
    for _ in range(8):
        m = Matrix(F, [[F.scalar(rng.randint(-2, 2)) + F.zeta() * rng.randint(-2, 2)
                        for _ in range(6)] for _ in range(3)])
        k = kernel(m)
        assert (m * k).is_zero() or k.cols == 0
        assert len(rref_rows(m)) + k.cols == m.cols


def test_cokernel_worked_examples():
    F = CycloField(1)
    # identity relations: nothing survives
    assert cokernel(Matrix.identity(F, 3)).quotient_dim == 0
    # no relations: everything survives
    q = cokernel(Matrix.zeros(F, 3, 2))
    assert q.quotient_dim == 3
    assert q.projection == Matrix.identity(F, 3)
    # glue the two coordinates of dim 2 along (1,1)^T
    q = cokernel(rational_matrix(F, [[1], [1]]))
    assert q.quotient_dim == 1
    assert q.projection * rational_matrix(F, [[1], [1]]) == Matrix.zeros(F, 1, 1)


def test_quotient_presentation_invariants_random():
    rng = random.Random(23)
    F = CycloField(1)
    for _ in range(10):
        rows, cols = rng.randint(1, 6), rng.randint(0, 6)
        m = rational_matrix(F, [[rng.randint(-2, 2) for _ in range(cols)]
                                     for _ in range(rows)])
        q = cokernel(m)
        assert isinstance(q, QuotientPresentation)
        # verify() ran at construction; spot-check the rank identity again
        assert q.relation_matrix.rank() + q.quotient_dim == q.ambient_dim
        if cols:
            assert (q.projection * m).is_zero()


def test_quotient_presentation_rejects_relations_without_unit_pivots():
    F = CycloField(1)
    proj = rational_matrix(F, [[1, -1]])
    # relations (2, 2)^T: rank 1 and killed by the projection, but not
    # reduced, so the rank is not proved
    with pytest.raises(InvalidStructureError):
        QuotientPresentation(2, rational_matrix(F, [[2], [2]]), [0], proj)
    # relations (1, 1)^T twice: rank 1 with two columns
    with pytest.raises(InvalidStructureError):
        QuotientPresentation(2, rational_matrix(F, [[1, 1], [1, 1]]), [],
                             Matrix.zeros(F, 0, 2))
    # a free coordinate outside the ambient space
    with pytest.raises(InvalidStructureError):
        QuotientPresentation(2, rational_matrix(F, [[1], [1]]), [2], proj)
    pres = QuotientPresentation(2, rational_matrix(F, [[1], [1]]), [0], proj)
    assert pres.relation_matrix.rank() == 1


def test_solve_unknown_map_basic():
    F = CycloField(1)
    I2 = Matrix.identity(F, 2)
    B = rational_matrix(F, [[1, 1], [0, 1]])
    C = rational_matrix(F, [[2, 3], [4, 9]])
    X = solve_product_constraints(F, [([(I2, B)], C)], (2, 2))
    assert X * B == C
    assert X == C * B.inverse()


def test_solve_unknown_map_two_sided():
    F = CycloField(3)
    A = Matrix(F, [[F.zeta(), F.zero], [F.one, F.one]])
    B = Matrix(F, [[F.one, F.zeta(2)], [F.zero, F.one]])
    X0 = Matrix(F, [[F.one, F.zeta()], [F.zeta(2), F.scalar(3)]])
    C = A * X0 * B
    X = solve_product_constraints(F, [([(A, B)], C)], (2, 2))
    assert X == X0


def test_solve_unknown_map_no_solution():
    F = CycloField(1)
    I2 = Matrix.identity(F, 2)
    C1 = rational_matrix(F, [[1, 0], [0, 1]])
    C2 = rational_matrix(F, [[0, 1], [1, 0]])
    with pytest.raises(NoSolutionError):
        solve_product_constraints(
            F, [([(I2, I2)], C1), ([(I2, I2)], C2)], (2, 2))


def test_solve_unknown_map_underdetermined():
    F = CycloField(1)
    A = rational_matrix(F, [[1, 0]])  # only sees the first row of X
    B = Matrix.identity(F, 2)
    C = rational_matrix(F, [[1, 2]])
    with pytest.raises(NonUniqueError):
        solve_product_constraints(F, [([(A, B)], C)], (2, 2))


def test_solve_sum_of_products():
    # X + T*X*T = C has a unique solution when the map X -> X + TXT is regular
    F = CycloField(1)
    I2 = Matrix.identity(F, 2)
    T = rational_matrix(F, [[2, 0], [0, 3]])
    X0 = rational_matrix(F, [[1, 2], [3, 5]])
    C = X0 + T * X0 * T
    X = solve_product_constraints(F, [([(I2, I2), (T, T)], C)], (2, 2))
    assert X + T * X * T == C
    assert X == X0


def test_solve_sum_of_products_singular_operator():
    # with T the swap, X -> X + TXT has a 2-dim kernel: underdetermined
    F = CycloField(1)
    I2 = Matrix.identity(F, 2)
    T = rational_matrix(F, [[0, 1], [1, 0]])
    X0 = rational_matrix(F, [[1, 2], [3, 5]])
    C = X0 + T * X0 * T
    with pytest.raises(NonUniqueError):
        solve_product_constraints(F, [([(I2, I2), (T, T)], C)], (2, 2))


def test_matrix_kron_mixed_product():
    F = CycloField(4)
    A = Matrix(F, [[F.one, F.zeta()], [F.zero, F.one]])
    B = Matrix(F, [[F.zeta(3), F.one]])
    Cm = Matrix(F, [[F.one], [F.zeta(2)]])
    D = Matrix(F, [[F.scalar(2)], [F.zeta()]])
    # (A @ B)(C @ D) == (AC) @ (BD)
    assert (A @ B) * (Cm @ D) == (A * Cm) @ (B * D)


def test_matrix_inverse():
    F = CycloField(3)
    A = Matrix(F, [[F.one, F.zeta()], [F.zeta(2), F.scalar(2)]])
    Ai = A.inverse()
    assert A * Ai == Matrix.identity(F, 2)
    with pytest.raises(NoSolutionError):
        rational_matrix(F, [[1, 1], [2, 2]]).inverse()


def test_matrix_equality_and_hash_compare_shape():
    F = CycloField(1)
    assert Matrix.zeros(F, 0, 3) != Matrix.zeros(F, 0, 5)
    assert Matrix.zeros(F, 3, 0) != Matrix.zeros(F, 5, 0)
    assert hash(Matrix.zeros(F, 0, 3)) != hash(Matrix.zeros(F, 0, 5))
    assert len({Matrix.zeros(F, 0, 3), Matrix.zeros(F, 0, 5)}) == 2
    # equal entries stored in a different order are equal, with equal hashes
    a = Matrix.from_dict(F, 2, 2, {(0, 0): F.one, (0, 1): F.scalar(2)})
    b = Matrix.from_dict(F, 2, 2, {(0, 1): F.scalar(2), (0, 0): F.one})
    assert a == b and hash(a) == hash(b)


def test_from_dict_rejects_indices_outside_the_shape():
    F = CycloField(1)
    for key in [(-1, 0), (0, -1), (2, 0), (0, 2), (5, 5)]:
        with pytest.raises(ValueError):
            Matrix.from_dict(F, 2, 2, {key: F.one})
    m = Matrix.from_dict(F, 2, 2, {(1, 0): F.one, (0, 1): F.zero})
    assert m == rational_matrix(F, [[0, 0], [1, 0]])
    assert m.data == ({}, {0: F.one})


# -- sparse Matrix against a dense reference --------------------------------
# The reference works on plain lists of rows of Scalars, with a given shape
# so that 0 x k and k x 0 matrices keep their column count.

def _ref_mul(F, a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), F.zero)
             for j in range(cols)] for row in a]


def _ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _ref_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def _ref_echelon(F, a, cols):
    """Gauss-Jordan elimination; returns (reduced rows, rank)."""
    g = [list(row) for row in a]
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(g)) if g[i][c]), None)
        if piv is None:
            continue
        g[rank], g[piv] = g[piv], g[rank]
        inv = g[rank][c].inverse()
        g[rank] = [x * inv for x in g[rank]]
        for i in range(len(g)):
            if i != rank and g[i][c]:
                f = g[i][c]
                g[i] = [x - f * y for x, y in zip(g[i], g[rank])]
        rank += 1
    return g, rank


def _ref_inverse(F, a, n):
    eye = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    g, rank = _ref_echelon(F, [ra + re for ra, re in zip(a, eye)], 2 * n)
    if any(not g[i][i] for i in range(n)):
        return None
    return [row[n:] for row in g]


def _scalars(F):
    nonzero = st.lists(st.integers(-2, 2), min_size=F.degree,
                       max_size=F.degree).map(lambda cs: Scalar(F, cs))
    return st.one_of(st.just(F.zero), nonzero)


@st.composite
def _grids(draw, F, rows, cols):
    grid = draw(st.lists(st.lists(_scalars(F), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    # blank one row and one column, so zero rows and columns always occur
    if rows and draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))] = [F.zero] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in grid:
            row[j] = F.zero
    return grid


def _check_sparse(m, grid, rows, cols):
    assert (m.rows, m.cols) == (rows, cols)
    assert m.entries == tuple(tuple(row) for row in grid)
    for row in m.data:
        assert all(row.values()) and all(0 <= j < cols for j in row)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sparse_matrix_ops_match_dense_reference(data):
    F = data.draw(st.sampled_from([CycloField(1), CycloField(5)]))
    r, k, c, p, q, n = (data.draw(st.integers(0, 4)) for _ in range(6))
    a = data.draw(_grids(F, r, k))
    a2 = data.draw(_grids(F, r, k))
    b = data.draw(_grids(F, k, c))
    d = data.draw(_grids(F, p, q))
    s = data.draw(_grids(F, n, n))
    A, A2, B, D, S = (Matrix(F, g, cols=w) for g, w in
                      ((a, k), (a2, k), (b, c), (d, q), (s, n)))
    _check_sparse(A, a, r, k)
    _check_sparse(A * B, _ref_mul(F, a, b, k, c), r, c)
    # [A | A] * [B ; -B] = 0: every sum of products cancels
    neg_b = [[-x for x in row] for row in b]
    _check_sparse(A.hstack(A) * Matrix(F, b + neg_b, cols=c),
                  [[F.zero] * c for _ in range(r)], r, c)
    _check_sparse(A @ D, _ref_kron(a, d), r * p, k * q)
    _check_sparse(A + A2, [[x + y for x, y in zip(ra, rb)]
                           for ra, rb in zip(a, a2)], r, k)
    _check_sparse(A - A2, [[x - y for x, y in zip(ra, rb)]
                           for ra, rb in zip(a, a2)], r, k)
    _check_sparse(A - A, [[F.zero] * k for _ in range(r)], r, k)
    _check_sparse(A.transpose(), _ref_transpose(a, k), k, r)
    assert A.rank() == _ref_echelon(F, a, k)[1]
    ref_inv = _ref_inverse(F, s, n)
    if ref_inv is None:
        with pytest.raises(NoSolutionError):
            S.inverse()
    else:
        _check_sparse(S.inverse(), ref_inv, n, n)


# -- scalar literals against the Fraction oracle ------------------------------

_DIGITS = st.text("0123456789", min_size=1, max_size=3)
# integers, p/q, decimals, and forms only Fraction itself reads (an exponent,
# underscores, padding) or nobody does (a zero denominator, a lone dot)
_COEFFICIENT = st.one_of(
    _DIGITS,
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    st.builds("{}.{}".format, _DIGITS, _DIGITS),
    st.builds("{}.".format, _DIGITS),
    st.builds(".{}".format, _DIGITS),
    st.builds("{}e{}".format, _DIGITS, st.sampled_from(["", "-", "+"])
              .flatmap(lambda s: _DIGITS.map(lambda d: s + d))),
    st.builds("{}_{}".format, _DIGITS, _DIGITS),
    st.sampled_from([".", "/", "1/", "/2", "1//2", "1.2.3", "1/2/3", "1.5/2",
                     "+", "-", "--1", "+-2", "1e", "\t3", "nan", "1/-2"]),
)
_TERM = st.tuples(st.sampled_from(["", "+", "-"]), _COEFFICIENT,
                  st.sampled_from(["", "*z", "z", "*z^2", "*z^-3", "*z^7", "z^"]))


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_scalar_literals_read_and_write_as_fractions_do(data):
    F = data.draw(st.sampled_from([CycloField(1), CycloField(5), CycloField(12)]))
    terms = data.draw(st.lists(_TERM, min_size=1, max_size=3))
    text = "".join(sign + coef + z for sign, coef, z in terms)
    got = _outcome(parse_scalar, F, text)
    assert got == _outcome(parse_scalar_by_fractions, F, text), text
    if isinstance(got, Scalar):
        assert format_scalar(got) == format_scalar_by_fractions(got)
    coeffs = data.draw(st.lists(_RATIONALS, min_size=F.degree,
                                max_size=F.degree))
    s = Scalar(F, coeffs)
    assert format_scalar(s) == format_scalar_by_fractions(s)
    assert parse_scalar(F, format_scalar(s)) == s


def test_fractions_and_ints_embed_alike():
    F = CycloField(5)
    assert F.scalar(Fraction(6, 4)) == Scalar(F, [Fraction(3, 2), 0, 0, 0])
    assert F.scalar(3) == 3 * F.one == F.one * Fraction(3)
    assert F.zeta() * Fraction(1, 2) + Fraction(-1, 2) * F.zeta() == F.zero
    with pytest.raises(TypeError):
        F.one * 0.5  # a float is no exact rational


# -- identity-aware Kronecker products ----------------------------------------

@st.composite
def _with_unit_rows(draw, F, rows, cols):
    """A grid whose rows are often a single one (as identity rows are)."""
    grid = draw(_grids(F, rows, cols))
    for i in range(rows):
        if cols and draw(st.booleans()):
            j = draw(st.integers(0, cols - 1))
            grid[i] = [F.one if k == j else F.zero for k in range(cols)]
    return grid


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_kron_with_identity_factors_matches_entrywise_definition(data):
    F = data.draw(st.sampled_from([CycloField(1), CycloField(5)]))
    r, k, p, q, n = (data.draw(st.integers(0, 4)) for _ in range(5))
    a = data.draw(_with_unit_rows(F, r, k))
    d = data.draw(_grids(F, p, q))
    A, D = Matrix(F, a, cols=k), Matrix(F, d, cols=q)
    eye = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    I = Matrix.identity(F, n)
    _check_sparse(A @ D, _ref_kron(a, d), r * p, k * q)
    _check_sparse(D @ A, _ref_kron(d, a), p * r, q * k)
    _check_sparse(I @ D, _ref_kron(eye, d), n * p, n * q)
    _check_sparse(D @ I, _ref_kron(d, eye), p * n, q * n)
    _check_sparse(I @ A @ I, _ref_kron(_ref_kron(eye, a), eye),
                  n * r * n, n * k * n)


def test_kron_of_mixed_fields_still_raises():
    I3 = Matrix.identity(CycloField(3), 1)
    I5 = Matrix.identity(CycloField(5), 1)
    with pytest.raises(InvalidStructureError):
        I3 @ Matrix(CycloField(5), [[CycloField(5).zeta()]])
    with pytest.raises(InvalidStructureError):
        I3 @ I5


# -- whiskered products --------------------------------------------------------

@given(st.data())
@settings(max_examples=80, deadline=None)
def test_whiskered_products_match_kronecker_then_multiply(data):
    F = data.draw(st.sampled_from([CycloField(1), CycloField(5)]))
    r, k, d, c = (data.draw(st.integers(0, 3)) for _ in range(4))
    A = Matrix(F, data.draw(_with_unit_rows(F, r, k)), cols=k)
    X = Matrix(F, data.draw(_grids(F, k * d, c)), cols=c)
    left = kron_id_mul(A, d, X)
    assert left == (A @ Matrix.identity(F, d)) * X
    assert all(all(row.values()) for row in left.data)
    B = Matrix(F, data.draw(_with_unit_rows(F, r, k)), cols=k)
    Y = Matrix(F, data.draw(_grids(F, d * k, c)), cols=c)
    right = id_kron_mul(d, B, Y)
    assert right == (Matrix.identity(F, d) @ B) * Y
    assert all(all(row.values()) for row in right.data)


def test_whiskered_products_check_shapes_and_fields():
    F = CycloField(1)
    A, X = Matrix.zeros(F, 2, 3), Matrix.zeros(F, 5, 2)
    with pytest.raises(InvalidStructureError, match="shape mismatch"):
        kron_id_mul(A, 2, X)
    with pytest.raises(InvalidStructureError, match="shape mismatch"):
        id_kron_mul(2, A, X)
    Z = Matrix.zeros(CycloField(5), 6, 2)
    with pytest.raises(InvalidStructureError):
        kron_id_mul(A, 2, Z)
    with pytest.raises(InvalidStructureError):
        id_kron_mul(2, A, Z)
    assert kron_id_mul(A, 2, Matrix.zeros(F, 6, 2)) == Matrix.zeros(F, 4, 2)


# -- the presentation check against the product oracle ------------------------

def _verdict(check, pres):
    """None if the check passes, else the message of its error."""
    try:
        check(pres)
    except InvalidStructureError as exc:
        return str(exc)
    return None


def _corruptions(pres, rng):
    """Copies of pres's parts with one projection entry, one relation entry
    or the free list changed; each yields (projection, relations, free)."""
    F = pres.projection.field
    P, R, free = pres.projection, pres.relation_matrix, list(pres.free)
    values = [F.zero, F.one, -F.one, F.scalar(2), F.zeta()]

    def changed(M, i, j, v):
        rows = [dict(row) for row in M.data]
        if v:
            rows[i][j] = v
        else:
            rows[i].pop(j, None)
        return Matrix.from_rows(F, rows, M.cols)

    for _ in range(40):
        i, j = rng.randrange(P.rows), rng.randrange(P.cols)
        yield changed(P, i, j, rng.choice(values)), R, free
    for _ in range(40):
        i, j = rng.randrange(R.rows), rng.randrange(R.cols)
        yield P, changed(R, i, j, rng.choice(values)), free
    for _ in range(20):
        bent = list(free)
        k = rng.randrange(len(bent))
        bent[k] = rng.choice([rng.randrange(P.cols), bent[k - 1], P.cols])
        yield P, R, bent
    yield P, R, free[:-1]


@pytest.mark.parametrize("name", ["sweedler", "nichols_cyclic:3"])
def test_presentation_check_agrees_with_the_product_oracle(name):
    from bhl.catalog import build
    from bhl.coend import compute_coend, default_diagram
    pres = compute_coend(default_diagram(build(name))).presentation
    rng = random.Random(name)
    verdicts = []
    for P, R, free in _corruptions(pres, rng):
        bent = object.__new__(QuotientPresentation)
        bent.ambient_dim, bent.relation_matrix = pres.ambient_dim, R
        bent.free, bent.projection = free, P
        verdict = _verdict(QuotientPresentation.verify, bent)
        assert verdict == _verdict(verify_presentation_by_product, bent)
        verdicts.append(verdict)
    assert None in verdicts  # a zero written over a zero changes nothing
    assert "projection does not kill the relations" in verdicts
    assert "relation columns are not in reduced form" in verdicts
    assert "projection is not the identity on the free coordinates" in verdicts


# -- the read-off against the full solve --------------------------------------

def _solution(fn, *args):
    """fn(*args), or the type and message of the engine error it raises."""
    try:
        return fn(*args)
    except (NoSolutionError, NonUniqueError) as exc:
        return type(exc), str(exc)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_read_off_matches_solve_product_constraints(data):
    F = data.draw(st.sampled_from([CycloField(1), CycloField(5)]))
    r, c = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    X0 = Matrix(F, data.draw(_grids(F, r, c)), cols=c)
    constraints = []
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, 4))
        B = Matrix(F, data.draw(_grids(F, c, k)), cols=k)
        C = X0 * B
        if data.draw(st.integers(0, 3)) == 0:  # sometimes inconsistent
            C = C + Matrix(F, data.draw(_grids(F, r, k)), cols=k)
        constraints.append((B, C))
    groups = [([(Matrix.identity(F, r), B)], C) for B, C in constraints]
    got = _solution(read_off, F, constraints, (r, c))
    assert got == _solution(solve_product_constraints, F, groups, (r, c))
    stacked = Matrix.zeros(F, c, 0)
    for B, _ in constraints:
        stacked = stacked.hstack(B)
    if stacked.rank() == c and all(X0 * B == C for B, C in constraints):
        assert got == X0  # uniquely solvable


def test_read_off_worked_examples():
    F = CycloField(1)
    B = rational_matrix(F, [[1, 1, 0], [0, 1, 1]])
    X0 = rational_matrix(F, [[2, 3], [5, 7]])
    # the first column alone has rank 1: the second constraint adds the
    # rest, and both are checked
    first = (Matrix.from_rows(F, [{0: F.one}, {}], 1), X0 * rational_matrix(F, [[1], [0]]))
    assert read_off(F, [first, (B, X0 * B)], (2, 2)) == X0
    wrong = X0 * B + rational_matrix(F, [[0, 0, 1], [0, 0, 0]])
    with pytest.raises(NoSolutionError, match="constraints are inconsistent"):
        read_off(F, [first, (B, wrong)], (2, 2))
    with pytest.raises(NonUniqueError, match="leave 2 free parameters"):
        read_off(F, [first], (2, 2))


# -- shape checks hold under python -O ----------------------------------------

SHAPE_CHECKS = textwrap.dedent("""
    from bhl.exactalg import (CycloField, InvalidStructureError, Matrix,
                              read_off, solve_product_constraints)
    F = CycloField(1)
    A, B, S = Matrix.zeros(F, 2, 3), Matrix.zeros(F, 3, 3), Matrix.zeros(F, 2, 2)
    I2 = Matrix.identity(F, 2)
    cases = [lambda: A + S, lambda: A - S, lambda: S * S * A * A,
             lambda: A.hstack(B), lambda: A.inverse(),
             lambda: solve_product_constraints(F, [([(I2, A)], A)], (3, 2)),
             lambda: solve_product_constraints(F, [([(I2, S)], A)], (2, 2)),
             lambda: read_off(F, [(S, A)], (2, 2))]
    for case in cases:
        try:
            case()
        except InvalidStructureError:
            continue
        raise SystemExit("no InvalidStructureError")
    print(len(cases))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_shape_mismatches_raise_without_asserts(flags):
    env = dict(os.environ, PYTHONPATH=str(
        Path(bhl.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable] + flags + ["-c", SHAPE_CHECKS],
                         capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["8"]
