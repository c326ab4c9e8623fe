"""Polynomial and matrix layer: exact arithmetic and restricted inversion."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import (
    InternalInvariantError,
    MultiPoly,
    NotInvertibleInRing,
    PolyMatrix,
    PolyRing,
    poly_matrix_inv_special,
)

XY = PolyRing(("x", "y"), (False, False))
T_LAURENT = PolyRing(("t",), (True,))


def test_ring_validates_names_and_flags():
    with pytest.raises(ValueError):
        PolyRing(("x", "x"), (False, False))
    with pytest.raises(ValueError):
        PolyRing(("1bad",), (False,))
    with pytest.raises(ValueError):
        PolyRing(("x",), (False, True))


def test_zero_coefficients_are_dropped():
    x = XY.variable("x")
    assert (x - x).is_zero()
    assert (x - x).terms == {}
    assert XY.constant(0).is_zero()


def test_negative_exponent_requires_laurent_flag():
    with pytest.raises(ValueError):
        XY.monomial(1, (-1, 0))
    t = T_LAURENT.monomial(1, (-2,))
    assert str(t) == "t^-2"


def test_arithmetic_frozen_examples():
    x, y = XY.variable("x"), XY.variable("y")
    p = x * y + 2
    assert str(p * p) == "x^2*y^2 + 4*x*y + 4"
    assert str(-(x - y)) == "-x + y" or str(-(x - y)) == "y - x"
    assert (x + y) * (x - y) == x * x - y * y
    assert str(x ** 3 - XY.constant(Fraction(1, 3))) == "x^3 - 1/3"


def test_printing_is_graded_lex():
    x, y = XY.variable("x"), XY.variable("y")
    p = y + x * x * y + x + 1
    assert str(p) == "x^2*y + x + y + 1"


def test_constant_helpers():
    c = XY.constant(Fraction(5, 2))
    assert c.is_constant()
    assert c.constant_value() == Fraction(5, 2)
    x = XY.variable("x")
    assert not x.is_constant()
    with pytest.raises(ValueError):
        x.constant_value()


def test_cross_ring_operations_rejected():
    with pytest.raises(ValueError):
        XY.variable("x") + T_LAURENT.variable("t")


@pytest.mark.parametrize(
    "op",
    [operator.add, operator.mul, operator.sub, lambda p, v: v - p],
    ids=["add", "mul", "sub", "rsub"],
)
def test_unsupported_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(XY.variable("x"), 0.5)


@st.composite
def small_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[exps] = Fraction(draw(st.integers(-5, 5)))
    return MultiPoly(XY, terms)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + XY.zero() == a
    assert a * XY.one() == a


def _assert_canonical(r):
    rebuilt = MultiPoly(r.ring, r.terms)
    assert rebuilt == r
    assert hash(rebuilt) == hash(r)
    assert str(rebuilt) == str(r)
    for c in r.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


@given(
    small_polys(), small_polys(), st.integers(0, 3),
    st.lists(small_polys(), min_size=8, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_are_canonical(p, q, k, entries):
    half = Fraction(1, 2)
    for a, b in ((p, q), (p * half, q * half)):
        for r in (a + b, a - b, a * b, -a, a ** k):
            _assert_canonical(r)
    left = PolyMatrix(XY, [entries[0:2], entries[2:4]])
    right = PolyMatrix(XY, [[e * half for e in entries[4:6]], entries[6:8]])
    for row in (left * right).rows:
        for e in row:
            _assert_canonical(e)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        PolyMatrix(XY, [[1, 2], [3]])
    with pytest.raises(ValueError):
        PolyMatrix(XY, [])
    with pytest.raises(ValueError):
        PolyMatrix(XY, [[T_LAURENT.variable("t")]])


def test_matrix_multiplication_and_power():
    a = PolyMatrix(XY, [[1, 2], [0, 1]])
    assert a * a == PolyMatrix(XY, [[1, 4], [0, 1]])
    assert a ** 5 == PolyMatrix(XY, [[1, 10], [0, 1]])
    assert a ** 0 == PolyMatrix.identity(XY, 2)


def test_determinant_frozen_values():
    m = PolyMatrix(XY, [[1, 2], [2, 1]])
    assert m.det() == XY.constant(-3)
    x = XY.variable("x")
    mx = PolyMatrix(XY, [[x, 1], [1, x]])
    assert mx.det() == x * x - 1
    m3 = PolyMatrix(XY, [[2, 0, 1], [0, 1, 0], [1, 0, 1]])
    assert m3.det() == XY.constant(1)


def test_unitriangular_recognition_both_orientations():
    upper = PolyMatrix(XY, [[1, 5], [0, 1]])
    lower = PolyMatrix(XY, [[1, 0], [5, 1]])
    mixed = PolyMatrix(XY, [[1, 1], [1, 1]])
    assert upper.is_unitriangular()
    assert lower.is_unitriangular()
    assert not mixed.is_unitriangular()


def test_unitriangular_inverse_superdiagonal_and_corner():
    ring = PolyRing(("t1", "t2"), (False, False))
    t1, t2 = ring.variable("t1"), ring.variable("t2")
    zero, one = ring.zero(), ring.one()
    m = PolyMatrix(ring, [[one, t1, zero], [zero, one, t2], [zero, zero, one]])
    inv = poly_matrix_inv_special(m)
    assert inv.entry(0, 1) == -t1
    assert inv.entry(1, 2) == -t2
    assert inv.entry(0, 2) == t1 * t2
    assert (m * inv).is_identity()
    assert (inv * m).is_identity()


def test_laurent_scalar_inverse():
    t = T_LAURENT.variable("t")
    m = PolyMatrix.scalar(T_LAURENT, 2, t)
    inv = poly_matrix_inv_special(m)
    assert inv == PolyMatrix.scalar(T_LAURENT, 2, T_LAURENT.monomial(1, (-1,)))
    assert (m * inv).is_identity()


def test_scalar_monomial_with_coefficient():
    m = PolyMatrix.scalar(T_LAURENT, 3, T_LAURENT.monomial(Fraction(2, 3), (2,)))
    inv = poly_matrix_inv_special(m)
    assert (m * inv).is_identity()
    assert inv.entry(0, 0) == T_LAURENT.monomial(Fraction(3, 2), (-2,))


def test_integer_determinant_one_inverse():
    b = PolyMatrix(XY, [[1, 0], [2, 1]])
    inv = poly_matrix_inv_special(b)
    assert (b * inv).is_identity()
    m = PolyMatrix(XY, [[2, 1], [1, 1]])
    inv2 = poly_matrix_inv_special(m)
    assert inv2 == PolyMatrix(XY, [[1, -1], [-1, 2]])
    neg = PolyMatrix(XY, [[0, 1], [1, 0]])
    assert (neg * poly_matrix_inv_special(neg)).is_identity()


def test_not_invertible_cases():
    with pytest.raises(NotInvertibleInRing):
        poly_matrix_inv_special(PolyMatrix(XY, [[3, 0], [0, 1]]))
    with pytest.raises(NotInvertibleInRing):
        poly_matrix_inv_special(PolyMatrix.scalar(XY, 2, XY.variable("x")))
    with pytest.raises(NotInvertibleInRing):
        one_plus = T_LAURENT.variable("t") + 1
        poly_matrix_inv_special(PolyMatrix.scalar(T_LAURENT, 2, one_plus))
    with pytest.raises(NotInvertibleInRing):
        x = XY.variable("x")
        poly_matrix_inv_special(PolyMatrix(XY, [[x, 1], [0, 1]]))
    with pytest.raises(NotInvertibleInRing):
        half = PolyMatrix(XY, [[Fraction(1, 2), 0], [0, 2]])
        poly_matrix_inv_special(half)


@given(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
    st.integers(2, 4),
)
@settings(max_examples=40, deadline=None)
def test_random_unitriangular_inverts(a, b, c, n):
    ring = XY
    x, y = ring.variable("x"), ring.variable("y")
    rows = [
        [ring.one() if i == j else ring.zero() for j in range(n)]
        for i in range(n)
    ]
    rows[0][1] = a * x + b
    if n > 2:
        rows[1][2] = c * y
    m = PolyMatrix(ring, rows)
    inv = poly_matrix_inv_special(m)
    assert (m * inv).is_identity()
    assert (inv * m).is_identity()


def test_matrix_str_rows():
    m = PolyMatrix(XY, [[1, XY.variable("x")], [0, 1]])
    assert str(m) == "[1, x]\n[0, 1]"
