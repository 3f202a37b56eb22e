from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblocks.multipoly import MultiPoly


def x(i, m=2, n=2):
    return MultiPoly.x(m, n, i)


def y(j, m=2, n=2):
    return MultiPoly.y(m, n, j)


exps = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(4)))
polys = st.dictionaries(exps, st.integers(min_value=-9, max_value=9), max_size=5).map(
    lambda d: MultiPoly(2, 2, d)
)


class TestRingAxioms:
    @given(polys, polys, polys)
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, polys)
    @settings(max_examples=40)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_commutative(self, a, b):
        assert a * b == b * a


class TestCoefficientTypes:
    def test_integer_polynomials_keep_int_coefficients(self):
        f = (x(1) + -2 * y(2)) * (x(2) + y(1)) * 3
        assert f.terms and all(type(c) is int for c in f.terms.values())

    @pytest.mark.parametrize("make", [
        lambda: MultiPoly(2, 2, {(1, 0, 0, 0): Fraction(1, 2)}),
        lambda: MultiPoly(2, 2, {(1, 0, 0, 0): Fraction(2)}),
        lambda: MultiPoly(2, 2, {(1, 0, 0, 0): 1.0}),
        lambda: MultiPoly.constant(2, 2, Fraction(1, 3)),
        lambda: x(1) * Fraction(1, 2),
        lambda: Fraction(1, 2) * x(1),
        lambda: x(1) + Fraction(1, 2),
        lambda: Fraction(3) + x(1),
    ])
    def test_non_int_coefficient_or_scalar_raises(self, make):
        with pytest.raises(TypeError):
            make()
