from fractions import Fraction

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

    def test_symmetrize_yields_fractions(self):
        from wblocks.center import symmetrize

        f = symmetrize(x(1))
        assert f.terms == {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in f.terms.values())
        # an integral average comes back as int
        g = symmetrize(x(1) + x(2))
        assert g == x(1) + x(2)
        assert all(type(c) is int for c in g.terms.values())

    def test_integral_fraction_sum_becomes_int(self):
        half = MultiPoly.constant(2, 2, Fraction(1, 2)) * x(1)
        assert all(type(c) is int for c in (half + half).terms.values())
        assert type((half * 2).terms[(1, 0, 0, 0)]) is int

    def test_int_equals_fraction_of_same_value(self):
        a = MultiPoly(1, 1, {(1, 0): 3, (0, 1): -1})
        b = MultiPoly(1, 1, {(1, 0): Fraction(3), (0, 1): Fraction(-2, 2)})
        c = MultiPoly._raw(1, 1, {(1, 0): Fraction(3), (0, 1): Fraction(-1)})
        assert a == b == c
        assert a.to_json() == b.to_json() == c.to_json()
        assert repr(a) == repr(b) == repr(c)
