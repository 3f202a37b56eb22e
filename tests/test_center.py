import hashlib
import json
import random
from fractions import Fraction

import pytest

from wblocks.center import (
    e_super,
    e_sym,
    h_sym,
    hc_series_coeff,
    in_I,
    in_J,
    is_symmetric,
    symmetrize,
)
from wblocks.multipoly import MultiPoly


class TestESuper:
    def test_r1(self):
        m, n = 2, 2
        expect = e_sym(m, n, 1) - h_sym(m, n, 1)
        assert e_super(1, m, n) == expect

    def test_r2_m1n1(self):
        f = e_super(2, 1, 1)
        x1 = MultiPoly.x(1, 1, 1)
        y1 = MultiPoly.y(1, 1, 1)
        assert f == y1 * y1 - x1 * y1

    def test_m_zero_collapses(self):
        for r in (1, 2, 3):
            f = e_super(r, 0, 2)
            expect = h_sym(0, 2, r) * ((-1) ** r)
            assert f == expect

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            e_super(0, 1, 1)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2)])
    def test_symmetric(self, m, n):
        for r in range(1, 5):
            assert is_symmetric(e_super(r, m, n))


class TestMembership:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_e_super_in_I(self, m, n):
        for r in range(1, 7):
            assert in_I(e_super(r, m, n), m, n)

    def test_constants_in_I(self):
        assert in_I(MultiPoly.constant(2, 2, 7), 2, 2)

    def test_x1_not_in_I(self):
        assert not in_I(MultiPoly.x(1, 1, 1), 1, 1)

    def test_in_J_with_shifted_diagonal(self):
        # passes the shifted-diagonal congruence (1, 2) without being in I
        m, n, s_minus = 1, 2, 1
        x1 = MultiPoly.x(m, n, 1)
        y1 = MultiPoly.y(m, n, 1)
        y2 = MultiPoly.y(m, n, 2)
        f = x1 * y2 - x1 * x1 * Fraction(1, 2) - y2 * y2 * Fraction(1, 2) + y1
        assert in_J(f, m, n, s_minus)
        assert not in_I(f, m, n)

    def test_in_J_no_symmetry_demand(self):
        # x1 - y1 satisfies the congruences without any symmetry
        m, n = 2, 2
        f = MultiPoly.x(m, n, 1) - MultiPoly.y(m, n, 1)
        assert in_J(f, m, n, 0)
        assert not in_I(f, m, n)


class TestSeriesRoute:
    def test_r1(self):
        m, n = 2, 3
        assert hc_series_coeff(1, m, n) == e_sym(m, n, 1) - h_sym(m, n, 1)

    def test_r2_m1n1(self):
        assert hc_series_coeff(2, 1, 1) == e_super(2, 1, 1)

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (3, 3)])
    def test_matches_e_super(self, m, n):
        for r in range(1, 7):
            assert hc_series_coeff(r, m, n) == e_super(r, m, n)


class TestIntersectionLaw:
    def test_symmetric_in_J_iff_in_I(self):
        rng = random.Random(7)
        shapes = [(1, 1, 0), (1, 2, 1), (2, 2, 0), (2, 3, 0)]
        agree = 0
        for _ in range(200):
            m, n, s_minus = rng.choice(shapes)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in range(m + n))
                if sum(e) <= 5:
                    terms[e] = Fraction(rng.randint(-4, 4))
            f = symmetrize(MultiPoly(m, n, terms))
            assert in_I(f, m, n) == in_J(f, m, n, s_minus)
            agree += 1
        assert agree == 200


def _digest(polys):
    text = json.dumps([f.to_json() for f in polys], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the sorted, compact JSON of the list r = 1..7 at (m, n) = (3, 4),
# as computed when every coefficient was a Fraction
PINNED_3_4 = "d3d6fe2f391e35627a36e9b8a88c555592ce7bfc642c9f39108305c8e46b2c3f"


def test_e_super_pinned_digest():
    assert _digest([e_super(r, 3, 4) for r in range(1, 8)]) == PINNED_3_4


def test_hc_series_coeff_pinned_digest():
    assert _digest([hc_series_coeff(r, 3, 4) for r in range(1, 8)]) == PINNED_3_4
