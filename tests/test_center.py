import hashlib
import inspect
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblocks import center
from wblocks.center import (
    _congruence_holds,
    e_super,
    e_sym,
    h_sym,
    hc_series_coeff,
    in_I,
    in_J,
    is_symmetric,
    symmetrize,
)
from wblocks.multipoly import MultiPoly, _acc


def neg(f):
    """-f, built from the negated term dict."""
    return MultiPoly(f.m, f.n, {k: -c for k, c in f.terms.items()})


class TestESuper:
    def test_r1(self):
        m, n = 2, 2
        expect = e_sym(m, n, 1) + neg(h_sym(m, n, 1))
        assert e_super(1, m, n) == expect

    def test_r2_m1n1(self):
        f = e_super(2, 1, 1)
        x1 = MultiPoly.x(1, 1, 1)
        y1 = MultiPoly.y(1, 1, 1)
        assert f == y1 * y1 + neg(x1 * y1)

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


def _permuted(f, perm):
    """f with the variable slots permuted: new slot i gets the exponent of
    old slot perm[i]."""
    return MultiPoly(f.m, f.n, {tuple(k[p] for p in perm): c for k, c in f.terms.items()})


def _symmetric_by_transpositions(f):
    """The reference check: f is fixed by every adjacent transposition of
    the x block and of the y block."""
    for a in itertools.chain(range(f.m - 1), range(f.m, f.m + f.n - 1)):
        perm = list(range(f.m + f.n))
        perm[a], perm[a + 1] = a + 1, a
        if _permuted(f, perm) != f:
            return False
    return True


@st.composite
def _polys_near_symmetric(draw):
    """A random polynomial, its symmetrization, or that symmetrization with
    one term removed, rescaled or added."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    exps = st.tuples(*[st.integers(0, 2)] * (m + n))
    f = MultiPoly(m, n, draw(st.dictionaries(exps, st.integers(-2, 2), max_size=5)))
    how = draw(st.sampled_from(["raw", "sym", "drop", "scale", "add"]))
    if how == "raw":
        return f
    f = symmetrize(f)
    terms = dict(f.terms)
    if how != "sym" and terms:
        k = draw(st.sampled_from(sorted(terms)))
        if how == "drop":
            del terms[k]
        elif how == "scale":
            terms[k] *= 2
    if how == "add":
        terms[draw(exps)] = draw(st.integers(1, 2))
    return MultiPoly(m, n, terms)


class TestIsSymmetric:
    @given(_polys_near_symmetric())
    @settings(max_examples=300, deadline=None)
    def test_matches_transposition_check(self, f):
        assert is_symmetric(f) == _symmetric_by_transpositions(f)

    def test_e_super_and_symmetrized(self):
        for m, n in itertools.product(range(4), repeat=2):
            for r in range(1, 6):
                assert is_symmetric(e_super(r, m, n))
        f = MultiPoly(2, 2, {(2, 0, 1, 0): 3, (0, 1, 0, 3): 1})
        assert is_symmetric(symmetrize(f)) and not is_symmetric(f)
        # the orbit sum over the 4 permutations of S_2 x S_2, each image once
        x1, x2 = MultiPoly.x(2, 2, 1), MultiPoly.x(2, 2, 2)
        y1, y2 = MultiPoly.y(2, 2, 1), MultiPoly.y(2, 2, 2)
        assert symmetrize(x1) == 2 * (x1 + x2)
        assert symmetrize(x1 + x2) == 4 * (x1 + x2)
        assert symmetrize(x1 * y1) == (x1 + x2) * (y1 + y2)

    @pytest.mark.parametrize("m,n,terms", [
        (2, 0, {(1, 0): 1}),  # x1 alone
        (2, 0, {(1, 0): 1, (0, 1): 2}),  # whole orbit, two coefficients
        (3, 1, {(2, 0, 0, 1): 1, (0, 2, 0, 1): 1}),  # x3^2 y1 missing
        (1, 3, {(0, 1, 1, 0): 1, (0, 0, 1, 1): 1}),  # y1 y3 missing
        (2, 2, {(1, 0, 1, 0): 1, (0, 1, 1, 0): 1}),  # symmetric in x, not in y
        (2, 2, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1}),  # symmetric in y, not in x
        (2, 1, {(1, 1, 0): 2, (2, 0, 0): 2, (0, 2, 0): 1}),  # x1^2, x2^2 unequal
    ])
    def test_not_symmetric(self, m, n, terms):
        f = MultiPoly(m, n, terms)
        assert not is_symmetric(f) and not _symmetric_by_transpositions(f)

    @pytest.mark.parametrize("m,n", [(0, 0), (2, 0), (0, 3), (2, 2)])
    def test_constants_and_zero(self, m, n):
        assert is_symmetric(MultiPoly(m, n))
        assert is_symmetric(MultiPoly.constant(m, n, 5))


def _product_of_variables(m, n, slots):
    out = MultiPoly.constant(m, n, 1)
    for k in slots:
        out = out * (MultiPoly.x(m, n, k + 1) if k < m else MultiPoly.y(m, n, k - m + 1))
    return out


class TestSymmetricPieces:
    @pytest.mark.parametrize("m,n", list(itertools.product(range(5), repeat=2)))
    def test_match_products_of_variables(self, m, n):
        # the reference route multiplies the variables of each monomial
        for r in range(7):
            e_ref = MultiPoly(m, n)
            for combo in itertools.combinations(range(m), r):
                e_ref = e_ref + _product_of_variables(m, n, combo)
            h_ref = MultiPoly(m, n)
            for combo in itertools.combinations_with_replacement(range(m, m + n), r):
                h_ref = h_ref + _product_of_variables(m, n, combo)
            assert e_sym(m, n, r) == e_ref, (m, n, r)
            assert h_sym(m, n, r) == h_ref, (m, n, r)
            assert (r <= m) == (e_ref.terms != {}) and (r == 0 or n > 0) == (h_ref.terms != {})
            for f in (e_sym(m, n, r), h_sym(m, n, r)):
                assert all(type(c) is int for c in f.terms.values())


def _calls_into_center(monkeypatch, fn, *args):
    """Names of the center functions that fn(*args) reaches through the
    module's attributes."""
    called = set()

    def recorder(name, f):
        def wrapped(*a, **k):
            called.add(name)
            return f(*a, **k)
        return wrapped

    for name, f in list(vars(center).items()):
        if inspect.isfunction(f) and f.__module__ == center.__name__:
            monkeypatch.setattr(center, name, recorder(name, f))
    getattr(center, fn)(*args)
    return called


def test_series_route_shares_no_piece_with_e_super(monkeypatch):
    # hc_series_coeff is the independent route to e_super: a fault in e_sym
    # or h_sym must not move both sides of verify's center criterion
    assert {"e_sym", "h_sym"} <= _calls_into_center(monkeypatch, "e_super", 5, 3, 4)
    for r in range(1, 6):
        assert not {"e_sym", "h_sym"} & _calls_into_center(monkeypatch, "hc_series_coeff", r, 3, 4)


# The derivative-and-substitute route to the congruence, kept here as the
# reference for center._congruence_holds: build df/dx_i + df/dy_j, substitute
# the polynomial y_j for x_i, and test for zero.

def _power(f, k):
    out = MultiPoly.constant(f.m, f.n, 1)
    for _ in range(k):
        out = out * f
    return out


def _ref_partial(f, var):
    out = {}
    for k, c in f.terms.items():
        if k[var]:
            out[k[:var] + (k[var] - 1,) + k[var + 1:]] = c * k[var]
    return MultiPoly(f.m, f.n, out)


def _ref_subst(f, var, g):
    out = MultiPoly(f.m, f.n)
    for k, c in f.terms.items():
        out = out + MultiPoly(f.m, f.n, {k[:var] + (0,) + k[var + 1:]: c}) * _power(g, k[var])
    return out


def _ref_congruence(f, i, j):
    g = _ref_partial(f, i - 1) + _ref_partial(f, f.m + j - 1)
    return _ref_subst(g, i - 1, MultiPoly.y(f.m, f.n, j)).terms == {}


class TestReferenceCalculus:
    # the reference route must itself be right for the comparison below to
    # mean anything
    def x(self, i):
        return MultiPoly.x(2, 2, i)

    def y(self, j):
        return MultiPoly.y(2, 2, j)

    def test_partial_x_of_product(self):
        assert _ref_partial(self.x(1) * self.y(1), 0) == self.y(1)

    def test_partial_wrong_variable(self):
        assert _ref_partial(self.x(1) * self.x(1), 2).terms == {}

    def test_subst_kills_difference(self):
        assert _ref_subst(self.x(1) + neg(self.y(1)), 0, self.y(1)).terms == {}

    def test_partial_leibniz(self):
        f = self.x(1) * self.x(1) * self.y(2) + 3 * self.x(2)
        g = self.x(1) * self.y(2)
        lhs = _ref_partial(f * g, 0)
        assert lhs == _ref_partial(f, 0) * g + f * _ref_partial(g, 0)


def _random_poly(rng, m, n, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, max_exp) for _ in range(m + n))
        # a / d with d in {1, 2, 3}, cleared of denominators
        terms[e] = rng.randint(-4, 4) * (6 // rng.choice((1, 1, 2, 3)))
    return MultiPoly(m, n, terms)


def _random_case(rng):
    """(m, n, f): a sparse random polynomial (mostly outside I and J), a
    combination of e_super products (in I), one of those plus a random
    polynomial, or a member of the congruence for one pair only: (x_i -
    y_j)^2 g + x_i^k - y_j^k with g random."""
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    kind = rng.randrange(4)
    if kind == 0:
        return m, n, _random_poly(rng, m, n)
    if kind == 3:
        x, y = MultiPoly.x(m, n, rng.randint(1, m)), MultiPoly.y(m, n, rng.randint(1, n))
        k = rng.randint(1, 3)
        d = x + neg(y)
        return m, n, d * d * _random_poly(rng, m, n, 1) + _power(x, k) + neg(_power(y, k))
    f = MultiPoly(m, n)
    for _ in range(rng.randint(1, 3)):
        # a / d with d in {1, 2, 3}, cleared of denominators
        term = MultiPoly.constant(m, n, rng.randint(-3, 3) * (6 // rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * e_super(rng.randint(1, 3), m, n)
        f = f + term
    if kind == 2:
        f = f + _random_poly(rng, m, n)
    return m, n, f


def test_congruence_matches_reference_route():
    rng = random.Random(20261018)
    verdicts = {True: 0, False: 0}
    members = {"I": 0, "symmetric I": 0}
    for _ in range(600):
        m, n, f = _random_case(rng)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                got = _congruence_holds(f, i, j)
                assert got == _ref_congruence(f, i, j), (m, n, i, j, f)
                verdicts[got] += 1
        members["I"] += in_I(f, m, n)
        # the intersection law on the symmetrized polynomial, for every
        # diagonal that fits
        g = symmetrize(f)
        in_i = in_I(g, m, n)
        members["symmetric I"] += in_i
        for s_minus in range(n - m + 1):
            assert in_J(g, m, n, s_minus) == in_i, (m, n, s_minus, f)
    assert min(verdicts.values()) > 500, verdicts
    assert min(members.values()) > 100, members


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
        f = 2 * x1 * y2 + neg(x1 * x1 + y2 * y2) + 2 * y1
        assert in_J(f, m, n, s_minus)
        assert not in_I(f, m, n)

    def test_in_J_no_symmetry_demand(self):
        # x1 - y1 satisfies the congruences without any symmetry
        m, n = 2, 2
        f = MultiPoly.x(m, n, 1) + neg(MultiPoly.y(m, n, 1))
        assert in_J(f, m, n, 0)
        assert not in_I(f, m, n)


class TestSeriesRoute:
    def test_r1(self):
        m, n = 2, 3
        assert hc_series_coeff(1, m, n) == e_sym(m, n, 1) + neg(h_sym(m, n, 1))

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
                    terms[e] = rng.randint(-4, 4)
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


# The product routes of e_super, hc_series_coeff and in_I, kept here as the
# references for the one-pass routes of center.

def _ref_e_super(r, m, n):
    """sum_s (-1)^{r-s} e_s(x) h_{r-s}(y), through MultiPoly products."""
    out = MultiPoly(m, n)
    for s in range(min(r, m) + 1):
        term = e_sym(m, n, s) * h_sym(m, n, r - s)
        out = out + (neg(term) if (r - s) % 2 else term)
    return out


def _ref_hc_series_coeff(r, m, n):
    """The u^{-r} coefficient of prod (1 + u^{-1} x_k) / prod (1 + u^{-1}
    y_k), each division a product with the geometric series of y_k."""
    series = [MultiPoly.constant(m, n, 1)] + [MultiPoly(m, n) for _ in range(r)]
    for k in range(1, m + 1):
        xk = MultiPoly.x(m, n, k)
        for d in range(r, 0, -1):
            series[d] = series[d] + series[d - 1] * xk
    for k in range(1, n + 1):
        yk = MultiPoly.y(m, n, k)
        geo = [MultiPoly.constant(m, n, 1)]
        for _ in range(r):
            geo.append(neg(geo[-1] * yk))
        new = [MultiPoly(m, n) for _ in range(r + 1)]
        for d1 in range(r + 1):
            for d2 in range(r + 1 - d1):
                new[d1 + d2] = new[d1 + d2] + series[d1] * geo[d2]
        series = new
    return series[r]


def _ref_in_I(f, m, n):
    """Symmetry plus the congruence at every pair (i, j)."""
    return is_symmetric(f) and all(_congruence_holds(f, i, j)
                                   for i in range(1, m + 1) for j in range(1, n + 1))


SHAPES_4 = list(itertools.product(range(5), repeat=2))


class TestOnePassRoutes:
    @pytest.mark.parametrize("m,n", SHAPES_4)
    def test_match_product_routes(self, m, n):
        for r in range(1, 9):
            es = e_super(r, m, n)
            assert es == _ref_e_super(r, m, n), (m, n, r)
            assert all(type(c) is int for c in es.terms.values())
            assert hc_series_coeff(r, m, n) == _ref_hc_series_coeff(r, m, n), (m, n, r)
            assert in_I(es, m, n) is _ref_in_I(es, m, n) is True, (m, n, r)

    def test_in_I_matches_all_pairs_on_symmetrized_polys(self):
        # drawn as verify's center criterion draws them
        rng = random.Random(20261019)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(m + n))
                if sum(exps) <= 5:
                    terms[exps] = rng.randint(-3, 3)
            f = symmetrize(MultiPoly(m, n, terms))
            got = in_I(f, m, n)
            assert got == _ref_in_I(f, m, n), (m, n, f)
            verdicts[got] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_symmetric_polynomial_outside_I(self):
        # x1^2 + x2^2 + y1^2 + y2^2 is symmetric; d/dx_1 + d/dy_1 gives
        # 2 x1 + 2 y1, which is 4 y1 mod (x1 - y1)
        m, n = 2, 2
        f = sum((_power(v, 2) for v in (MultiPoly.x(m, n, 1), MultiPoly.x(m, n, 2),
                                        MultiPoly.y(m, n, 1), MultiPoly.y(m, n, 2))),
                MultiPoly(m, n))
        assert is_symmetric(f)
        assert not in_I(f, m, n) and not _ref_in_I(f, m, n)


# The all-variable routes of e_super and hc_series_coeff, kept here as the
# references for the block routes of center: every term dict spans all m + n
# slots and every monomial comes from one multipoly._acc shift.

def _acc_e_super(r, m, n):
    """sum_s (-1)^{r-s} e_s(x) h_{r-s}(y), each product accumulated by
    shifting h_sym's terms by one e_sym monomial."""
    out = {}
    for s in range(min(r, m) + 1):
        h = h_sym(m, n, r - s).terms
        for k in e_sym(m, n, s).terms:
            _acc(out, h, k, -1 if (r - s) % 2 else 1)
    return MultiPoly._raw(m, n, out)


def _acc_hc_series_coeff(r, m, n):
    """The u^{-r} coefficient of prod (1 + u^{-1} x_k) / prod (1 + u^{-1}
    y_k), one series over all m + n slots."""
    series = [{(0,) * (m + n): 1}] + [{} for _ in range(r)]
    for k in range(1, m + 1):
        (xk,) = MultiPoly.x(m, n, k).terms
        for d in range(r, 0, -1):
            _acc(series[d], series[d - 1], xk)
    for k in range(1, n + 1):
        (yk,) = MultiPoly.y(m, n, k).terms
        for d in range(1, r + 1):
            _acc(series[d], series[d - 1], yk, -1)
    return MultiPoly._raw(m, n, series[r])


class TestBlockRoutes:
    @pytest.mark.parametrize("m,n", SHAPES_4)
    def test_match_all_variable_routes(self, m, n):
        for r in range(1, 9):
            for got, ref in ((e_super(r, m, n), _acc_e_super(r, m, n)),
                             (hc_series_coeff(r, m, n), _acc_hc_series_coeff(r, m, n))):
                assert (got.m, got.n) == (m, n)
                assert got.terms == ref.terms, (m, n, r)
                assert all(len(k) == m + n for k in got.terms), (m, n, r)
                assert all(type(c) is int and c in (1, -1) for c in got.terms.values())

    def test_pieces_build_raw_term_dicts(self, monkeypatch):
        # the pieces' terms are distinct monomials with coefficient 1, so
        # they are not passed through MultiPoly's validating constructor
        def forbidden(self, *args, **kwargs):
            raise AssertionError("MultiPoly.__init__")

        monkeypatch.setattr(MultiPoly, "__init__", forbidden)
        for m, n in SHAPES_4:
            for r in range(1, 9):
                e_super(r, m, n)
                hc_series_coeff(r, m, n)
        assert e_sym(3, 0, 2).terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
        assert h_sym(0, 2, 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def _slice_keyed_congruence(f, i, j):
    """The congruence with each sum keyed by (rest, s) as one tuple: the
    exponent tuple with slot y_j removed and slot x_i set to s."""
    xi, yj = i - 1, f.m + j - 1
    sums = {}
    for k, c in f.terms.items():
        s = k[xi] + k[yj]
        if s:
            key = k[:xi] + (s,) + k[xi + 1:yj] + k[yj + 1:]
            sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def _pair_members(m, n, i, j):
    """Polynomials that pass the congruence at (i, j) by construction:
    (x_i - y_j)^2 g + x_i^k - y_j^k, with g a product of the first and last
    slots' variables."""
    x, y = MultiPoly.x(m, n, i), MultiPoly.y(m, n, j)
    d = x + neg(y)
    g = MultiPoly.x(m, n, 1) * MultiPoly.y(m, n, n) + 3 * MultiPoly.x(m, n, m)
    return [d * d * g + _power(x, k) + neg(_power(y, k)) for k in (1, 2, 3)]


CONGRUENCE_SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 4), (4, 2), (3, 4)]


class TestCongruenceKeys:
    @pytest.mark.parametrize("m,n", CONGRUENCE_SHAPES)
    def test_every_pair_matches_substitution(self, m, n):
        # every (i, j), the first and last slots included, on polynomials that
        # pass the congruence at one pair and fail it at others
        verdicts = {True: 0, False: 0}
        for i0, j0 in itertools.product((1, m), (1, n)):
            polys = _pair_members(m, n, i0, j0)
            polys += [f + MultiPoly.x(m, n, m) * MultiPoly.y(m, n, 1) for f in polys]
            polys.append(e_super(3, m, n))
            for f in polys:
                for i in range(1, m + 1):
                    for j in range(1, n + 1):
                        got = _congruence_holds(f, i, j)
                        assert got == _ref_congruence(f, i, j), (m, n, i, j, f)
                        assert got == _slice_keyed_congruence(f, i, j), (m, n, i, j, f)
                        verdicts[got] += 1
        assert min(verdicts.values()) > 0, verdicts

    @pytest.mark.parametrize("m,n", CONGRUENCE_SHAPES)
    def test_rational_coefficients_cancel_across_keys(self, m, n):
        # x_i^2/2 - y_j^2/2 passes at (i, j); scaling one side, as in
        # x_i^2/2 - y_j^2/3, breaks it.  Both are cleared of denominators
        for i, j in ((1, 1), (m, n), (1, n), (m, 1)):
            x2 = _power(MultiPoly.x(m, n, i), 2)
            y2 = _power(MultiPoly.y(m, n, j), 2)
            f = x2 * 3 + y2 * -3
            g = x2 * 3 + y2 * -2
            assert _congruence_holds(f, i, j) and _ref_congruence(f, i, j)
            assert not _congruence_holds(g, i, j) and not _ref_congruence(g, i, j)


class TestWorkCounts:
    @pytest.mark.parametrize("m,n,r", [(1, 1, 2), (2, 3, 4), (3, 4, 7), (4, 2, 5)])
    def test_in_I_checks_one_pair(self, monkeypatch, m, n, r):
        calls = []

        def counted(f, i, j):
            calls.append((i, j))
            return _congruence_holds(f, i, j)

        monkeypatch.setattr(center, "_congruence_holds", counted)
        # a member, and the symmetric non-member sum_i x_i^2
        es = e_super(r, m, n)
        f = sum((_power(MultiPoly.x(m, n, i), 2) for i in range(1, m + 1)), MultiPoly(m, n))
        assert in_I(es, m, n) and not in_I(f, m, n)
        assert calls == [(1, 1), (1, 1)]

    def test_no_polynomial_products(self, monkeypatch):
        def forbidden(self, other):
            raise AssertionError("MultiPoly product")

        monkeypatch.setattr(MultiPoly, "__mul__", forbidden)
        monkeypatch.setattr(MultiPoly, "__rmul__", forbidden)
        for m, n in SHAPES_4:
            for r in range(1, 9):
                e_super(r, m, n)
                hc_series_coeff(r, m, n)


class TestShapeErrors:
    @pytest.mark.parametrize("m,n", [(-1, 2), (2, -3), (-1, -1)])
    def test_negative_m_or_n(self, m, n):
        for call in (lambda: e_super(2, m, n), lambda: hc_series_coeff(2, m, n),
                     lambda: in_I(MultiPoly(m, n), m, n), lambda: in_J(MultiPoly(m, n), m, n)):
            with pytest.raises(ValueError, match="must be >= 0"):
                call()
