import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblocks.laurent import ONE, LaurentQ, _addmul, qbinom, qfact, qfact_quotient, qint


def L(**kw):
    return LaurentQ({int(e): c for e, c in kw.items()})


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds`, so a division that
    never returns fails the test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


coeff_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-50, max_value=50),
    max_size=6,
)
laurents = coeff_dicts.map(LaurentQ)


def neg(a):
    """-a, built from the negated coefficient dict."""
    return LaurentQ({e: -c for e, c in a.coeffs.items()})


class TestBasics:
    def test_zero_and_equality(self):
        assert LaurentQ() == 0
        assert LaurentQ({3: 0}) == 0
        assert LaurentQ(5) == LaurentQ({0: 5})

    def test_bar_single(self):
        assert LaurentQ({1: 1}).bar() == LaurentQ({-1: 1})

    @given(laurents)
    def test_bar_involution(self, f):
        assert f.bar().bar() == f

    def test_eval1(self):
        assert LaurentQ({0: 1, 2: 1}).eval1() == 2

    def test_divexact_rejects_remainder(self):
        with pytest.raises(ValueError):
            LaurentQ({1: 1, 0: 1}).divexact(LaurentQ({1: 2}))

    @pytest.mark.parametrize(
        "num,den",
        [
            (qfact(2), qfact(3)),  # monic divisor
            (LaurentQ({2: 2, 0: 2}), LaurentQ({1: 2, 0: 2})),  # 2 divides every remainder
        ],
        ids=["monic", "non-monic"],
    )
    def test_divexact_inexact_terminates(self, num, den):
        with time_limit(5), pytest.raises(ValueError, match="inexact Laurent division"):
            num.divexact(den)

    @given(laurents, laurents)
    def test_divexact_inverts_mul(self, f, g):
        if g == 0:
            return
        assert (f * g).divexact(g) == f

    @given(laurents, laurents, st.integers(min_value=-4, max_value=4))
    def test_no_zero_coefficient_stored(self, a, b, k):
        results = [a + b, a - b, a * b, a * k, a + k, a - k, a.shift(k), a.bar()]
        if b != 0:
            results.append((a * b).divexact(b))
        for r in results:
            assert 0 not in r.coeffs.values()

    def test_json_round_trip(self):
        f = LaurentQ({-1: 1, 2: -3})
        assert f.to_json() == {"coeffs": {"-1": "1", "2": "-3"}}

    def test_big_coefficients_exact(self):
        f = LaurentQ({0: 10**40, 1: -(3**50)})
        g = f * f
        assert g.coeffs[0] == 10**80
        assert g.coeffs[2] == 3**100


class TestAddmul:
    """_addmul(out, a, b) is out += a * b in place on coefficient dicts."""

    @given(laurents, laurents, laurents)
    def test_matches_reference_sum(self, out, a, b):
        out, a, b = dict(out.coeffs), a.coeffs, b.coeffs
        a0, b0 = dict(a), dict(b)
        ref = dict(out)
        for ea, ca in a.items():
            for eb, cb in b.items():
                ref[ea + eb] = ref.get(ea + eb, 0) + ca * cb
        assert _addmul(out, a, b) is out
        assert out == {e: c for e, c in ref.items() if c}
        assert 0 not in out.values()
        assert a == a0 and b == b0

    @given(laurents, laurents)
    def test_exact_cancellation_leaves_no_zero(self, a, b):
        assert _addmul(dict((a * b).coeffs), a.coeffs, neg(b).coeffs) == {}

    def test_cancelling_term_is_dropped(self):
        assert _addmul({1: 1}, {1: 1}, {0: -1}) == {}
        assert _addmul({2: 3}, {1: 1}, {0: -1}) == {1: -1, 2: 3}


class TestRingAxioms:
    @given(laurents, laurents, laurents)
    @settings(max_examples=60)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(laurents, laurents, laurents)
    @settings(max_examples=60)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(laurents, laurents)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(laurents, st.integers(min_value=-5, max_value=5))
    def test_shift_is_mul_by_power(self, a, k):
        assert a.shift(k) == a * LaurentQ({k: 1})

    @given(laurents)
    def test_shift_zero_copies(self, a):
        b = a.shift(0)
        assert b == a
        assert b.coeffs is not a.coeffs

    @given(laurents, laurents)
    def test_sub_is_add_neg(self, a, b):
        assert a - b == a + neg(b)

    @given(laurents, st.integers(min_value=-50, max_value=50))
    def test_int_scale_is_mul_by_constant(self, a, k):
        assert a * k == k * a == a * LaurentQ(k)


class TestQuantumNumbers:
    def test_qint2(self):
        assert qint(2) == L(**{"1": 1, "-1": 1})

    def test_qbinom_2_1(self):
        assert qbinom(2, 1) == L(**{"1": 1, "-1": 1})

    def test_qbinom_4_2(self):
        # frozen from expanding [4]!/([2]![2]!) by exact division
        assert qbinom(4, 2) == LaurentQ({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})

    @pytest.mark.parametrize("n", range(13))
    def test_symmetry_bar_invariance_eval(self, n):
        from math import comb

        for r in range(n + 1):
            b = qbinom(n, r)
            assert b == qbinom(n, n - r)
            assert b.bar() == b
            assert b.eval1() == comb(n, r)

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 9) for r in range(n + 2)])
    def test_pascal_identity(self, n, r):
        # [n+1 over r] = q^r [n over r] + q^{r-n-1} [n over r-1]
        def qb(n_, r_):
            return qbinom(n_, r_) if 0 <= r_ <= n_ else LaurentQ()

        lhs = qb(n + 1, r)
        rhs = qb(n, r).shift(r) + qb(n, r - 1).shift(r - n - 1)
        assert lhs == rhs

    def test_qfact_divisibility(self):
        assert qfact(6).divexact(qfact(3) * qfact(3)) == qbinom(6, 3)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            qbinom(3, 4)
        with pytest.raises(ValueError):
            qbinom(3, -1)
        with pytest.raises(ValueError):
            qint(-1)


def cyclotomic_q2(d):
    """Phi_d(q^2) by exact division: (q^{2d} - 1) over Phi_e(q^2) for every
    proper divisor e of d."""
    out = LaurentQ({2 * d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            out = out.divexact(cyclotomic_q2(e))
    return out


def vec(num, den):
    """The factorial-exponent vector of prod_{k in num} [k]! / prod_{k in
    den} [k]!: entry k is the net power of [k]!."""
    net = [0] * (max([0, *num, *den]) + 1)
    for k in num:
        net[k] += 1
    for k in den:
        net[k] -= 1
    return net


class TestFactorialQuotient:
    @pytest.mark.parametrize("k", range(16))
    def test_qfact_cyclotomic_identity(self, k):
        # [k]! = q^{-k(k-1)/2} prod_{d=2..k} Phi_d(q^2)^{floor(k/d)}
        rhs = ONE
        for d in range(2, k + 1):
            for _ in range(k // d):
                rhs = rhs * cyclotomic_q2(d)
        assert qfact(k) == rhs.shift(-k * (k - 1) // 2)
        shift, poly = qfact_quotient(vec([k], []))
        assert poly.shift(shift) == qfact(k)

    @given(st.lists(st.integers(min_value=-2, max_value=2), max_size=10))
    @settings(max_examples=60)
    def test_matches_division(self, net):
        top = bottom = ONE
        for k, e in enumerate(net):
            for _ in range(abs(e)):
                if e > 0:
                    top = top * qfact(k)
                else:
                    bottom = bottom * qfact(k)
        try:
            with time_limit(5):
                top.divexact(bottom)
        except ValueError:
            with pytest.raises(ValueError, match="inexact Laurent division"):
                qfact_quotient(net)
        else:
            shift, quo = qfact_quotient(net)
            assert quo.shift(shift) * bottom == top

    def test_qbinom_as_quotient(self):
        for n in range(10):
            for r in range(n + 1):
                shift, poly = qfact_quotient(vec([n], [r, n - r]))
                assert poly.shift(shift) == qbinom(n, r)

    @pytest.mark.parametrize("num,den", [([2], [3]), ([4], [2, 2, 2]), ([], [2]), ([6], [3, 3, 3])])
    def test_negative_exponent_raises(self, num, den):
        with pytest.raises(ValueError, match="inexact Laurent division"):
            qfact_quotient(vec(num, den))

    def test_trivial_and_trailing_entries_share_the_memo(self):
        # [0]! = [1]! = 1, so entries 0 and 1 and trailing zeros leave the
        # product, and its memo key, unchanged
        out = qfact_quotient((0, 0, -1, 1))
        assert out[1].shift(out[0]) == qint(3)
        assert qfact_quotient([5, -3, -1, 1, 0, 0]) is out
        assert qfact_quotient((0, 0, -1, 1, 0)) is out
        assert qfact_quotient([]) == qfact_quotient([4, -7]) == (0, ONE)
