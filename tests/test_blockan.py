import hashlib
import inspect
import itertools
import json
from fractions import Fraction
from math import comb, factorial

import pytest

from wblocks.blockan import (
    BlockDataError,
    FormulaBlockData,
    MatrixBlockData,
    cartan_entry,
    cartan_matrix,
    cartan_oracle,
    compositions_in_window,
    d_invariant,
    end_dim,
    graded_cartan,
    graded_verma_mult,
    h_count,
    h_separation,
    recover_invariants,
    stable_end_dim,
    verma_mult,
)
from wblocks import blockan
from wblocks.combinat import BlockKey, Composition
from wblocks.laurent import ONE, ZERO, LaurentQ, qbinom, qfact
from wblocks.verify import FULL_SCALES, QUICK_SCALES, _gamma_splits, _perturb, _windows, iter_blocks


def comp(parts, offset=0):
    return Composition(parts, offset)


def key(mu_parts, mu_off, nu_parts, nu_off, t, m, n):
    return BlockKey(comp(mu_parts, mu_off), comp(nu_parts, nu_off), t, m, n)


XI_11 = BlockKey(Composition(), Composition(), 1, 1, 1)
XI_22 = BlockKey(Composition(), Composition(), 2, 2, 2)


class TestVermaMult:
    def test_diagonal(self):
        assert verma_mult(XI_11, Composition.eps(3), Composition.eps(3)) == 1

    def test_single_step(self):
        assert verma_mult(XI_11, Composition.eps(3), Composition.eps(2)) == 1

    def test_binomial_two(self):
        lam = comp([2], 3)
        kap = comp([1, 1], 2)
        assert verma_mult(XI_22, lam, kap) == 2

    def test_unreachable(self):
        assert verma_mult(XI_11, Composition.eps(3), Composition.eps(5)) == 0

    def test_size_check(self):
        with pytest.raises(ValueError):
            verma_mult(XI_11, comp([1, 1]), Composition.eps(0))

    def test_total_is_2_to_t(self):
        for xi, lam in [
            (XI_22, comp([2])),
            (XI_22, comp([1, 1])),
            (key([1], 0, [2], 1, 2, 3, 4), comp([1, 0, 1], 3)),
        ]:
            lo, hi = lam.support_bounds()
            kaps = compositions_in_window(xi.t, lo - xi.t, hi + 1)
            assert sum(verma_mult(xi, lam, kap) for kap in kaps) == 2**xi.t
            assert sum(graded_verma_mult(xi, lam, kap).eval1() for kap in kaps) == 2**xi.t

    def test_graded_is_one_on_the_diagonal_and_positive_off_it(self):
        diagonal = off_diagonal = 0
        for xi, lams in _windows(FULL_SCALES["cartan-vs-oracle"]):
            for beta in lams:
                for lam in lams:
                    d = graded_verma_mult(xi, beta, lam)
                    if beta == lam:
                        assert d == ONE, (xi, beta)
                        diagonal += 1
                    elif d != 0:
                        assert min(d.coeffs) > 0 and min(d.coeffs.values()) > 0, (xi, beta, lam, d)
                        off_diagonal += 1
        assert (diagonal, off_diagonal) == (880, 935)


class TestCartan:
    def test_typical_block_is_multinomial(self):
        xi = key([2, 1], 0, [1], 2, 0, 3, 1)
        z = Composition()
        expect = factorial(3) * factorial(1) // (
            factorial(2) * factorial(1) * factorial(1)
        )
        assert cartan_entry(xi, z, z) == expect == cartan_oracle(xi, z, z)

    def test_m1n1_typical_is_one(self):
        xi = key([1], 0, [1], 4, 0, 1, 1)
        z = Composition()
        assert cartan_entry(xi, z, z) == 1

    def test_m1n1_atypical_diagonal_two(self):
        e = Composition.eps(7)
        assert cartan_entry(XI_11, e, e) == 2 == cartan_oracle(XI_11, e, e)

    @pytest.mark.parametrize("i,j,expect", [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (3, 0, 0)])
    def test_m1n1_neighbor_pattern(self, i, j, expect):
        assert cartan_entry(XI_11, Composition.eps(i), Composition.eps(j)) == expect

    def test_closed_equals_oracle_with_core(self):
        xi = key([1], 0, [1, 1], 1, 2, 3, 4)
        lams = compositions_in_window(2, -1, 2)
        for lam in lams:
            for kap in lams:
                assert cartan_entry(xi, lam, kap) == cartan_oracle(xi, lam, kap)

    def test_closed_forms_share_no_helper_with_the_oracle(self, monkeypatch):
        # a helper on both routes would let one fault move both sides of
        # verify's cartan-vs-oracle criterion together
        pairs = [(xi, lam, kap) for xi, lams in _windows(QUICK_SCALES["cartan-vs-oracle"])
                 for a, lam in enumerate(lams) for kap in lams[a:]]
        called = {"closed": set(), "oracle": set()}
        route = []

        def recorder(name, fn):
            def wrapped(*args, **kwargs):
                called[route[-1]].add(name)
                return fn(*args, **kwargs)
            return wrapped

        for name, fn in list(vars(blockan).items()):
            if inspect.isfunction(fn) and fn.__module__ == blockan.__name__:
                monkeypatch.setattr(blockan, name, recorder(name, fn))
        for xi, lam, kap in pairs:
            for name, fn in [("closed", blockan.cartan_entry), ("closed", blockan.graded_cartan),
                             ("oracle", blockan.cartan_oracle)]:
                route.append(name)
                fn(xi, lam, kap)
                route.pop()
        assert not called["closed"] & called["oracle"]
        assert "graded_verma_mult" in called["oracle"] - called["closed"]
        assert called["closed"] - {"cartan_entry", "graded_cartan"}
        assert called["oracle"] - {"cartan_oracle"}

    def test_symmetry(self):
        xi = key([1], 2, [1], 0, 2, 3, 3)
        lams = compositions_in_window(2, 0, 2)
        for lam in lams:
            for kap in lams:
                assert cartan_entry(xi, lam, kap) == cartan_entry(xi, kap, lam)


def reference_tau_terms(xi, lam, kap):
    """Every tau-term of [P(lam) : L(kap)] as its list of rows (beta_i, a_i,
    b_i, beta_i + gamma_i), one tau at a time by itertools.product over the
    ranges of _tau_choices: the reference routes below share no walk with
    the closed forms they check."""
    choices = blockan._tau_choices(lam, kap, xi.gamma)
    if choices is None:
        return
    for taus in itertools.product(*(rng for _, rng in choices)):
        terms = []
        for (row, _), tau_i, tau_next in zip(choices, taus, taus[1:] + (0,)):
            lam_i, lam_next, rho_i, gamma_i = row
            beta = lam_next + tau_i - tau_next
            terms.append((beta, tau_i - lam_i, tau_i - rho_i, beta + gamma_i))
        yield terms


def cartan_entry_by_terms(xi, lam, kap):
    """Reference route for cartan_entry: m! n! times the sum of each
    tau-term's product of binomials over factorials, in exact fractions."""
    total = Fraction(0)
    for terms in reference_tau_terms(xi, lam, kap):
        term = Fraction(1)
        for beta, a, b, g in terms:
            term *= Fraction(comb(beta, a) * comb(beta, b), factorial(beta) * factorial(g))
        total += term
    total *= factorial(xi.m) * factorial(xi.n)
    assert total.denominator == 1
    return int(total)


def graded_cartan_by_division(xi, lam, kap):
    """Reference route for graded_cartan: each tau-term assembled from
    quantum binomials and factorials, then one exact polynomial division."""
    total = ZERO
    mn_fact = qfact(xi.m) * qfact(xi.n)
    for terms in reference_tau_terms(xi, lam, kap):
        num = mn_fact
        den = ONE
        s = comb(xi.m, 2) + comb(xi.n, 2)
        for beta, a, b, g in terms:
            num = num * qbinom(beta, a) * qbinom(beta, b)
            den = den * qfact(beta) * qfact(g)
            s += (a + b) * g - comb(beta, 2) - comb(g, 2)
        total = total + num.divexact(den).shift(s)
    return total


def _blocks_up_to_4():
    """One block per (m, n, t, gamma) with m, n <= 4 and gamma of width <= 2
    at positions 0..1 (the graded entry depends on nothing else)."""
    for m in range(5):
        for n in range(5):
            for t in range(min(m, n) + 1):
                g_total = (m - t) + (n - t)
                for a in range(g_total + 1):
                    splits = _gamma_splits(Composition([a, g_total - a]), m - t)
                    if splits:
                        yield BlockKey(*splits[0], t, m, n)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _cells_up_to_4():
    """Every cell of _blocks_up_to_4 over windows of width 3 covering
    -3..3; narrower windows are subsets."""
    for xi in _blocks_up_to_4():
        for lo in range(-3, 2):
            lams = compositions_in_window(xi.t, lo, lo + 2)
            for lam in lams:
                for kap in lams:
                    yield xi, lam, kap


class TestGradedCartanRoute:
    def test_matches_division_route(self):
        cells = 0
        for xi, lam, kap in _cells_up_to_4():
            assert graded_cartan(xi, lam, kap) == graded_cartan_by_division(xi, lam, kap), (xi, lam, kap)
            cells += 1
        assert cells == 9000

    def test_ungraded_matches_term_route(self):
        cells = 0
        for xi, lam, kap in _cells_up_to_4():
            assert cartan_entry(xi, lam, kap) == cartan_entry_by_terms(xi, lam, kap), (xi, lam, kap)
            cells += 1
        assert cells == 9000

    @pytest.mark.parametrize(
        "xi",
        [
            key([], 0, [], 0, 0, 0, 0),
            key([1], 0, [], 0, 0, 1, 0),
            key([], 0, [2], -1, 0, 0, 2),
            key([1], 0, [1], 1, 0, 1, 1),
            key([1, 1], 0, [1], 2, 0, 2, 1),
            key([2, 0, 1], -2, [3], -1, 0, 3, 3),
        ],
        ids=["m0n0", "m1n0", "m0n2", "m1n1", "m2n1", "m3n3"],
    )
    def test_degenerate_blocks(self, xi):
        # t = 0: the one cell is [P(0) : L(0)], whose tau-terms have beta = a
        # = b = 0, so the factorial vector reaches only m, n and gamma's parts
        zero = Composition()
        assert compositions_in_window(xi.t, -3, 3) == [zero]
        assert all(len(rng) == 1 for _, rng in blockan._tau_choices(zero, zero, xi.gamma))
        got = graded_cartan(xi, zero, zero)
        assert got == graded_cartan_by_division(xi, zero, zero)
        assert got.eval1() == cartan_entry(xi, zero, zero) == cartan_entry_by_terms(xi, zero, zero)

    @pytest.mark.parametrize(
        "xi,digest",
        [
            (BlockKey(Composition(), Composition(), 4, 4, 4),
             "a58c3338249da75dd3a0bb03cb99468110f51f738cbdef526df7d8d1d45625f7"),
            (BlockKey(Composition(), Composition([2], 1), 4, 4, 6),
             "39bca6007ece51c222f9f859a421c7dce113f5e8bec0a24ff1b043cf8adba287"),
        ],
        ids=["t4m4n4", "t4m4n6nu2@1"],
    )
    def test_pinned_matrix_digest(self, xi, digest):
        # sha256 of the sorted, compact JSON of the graded matrix over the
        # window 0..3, as computed by the division route
        matrix = cartan_matrix(xi, compositions_in_window(xi.t, 0, 3), graded=True)
        assert _digest([[v.to_json() for v in row] for row in matrix]) == digest

    @pytest.mark.parametrize(
        "xi,digest",
        [
            (BlockKey(Composition(), Composition(), 4, 4, 4),
             "5330087f0d7e9d01c5444d3dcbb680a5bb78ea4a432ab1ee657175681783066d"),
            (BlockKey(Composition(), Composition([2], 1), 4, 4, 6),
             "347266be099e783b4c1526621480bfe5b39160d7566ef574c9fd1dc41349d863"),
        ],
        ids=["t4m4n4", "t4m4n6nu2@1"],
    )
    def test_pinned_ungraded_matrix_digest(self, xi, digest):
        # sha256 of the sorted, compact JSON of the ungraded matrix over the
        # window 0..3
        assert _digest(cartan_matrix(xi, compositions_in_window(xi.t, 0, 3))) == digest


PINNED_BLOCKS = [BlockKey(Composition(), Composition(), 4, 4, 4),
                 BlockKey(Composition(), Composition([2], 1), 4, 4, 6)]


EMPTY_BLOCK = key([], 0, [], 0, 0, 0, 0)
LAM_A, LAM_B = comp([1, 0, 0, 3]), comp([1, 1, 0, 2])
EDGE_CELLS = [
    (EMPTY_BLOCK, Composition(), Composition()),
    (key([2, 0, 1], -2, [3], -1, 0, 3, 3), Composition(), Composition()),
    (XI_11, Composition.eps(0), Composition.eps(2)),
    (XI_11, Composition.eps(3), Composition.eps(0)),
    (PINNED_BLOCKS[0], LAM_A, LAM_B),
    (PINNED_BLOCKS[1], LAM_A, LAM_B),
    (PINNED_BLOCKS[1], comp([1, 1, 1, 1]), comp([1, 1, 1, 1])),
]
EDGE_IDS = ["no-rows", "t0-gamma", "m1n1-none", "m1n1-none-t",
            "t4m4n4-none", "t4m4n6-none", "t4m4n6-many"]


class TestSuffixWalkEdges:
    """Cells at the edges of the tau walk: no rows at all (one empty term),
    rows of one choice each (t = 0), no tau at all, and the largest sum."""

    @pytest.mark.parametrize("xi,lam,kap", EDGE_CELLS, ids=EDGE_IDS)
    def test_edge_cell(self, xi, lam, kap):
        choices = blockan._tau_choices(lam, kap, xi.gamma)
        value = cartan_entry(xi, lam, kap)
        graded = graded_cartan(xi, lam, kap)
        assert value == cartan_entry_by_terms(xi, lam, kap) == graded.eval1()
        assert graded == graded_cartan_by_division(xi, lam, kap)
        if choices is None:
            assert value == 0 and graded == ZERO
        else:
            assert value > 0

    def test_no_rows_is_one_empty_term(self):
        zero = Composition()
        assert blockan._tau_choices(zero, zero, EMPTY_BLOCK.gamma) == []
        assert list(reference_tau_terms(EMPTY_BLOCK, zero, zero)) == [[]]
        assert cartan_entry(EMPTY_BLOCK, zero, zero) == 1
        assert graded_cartan(EMPTY_BLOCK, zero, zero) == ONE

    def test_none_cells_of_a_pinned_window(self):
        xi = PINNED_BLOCKS[0]
        lams = compositions_in_window(xi.t, 0, 3)
        none = [(lam, kap) for lam in lams for kap in lams
                if blockan._tau_choices(lam, kap, xi.gamma) is None]
        assert len(none) == 672
        for lam, kap in none:
            assert cartan_entry(xi, lam, kap) == 0
            assert graded_cartan(xi, lam, kap) == ZERO

    @pytest.mark.parametrize("fn", [cartan_entry, graded_cartan], ids=["ungraded", "graded"])
    @pytest.mark.parametrize("lam,kap", [(comp([1, 1]), Composition.eps(0)),
                                         (Composition.eps(0), comp([2])),
                                         (Composition(), Composition())],
                             ids=["lam", "kap", "both"])
    def test_wrong_total_raises_before_the_walk(self, monkeypatch, fn, lam, kap):
        calls = []
        monkeypatch.setattr(blockan, "_tau_choices", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            fn(XI_11, lam, kap)
        assert calls == []


class TestTauChoicesCalls:
    """bench/tracer.py derives blockan.tau_terms from the _tau_choices calls,
    and bench/selftest.py relies on one module-level call per cell."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        fn = blockan._tau_choices

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(blockan, "_tau_choices", counted)
        return calls

    @pytest.mark.parametrize("xi", PINNED_BLOCKS, ids=["t4m4n4", "t4m4n6nu2@1"])
    @pytest.mark.parametrize("graded", [False, True], ids=["ungraded", "graded"])
    def test_one_call_per_evaluated_cell(self, monkeypatch, xi, graded):
        lams = compositions_in_window(xi.t, 0, 3)
        calls = self._count(monkeypatch)
        cartan_matrix(xi, lams, graded=graded)
        assert len(lams) == 35 and len(calls) == 630

    @pytest.mark.parametrize("xi,lam,kap", EDGE_CELLS, ids=EDGE_IDS)
    @pytest.mark.parametrize("fn", [cartan_entry, graded_cartan], ids=["ungraded", "graded"])
    def test_one_call_per_cell_function(self, monkeypatch, fn, xi, lam, kap):
        calls = self._count(monkeypatch)
        fn(xi, lam, kap)
        assert calls == [(lam, kap, xi.gamma)]


class TestCartanMatrix:
    def test_mirrored_matrix_equals_every_cell(self):
        for xi in iter_blocks(3, 3, 2):
            lams = compositions_in_window(xi.t, -1, 1)
            for graded, fn in ((False, cartan_entry), (True, graded_cartan)):
                full = [[fn(xi, a, b) for b in lams] for a in lams]
                assert cartan_matrix(xi, lams, graded=graded) == full, (xi, graded)

    @pytest.mark.parametrize("xi", PINNED_BLOCKS, ids=["t4m4n4", "t4m4n6nu2@1"])
    @pytest.mark.parametrize("graded", [False, True], ids=["ungraded", "graded"])
    def test_each_computed_cell_goes_through_the_module_attribute(self, monkeypatch, xi, graded):
        name = "graded_cartan" if graded else "cartan_entry"
        lams = compositions_in_window(xi.t, 0, 3)
        plain = cartan_matrix(xi, lams, graded=graded)
        calls = []
        fn = getattr(blockan, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(blockan, name, counted)
        assert cartan_matrix(xi, lams, graded=graded) == plain
        n = len(lams)
        assert len(calls) == n * (n + 1) // 2 == 630
        # verify's fault injection moves every cell, mirrored ones too
        monkeypatch.setattr(blockan, name, _perturb(fn))
        perturbed = cartan_matrix(xi, lams, graded=graded)
        assert all(p != q for prow, qrow in zip(perturbed, plain) for p, q in zip(prow, qrow))


class TestGradedCartan:
    def test_m1n1_diagonal(self):
        e = Composition.eps(3)
        assert graded_cartan(XI_11, e, e) == LaurentQ({0: 1, 2: 1})

    def test_eval_at_one(self):
        xi = key([2], 0, [1], 1, 1, 3, 2)
        lams = compositions_in_window(1, -1, 2)
        for lam in lams:
            for kap in lams:
                g = graded_cartan(xi, lam, kap)
                assert g.eval1() == cartan_entry(xi, lam, kap)

    def test_poly_in_q_nonneg(self):
        xi = key([1], 0, [1], 1, 2, 3, 3)
        lams = compositions_in_window(2, 0, 2)
        for lam in lams:
            for kap in lams:
                g = graded_cartan(xi, lam, kap)
                assert min(g.coeffs, default=0) >= 0 and min(g.coeffs.values(), default=0) >= 0

    def test_top_degree_diagonal(self):
        for xi in [XI_11, XI_22, key([1], 0, [2], 1, 1, 2, 3)]:
            d = xi.m**2 + xi.n**2 - sum(g * g for g in xi.gamma.parts)
            for lam in compositions_in_window(xi.t, 3, 4):
                assert graded_cartan(xi, lam, lam).max_exp() == d

    def test_generic_diagonal_product_form(self):
        # an isolated 1 far from the core: (1+q^2)^t [m]![n]!/prod [gamma]!
        xi = key([1], 0, [2], 1, 1, 2, 3)
        lam = Composition.eps(5)
        expect = (qfact(2) * qfact(3)).divexact(qfact(1) * qfact(2))
        expect = expect.shift(comb(2, 2) + comb(3, 2) - comb(2, 2)) * LaurentQ({0: 1, 2: 1})
        assert graded_cartan(xi, lam, lam) == expect


class TestHCount:
    def test_h_of_single_one(self):
        assert h_count(Composition.eps(0)) == 3

    @pytest.mark.parametrize("t", range(1, 7))
    def test_h_of_concentrated(self, t):
        assert h_count(Composition.eps(2, t)) == comb(t + 2, 2)

    def test_h_two_is_six(self):
        assert h_count(Composition.eps(0, 2)) == 6

    def test_strict_minimality(self):
        for t in range(1, 5):
            for parts in itertools.product(range(t + 1), repeat=3):
                if sum(parts) != t or len([p for p in parts if p]) < 2:
                    continue
                assert h_count(comp(parts)) > comb(t + 2, 2)

    def test_separation_at_zero_gap(self):
        lam = comp([2, 0, 1, 1], 0)
        left, right = h_separation(lam, 1)
        assert h_count(lam) == h_count(left) * h_count(right)

    def test_translation_invariant(self):
        lam = comp([1, 2])
        assert h_count(lam) == h_count(lam.shifted(40))

    def test_matches_cartan_row_support(self):
        xi = key([1], 0, [1], 1, 2, 3, 3)
        for lam in compositions_in_window(2, 0, 1):
            lo, hi = lam.support_bounds()
            kaps = compositions_in_window(2, lo - 1, hi + 1)
            nz = sum(1 for k in kaps if cartan_entry(xi, lam, k))
            assert nz == h_count(lam)

    def test_upper_bound_scan_runs(self):
        # h(lam) <= 3^t on every composition of t = 2 with three parts
        for parts in itertools.product(range(3), repeat=3):
            if sum(parts) == 2:
                assert h_count(Composition(parts)) <= 3**2


class TestEndDims:
    def test_gamma_zero_value(self):
        assert end_dim(XI_11, 0) == 2
        assert end_dim(XI_22, 5) == factorial(2) ** 2 * comb(4, 2) // factorial(2) ** 2

    def test_requires_atypical(self):
        xi = key([1], 0, [1], 1, 0, 1, 1)
        with pytest.raises(ValueError):
            end_dim(xi, 0)

    def test_equals_cartan_diagonal(self):
        for xi in [XI_11, XI_22, key([1], 0, [2], 1, 1, 2, 3), key([2], 2, [1], 0, 2, 4, 3)]:
            for i in range(-1, 4):
                lam = Composition.eps(i, xi.t)
                assert end_dim(xi, i) == cartan_entry(xi, lam, lam)
        cases = 0
        for xi in iter_blocks(3, 3, 3):
            if xi.t < 1:
                continue
            for i in range(-2, 5):
                lam = Composition.eps(i, xi.t)
                assert end_dim(xi, i) == cartan_entry(xi, lam, lam), (xi, i)
                cases += 1
        assert cases == 154

    def test_d_invariant_normalization(self):
        xi = key([2], 1, [1], 0, 2, 4, 3)
        # far from the core the rescaled invariant equals binom(2t, t)
        assert d_invariant(xi, 8) == Fraction(comb(4, 2))
        assert end_dim(xi, 8) == stable_end_dim(xi)

    def test_d_invariant_is_symmetric_and_decreasing_in_the_two_gammas(self):
        # d(xi, i) is a function of (t, gamma_i, gamma_{i+1}), symmetric in
        # the two gammas and strictly decreasing in each: the decrease is
        # what the bisection of _invert_demon_value relies on
        pairs = [(xi, i) for xi in iter_blocks(4, 4, 3) if xi.t >= 1 for i in range(-2, 4)]
        values: dict = {}
        for xi, i in pairs:
            values.setdefault((xi.t, xi.gamma[i], xi.gamma[i + 1]), set()).add(d_invariant(xi, i))
        assert (len(pairs), len(values)) == (420, 30)
        assert all(len(v) == 1 for v in values.values())
        d = {k: v.pop() for k, v in values.items()}
        symmetric = decreasing = 0
        for (t, a, b), x in d.items():
            assert x == blockan._demon_value(t, a, b)
            if (t, b, a) in d:
                assert d[t, b, a] == x
                symmetric += 1
            for nxt in ((t, a + 1, b), (t, a, b + 1)):
                if nxt in d:
                    assert d[nxt] < x
                    decreasing += 1
        assert (symmetric, decreasing) == (30, 40)

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (0, 2), (5, 0)])
    def test_neighbor_test(self, i, j):
        t = XI_22.t
        entry = cartan_entry(XI_22, Composition.eps(i, t), Composition.eps(j, t))
        assert (entry != 0) == (abs(i - j) <= 1)


@pytest.fixture
def demon_calls(monkeypatch):
    """The argument tuples of every _demon_value call; fails a test after
    1000 calls, so a search for gamma that never stops fails instead of
    hanging the suite."""
    calls = []
    real = blockan._demon_value

    def counted(*args):
        calls.append(args)
        if len(calls) > 1000:
            raise AssertionError("the search for gamma did not stop")
        return real(*args)

    monkeypatch.setattr(blockan, "_demon_value", counted)
    return calls


class TestRecovery:
    @pytest.mark.parametrize(
        "xi",
        [
            XI_11,
            XI_22,
            key([1], 0, [2], 1, 1, 2, 3),
            key([1, 1], 0, [1], 3, 1, 3, 2),
            key([2], 1, [1], 0, 2, 4, 3),
        ],
    )
    def test_round_trip(self, xi):
        for reverse in (False, True):
            data = FormulaBlockData(xi, -3, 4, reverse=reverse)
            t, gamma = recover_invariants(data)
            assert t == xi.t
            assert gamma == xi.gamma.normalized()

    def test_window_too_narrow(self):
        xi = key([2], 0, [1], 1, 2, 4, 3)
        # gamma support inside the window but end dims never stabilize
        data = FormulaBlockData(xi, 0, 2)
        with pytest.raises(BlockDataError):
            recover_invariants(data)

    def test_matrix_backed_data(self):
        lams = compositions_in_window(1, -3, 3)
        matrix = cartan_matrix(XI_11, lams)
        data = MatrixBlockData([str(c.to_json()) for c in lams], matrix)
        t, gamma = recover_invariants(data)
        assert t == 1 and gamma.is_zero()

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_demon_value_falls_strictly_towards_its_limit(self, t):
        # the bound recover_invariants rejects targets by
        for gi1 in range(4):
            limit = Fraction(1, comb(gi1 + t, t))
            values = [blockan._demon_value(t, g, gi1) for g in range(60)]
            assert all(a > b > limit for a, b in zip(values, values[1:]))
            assert values[-1] - limit < Fraction(t * t + t, 60)

    def test_inconsistent_end_dims_rejected_without_a_search(self, demon_calls):
        # the middle target (0.02) is below the limit 1 at t = 1, gi1 = 0;
        # with a cap of g <= 10000 this made 10,001 _demon_value calls
        labels = ["a", "b", "c", "d", "e"]
        matrix = [[100, 1, 0, 0, 0], [1, 100, 1, 0, 0], [0, 1, 1, 1, 0],
                  [0, 0, 1, 100, 1], [0, 0, 0, 1, 100]]
        with pytest.raises(BlockDataError, match="inconsistent End-dim data"):
            recover_invariants(MatrixBlockData(labels, matrix))
        assert len(demon_calls) == 1  # the last slot's g = 0; the middle one needs none

    @pytest.mark.parametrize("big", [10**8, 10**12, 10**40])
    def test_target_just_above_the_limit_is_searched_in_log_steps(self, demon_calls, big):
        # the middle target 2 (big/2 + 1) / big = 1 + 2/big lies just above the
        # limit 1 at t = 1, gi1 = 0; _demon_value(1, g, 0) = 1 + 1/(g + 1)
        # reaches it at g = big/2 - 1, and the first slot then has no solution
        labels = ["a", "b", "c", "d", "e"]
        matrix = [[big, 1, 0, 0, 0], [1, big, 1, 0, 0], [0, 1, big // 2 + 1, 1, 0],
                  [0, 0, 1, big, 1], [0, 0, 0, 1, big]]
        with pytest.raises(BlockDataError, match="inconsistent End-dim data"):
            recover_invariants(MatrixBlockData(labels, matrix))
        g = big // 2 - 1
        assert (1, g, 0) in demon_calls
        assert len(demon_calls) <= 2 * g.bit_length() + 4

    @pytest.mark.parametrize("t", [1, 2, 3, 7])
    @pytest.mark.parametrize("gi1", [0, 1, 5])
    def test_invert_demon_value(self, demon_calls, t, gi1):
        for g in [0, 1, 2, 3, 4, 5, 6, 7, 8, 100, 1023, 1024, 10**9 + 7]:
            value = blockan._demon_value(t, g, gi1)
            demon_calls.clear()
            assert blockan._invert_demon_value(t, value, gi1) == g
            assert len(demon_calls) <= 2 * (g + 1).bit_length() + 2
            nearer = blockan._demon_value(t, g + 1, gi1)
            between = (value + nearer) / 2
            assert blockan._invert_demon_value(t, between, gi1) is None
        above_first = blockan._demon_value(t, 0, gi1) + Fraction(1, 7)
        assert blockan._invert_demon_value(t, above_first, gi1) is None
        limit = Fraction(1, comb(gi1 + t, t))
        demon_calls.clear()
        assert blockan._invert_demon_value(t, limit, gi1) is None
        assert blockan._invert_demon_value(t, limit / 2, gi1) is None
        assert demon_calls == []

    @pytest.mark.parametrize("t", [1, 2, 5, 199, 200, 201, 250, 10**6])
    def test_atypicality_of_h_in_closed_form(self, t):
        h = comb(t + 2, 2)
        assert blockan._atypicality_of_h(h) == t
        assert blockan._atypicality_of_h(h + 1) is None
        assert blockan._atypicality_of_h(h - 1) is None

    def test_atypicality_of_h_small(self):
        # binomial(t + 2, 2) for t >= 1 is 3, 6, 10, ...; t = 0 (h = 1) is no block
        got = [h for h in range(40) if blockan._atypicality_of_h(h) is not None]
        assert got == [3, 6, 10, 15, 21, 28, 36]

    def test_recovers_t_beyond_200(self):
        # a chain of five minimal simples with h = binomial(t+2, 2), all at the
        # stable End dim, so gamma = 0; no window holds that many rows
        t = 250

        class ChainData:
            def labels(self):
                return list(range(5))

            def h(self, x):
                return comb(t + 2, 2)

            def end_dim(self, x):
                return 7

            def cartan_nonzero(self, x, y):
                return abs(x - y) <= 1

        got_t, gamma = recover_invariants(ChainData())
        assert got_t == t and gamma.is_zero()

    def test_inconsistent_data(self, demon_calls):
        lams = compositions_in_window(1, -3, 3)
        matrix = cartan_matrix(XI_11, lams)
        k = len(lams) // 2
        matrix[k][k] += 100
        data = MatrixBlockData([str(i) for i in range(len(lams))], matrix)
        with pytest.raises(BlockDataError):
            recover_invariants(data)
