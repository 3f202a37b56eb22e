import itertools

import pytest

from wblocks import characters
from wblocks.blockan import verma_mult
from wblocks.characters import (
    CompChar,
    NotInBlockSpan,
    ch_simple_w,
    ch_verma_w,
    decompose_char,
    natural_order,
    revlex_order,
    rho_order,
    tableau_weight,
    verma_char_trunc,
    weight_coords,
)
from wblocks.combinat import (
    BlockKey,
    Composition,
    Pyramid,
    Tableau,
    aligned_tableau,
    down_up,
    lambda_of,
)


def comp(parts, offset=0):
    return Composition(parts, offset)


class TestRhoAndWeights:
    def test_rho_all_odd(self):
        p = Pyramid(0, 3, 1)
        assert rho_order(p, natural_order(p)) == (1, 2, 3)

    def test_rho_1_1(self):
        p = Pyramid(1, 1, 0)
        assert rho_order(p, natural_order(p)) == (0, 0)

    def test_entries_recover_from_weight(self):
        p = Pyramid(2, 3, 1)
        A = Tableau(p, (4, 1), (0, 2, 7))
        for order in (natural_order(p), revlex_order(p)):
            lam = tableau_weight(p, order, A)
            rho = rho_order(p, order)
            for j in range(1, 6):
                assert lam[j - 1] + rho[j - 1] == A.entry(j)

    def test_bad_order_rejected(self):
        p = Pyramid(1, 1, 0)
        with pytest.raises(ValueError):
            rho_order(p, (1, 3))


class TestVermaTruncated:
    def test_height_zero(self):
        p = Pyramid(1, 1, 0)
        A = Tableau(p, (5,), (3,))
        ch = verma_char_trunc(p, natural_order(p), A, 0)
        assert ch.terms == {(5, -3): 1}

    def test_height_one_odd_factor(self):
        p = Pyramid(1, 1, 0)
        A = Tableau(p, (5,), (3,))
        ch = verma_char_trunc(p, natural_order(p), A, 1)
        assert ch.terms == {(5, -3): 1, (4, -2): 1}

    def test_even_factor_multiplicities(self):
        # two equal-parity boxes contribute a geometric series
        p = Pyramid(2, 2, 0)
        A = Tableau(p, (3, 1), (1, 1))
        ch = verma_char_trunc(p, natural_order(p), A, 2)
        lam = weight_coords(p, tableau_weight(p, natural_order(p), A))
        step = (-1, 1, 0, 0)
        w1 = tuple(a + b for a, b in zip(lam, step))
        w2 = tuple(a + 2 * b for a, b in zip(lam, step))
        assert ch.terms[lam] == 1 and ch.terms[w1] >= 1 and w2 in ch.terms

    @pytest.mark.parametrize("D", [0, 1, 2, 3, 4])
    def test_order_independence_m2n2(self, D):
        p = Pyramid(2, 2, 0)
        for top in itertools.product([1, 2, 3], repeat=2):
            for bottom in itertools.product([1, 2, 3], repeat=2):
                A = Tableau(p, top, bottom)
                c_nat = verma_char_trunc(p, natural_order(p), A, D)
                c_rev = verma_char_trunc(p, revlex_order(p), A, D)
                assert c_nat == c_rev, (top, bottom, D)

    def test_requires_normal_order(self):
        p = Pyramid(2, 2, 0)
        A = Tableau(p, (5, 4), (3, 3))
        with pytest.raises(ValueError):
            # top boxes out of sequence: not a normal order
            verma_char_trunc(p, (2, 1, 3, 4), A, 1)


class TestWCharacters:
    def setup_method(self):
        self.xi = BlockKey(Composition(), Composition(), 1, 1, 1)

    def test_verma_and_simple_1_1(self):
        lam = Composition.eps(2)
        chM = ch_verma_w(self.xi, lam)
        chL = ch_simple_w(self.xi, lam)
        assert chM.terms == {Composition.eps(2): 1, Composition.eps(1): 1}
        assert chL.terms == {Composition.eps(2): 1}

    @pytest.mark.parametrize(
        "xi,lam",
        [
            (BlockKey(Composition(), Composition(), 2, 2, 2), comp([1, 1])),
            (BlockKey(Composition([1]), Composition([1], 3), 1, 2, 2), comp([1], 1)),
            (BlockKey(Composition([2]), Composition([1], 2), 1, 3, 2), comp([1], 4)),
        ],
    )
    def test_total_dimensions(self, xi, lam):
        assert ch_verma_w(xi, lam).total() == 2**xi.m
        assert ch_simple_w(xi, lam).total() == 2 ** (xi.m - xi.t)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ch_verma_w(self.xi, Composition([1, 1]))

    def test_simple_head_coefficient_one(self):
        xi = BlockKey(Composition([1]), Composition([1], 2), 2, 3, 3)
        lam = comp([2], 1)
        ch = ch_simple_w(xi, lam)
        head = lam + xi.mu
        assert ch.terms[head] == 1
        for c in ch.terms:
            assert head.dominance_leq(c)

    def test_decompose_simple_is_delta(self):
        xi = BlockKey(Composition([1]), Composition([1], 2), 1, 2, 2)
        lam = Composition.eps(4)
        assert decompose_char(ch_simple_w(xi, lam), xi) == {lam: 1}

    def test_decompose_verma_matches_multiplicity_formula(self):
        for xi in [
            BlockKey(Composition(), Composition(), 2, 2, 2),
            BlockKey(Composition([1]), Composition([1], 1), 2, 3, 3),
            BlockKey(Composition([1]), Composition([2], 2), 3, 4, 5),
        ]:
            for parts in itertools.product(range(xi.t + 1), repeat=3):
                if sum(parts) != xi.t:
                    continue
                lam = comp(parts)
                dec = decompose_char(ch_verma_w(xi, lam), xi)
                assert sum(dec.values()) == 2**xi.t
                for kap, mult in dec.items():
                    assert mult == verma_mult(xi, lam, kap)

    def test_downup_route_equals_verma_character(self):
        xi = BlockKey(Composition([1]), Composition([1], 3), 2, 3, 3)
        lam = comp([1, 0, 1], 1)
        B = aligned_tableau(xi, lam)
        acc = CompChar()
        for C in down_up(B):
            acc = acc + ch_simple_w(xi, lambda_of(C))
        assert acc == ch_verma_w(xi, lam)

    def test_not_in_span(self):
        xi = BlockKey(Composition([1]), Composition([1], 2), 1, 2, 2)
        bad = CompChar({Composition([1, 1], 0): 1})
        with pytest.raises(NotInBlockSpan):
            decompose_char(bad, xi)

    def test_elimination_that_never_ends_stops_at_the_head_count(self, monkeypatch):
        # a simple character whose second term lies right of its head, so
        # each step leaves a new head one place further right; the old
        # 100000-step guard let that run for hours
        def drifting(xi, lam):
            return CompChar({lam + xi.mu: 1, Composition([lam.total], lam.offset + 1): -1})

        monkeypatch.setattr(characters, "ch_simple_w", drifting)
        xi = BlockKey(Composition(), Composition(), 1, 1, 1)
        with pytest.raises(NotInBlockSpan, match="after 1 heads"):
            decompose_char(CompChar({Composition.eps(0): 1}), xi)
        xi = BlockKey(Composition(), Composition(), 2, 2, 2)
        with pytest.raises(NotInBlockSpan, match="after 3 heads, .* window 0..1"):
            decompose_char(CompChar({comp([1, 1]): 1}), xi)

    def test_json_sorted(self):
        ch = ch_verma_w(self.xi, Composition.eps(0))
        data = ch.to_json()
        offsets = [item["composition"]["offset"] for item in data]
        assert offsets == sorted(offsets)
