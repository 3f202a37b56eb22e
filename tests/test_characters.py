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
)
from wblocks.combinat import (
    BlockKey,
    Composition,
    aligned_tableau,
    down_up,
    lambda_of,
)


def comp(parts, offset=0):
    return Composition(parts, offset)


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
            # dominance: each partial sum of head is at most that of c
            lo = min(head.support_bounds()[0], c.support_bounds()[0])
            hi = max(head.support_bounds()[1], c.support_bounds()[1])
            assert c.total == head.total and all(
                a <= b for a, b in zip(head.partial_sums_key(lo, hi), c.partial_sums_key(lo, hi))), c

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
