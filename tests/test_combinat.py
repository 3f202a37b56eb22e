import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wblocks.combinat import (
    BlockKey,
    Composition,
    Pyramid,
    Tableau,
    Window,
    aligned_tableau,
    atyp,
    block_key,
    blocks_in_window,
    closure_classes,
    defect,
    derived_move,
    down_up,
    enumerate_tableaux,
    invariant_signature,
    lambda_of,
    morita_closure,
    morita_moves,
    normalize_key,
    tableau_of,
    weight_of,
)
from wblocks.verify import iter_blocks


def T(top, bottom, s_minus=0):
    return Tableau(Pyramid(len(top), len(bottom), s_minus), tuple(top), tuple(bottom))


class TestPyramid:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Pyramid(3, 2, 0)
        with pytest.raises(ValueError):
            Pyramid(1, 2, 2)


class TestDefectAtyp:
    def test_single_matched_pair(self):
        A = T((5,), (5,))
        assert defect(A) == 1 and atyp(A) == 1

    def test_row_scrambled(self):
        A = T((3, 1), (1, 3))
        assert defect(A) == 0 and atyp(A) == 2

    def test_distinct_entries(self):
        A = T((9, 7), (1, 2, 3), 0)
        assert atyp(A) == 0

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 3)])
    def test_atyp_equals_bruteforce_max_defect(self, m, n):
        p = Pyramid(m, n, 0)
        for top in itertools.product([1, 2, 3], repeat=m):
            for bottom in itertools.product([1, 2, 3], repeat=n):
                A = Tableau(p, top, bottom)
                brute = max(
                    defect(Tableau(p, tp, bt))
                    for tp in itertools.permutations(top)
                    for bt in itertools.permutations(bottom)
                )
                assert atyp(A) == brute

    def test_defect_sees_s_minus(self):
        # with one height-1 column on the left, top box 1 sits over bottom box 2
        assert defect(T((5,), (5, 1), s_minus=1)) == 0
        assert defect(T((5,), (1, 5), s_minus=1)) == 1


class TestDownUp:
    def test_defect_zero_is_singleton(self):
        A = T((3, 1), (1, 3))
        assert down_up(A) == {A}

    def test_single_pair(self):
        assert down_up(T((5,), (5,))) == {T((5,), (5,)), T((4,), (4,))}

    def test_two_pairs_gives_four(self):
        out = down_up(T((3, 3), (3, 3)))
        assert len(out) == 4
        assert T((2, 3), (2, 3)) in out and T((2, 2), (2, 2)) in out

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    def test_cardinality(self, vals):
        A = T(tuple(vals), tuple(reversed(vals)))
        assert len(down_up(A)) == 2 ** defect(A)


class TestCompositions:
    def test_transpose_strictify(self):
        lam = Composition([2, 4, 0, 0, 1], 0)
        assert lam.items() == {0: 2, 1: 4, 4: 1}
        assert list(lam.items().values()) == [2, 4, 1]
        assert lam.transpose() == (3, 2, 1, 1)

    def test_transpose_involution_on_partitions(self):
        for parts in itertools.product(range(4), repeat=3):
            sorted_parts = tuple(sorted((p for p in parts if p), reverse=True))
            if not sorted_parts:
                continue
            lam = Composition(sorted_parts)
            tt = Composition(lam.transpose()).transpose()
            assert tt == sorted_parts

    # equality up to translation and duality is equality of normalized()
    def test_equal_tdual_mirror(self):
        lam = Composition([2, 4, 1], 0)
        assert lam.normalized() == Composition([1, 4, 2], 7).normalized() == Composition([1, 4, 2])
        assert lam.normalized() != Composition([4, 2, 1]).normalized()

    def test_equal_tdual_translation(self):
        assert Composition([1, 4, 2], -5).normalized() == Composition([1, 4, 2], 0)
        assert Composition([0, 3], 2).normalized() == Composition([3])
        assert Composition().normalized() == Composition()

    @given(
        st.lists(st.integers(min_value=0, max_value=3), max_size=4),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=60)
    def test_equal_tdual_is_equivalence(self, a, offset, s):
        A = Composition(a, offset)
        N = A.normalized()
        assert N.normalized() == N
        assert N.offset == 0 and N.parts in (A.parts, A.parts[::-1])
        assert A.shifted(s).normalized() == N
        assert A.reflected().normalized() == N


class TestBlockKeys:
    def test_atypical_key(self):
        xi = block_key(T((5,), (5,)))
        assert (xi.t, xi.mu.is_zero(), xi.nu.is_zero()) == (1, True, True)
        assert tableau_of(xi, Composition.eps(5)) == T((5,), (5,))

    def test_typical_key(self):
        xi = block_key(T((5,), (3,)))
        assert xi.t == 0
        assert xi.mu == Composition.eps(5) and xi.nu == Composition.eps(3)

    def test_round_trip_antidominant(self):
        for top in itertools.combinations_with_replacement([1, 2, 3], 2):
            for bot in itertools.combinations_with_replacement([1, 2, 3], 2):
                A = Tableau(Pyramid(2, 2, 0), top, tuple(reversed(bot)))
                assert tableau_of(block_key(A), lambda_of(A)) == A

    def test_size_mismatch(self):
        xi = block_key(T((5,), (5,)))
        with pytest.raises(ValueError):
            tableau_of(xi, Composition([1, 1], 0))

    def test_weight_fibers_match_key_fibers(self):
        p = Pyramid(2, 2, 0)
        tabs = list(enumerate_tableaux(p, Window(1, 4)))
        for A in tabs:
            for B in tabs:
                same_w = weight_of(A.top, A.bottom) == weight_of(B.top, B.bottom)
                same_k = block_key(A) == block_key(B)
                assert same_w == same_k

    def test_closure_classes_are_key_fibers(self):
        # linkage generated by row equivalence and the down/up relation
        for m, n in [(1, 1), (1, 2), (2, 2)]:
            p = Pyramid(m, n, 0)
            for cls in closure_classes(p, Window(1, 4)):
                assert len({block_key(A) for A in cls}) == 1

    def test_aligned_tableau_has_full_defect(self):
        xi = BlockKey(Composition([1]), Composition([2], 4), 1, 2, 3)
        A = aligned_tableau(xi, Composition.eps(2))
        assert defect(A) == atyp(A) == 1
        assert block_key(A) == xi

    def test_gamma_is_kept_and_stays_out_of_identity(self):
        keys = list(iter_blocks(4, 4, 3))
        assert [f.name for f in dataclasses.fields(BlockKey)] == ["mu", "nu", "t", "m", "n"]
        for xi in keys:
            twin = BlockKey(xi.mu, xi.nu, xi.t, xi.m, xi.n)
            fields = {"mu": xi.mu.to_json(), "nu": xi.nu.to_json(), "t": xi.t, "m": xi.m, "n": xi.n}
            gamma = xi.gamma
            assert xi.gamma is gamma
            assert gamma == xi.mu + xi.nu == twin.gamma
            # twin has read gamma too now; a third key has not
            other = BlockKey(xi.mu, xi.nu, xi.t, xi.m, xi.n)
            assert xi == twin == other
            assert hash(xi) == hash(other) == hash((xi.mu, xi.nu, xi.t, xi.m, xi.n))
            assert xi.to_json() == other.to_json() == fields
        assert len(set(keys)) == len(keys) == 179
        # sha256 of the compact, sorted JSON of the key list, as written
        # when gamma was rebuilt on every read
        text = json.dumps([xi.to_json() for xi in keys], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "30294848028f1e1cd7107a9f163941afd79f82c75599e320923cfa007fd3b78f")

    @pytest.mark.parametrize("lo,hi", [(0, 0), (0, 1), (-1, 1), (-1, 2), (0, 3), (-2, 2)])
    def test_blocks_in_window_are_the_keys_of_its_tableaux(self, lo, hi):
        # the reference: block_key of every anti-dominant tableau with
        # entries in the window, the enumeration blocks_in_window replaced
        vals = range(lo, hi + 1)
        for m in range(5):
            for n in range(m, 5):
                ref = {block_key(Tableau(Pyramid(m, n), top, tuple(reversed(bot))))
                       for top in itertools.combinations_with_replacement(vals, m)
                       for bot in itertools.combinations_with_replacement(vals, n)}
                assert blocks_in_window(m, n, Window(lo, hi)) == ref, (m, n)

    def test_blocks_in_window_needs_a_pyramid(self):
        for m, n in [(3, 2), (-1, 2)]:
            with pytest.raises(ValueError, match="need 0 <= m <= n"):
                blocks_in_window(m, n, Window(0, 1))

    def test_weight_of(self):
        assert weight_of((5,), (5,)) == ()
        assert weight_of((5,), (3,)) == ((3, -1), (5, 1))
        assert weight_of((1, 2), (2, 1)) == ()
        assert weight_of((2, 1, 2), (3,)) == ((1, 1), (2, 2), (3, -1))


class TestEquivalenceMoves:
    def test_derived_move_swaps_both(self):
        xi = BlockKey(Composition([1]), Composition([1], 1), 1, 2, 2)
        out = derived_move(xi, 0)
        assert out.mu == Composition([1], 1) and out.nu == Composition([1], 0)

    def test_signature_constant_on_derived_orbit(self):
        xi = BlockKey(Composition([2, 1]), Composition([0, 0, 3], 0), 1, 4, 4)
        sig = invariant_signature(xi)
        cur = xi
        for i in (-1, 0, 1, 2, 0, -2):
            cur = derived_move(cur, i)
            assert invariant_signature(cur) == sig

    def test_normalize_translation_duality(self):
        xi = BlockKey(Composition([1], 5), Composition([2], 7), 1, 2, 3)
        xj = BlockKey(Composition([1], -2), Composition([2], 0), 1, 2, 3)
        refl = BlockKey(xi.mu.reflected(), xi.nu.reflected(), 1, 2, 3)
        assert normalize_key(xi) == normalize_key(xj) == normalize_key(refl)

    def test_normalize_key_gamma_is_normalized_gamma(self):
        for xi in iter_blocks(3, 3, 3):
            for s in (-2, 0, 3):
                moved = BlockKey(xi.mu.shifted(s), xi.nu.shifted(s), xi.t, xi.m, xi.n)
                refl = BlockKey(moved.mu.reflected(), moved.nu.reflected(), xi.t, xi.m, xi.n)
                for key in (moved, refl):
                    assert normalize_key(key).gamma == xi.gamma.normalized(), key

    def test_typical_scopes_closure_reaches_same_strictification(self):
        # same strictifications of the cores, different spacings
        xi = BlockKey(Composition([1, 2], 0), Composition([0, 0, 3], 0), 0, 3, 3)
        target = BlockKey(Composition([1, 0, 2], 0), Composition([0, 0, 0, 0, 3], 0), 0, 3, 3)
        cl = morita_closure(xi, max_width=6)
        assert normalize_key(target) in cl

    def test_row_swap_move_for_square_shape(self):
        # core split (1,1)|(2) is not a reflection of (2)|(1,1), so the swap
        # produces a genuinely different normalized key
        xi = BlockKey(Composition([1, 1], 0), Composition([2], 2), 0, 2, 2)
        swapped = normalize_key(BlockKey(xi.nu, xi.mu, 0, 2, 2))
        moves = morita_moves(xi)
        assert swapped in moves and swapped != normalize_key(xi)


class TestSerialization:
    def test_composition_json(self):
        assert Composition([0, 2, 0, 1, 0], -2).to_json() == {"offset": -1, "parts": [2, 0, 1]}
        assert Composition().to_json() == {"offset": 0, "parts": []}
