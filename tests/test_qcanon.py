import hashlib
import importlib.util
import itertools
import json
import os
import random

import pytest

from wblocks import cache, cli
from wblocks import qcanon as qc
from wblocks.blockan import compositions_in_window, graded_verma_mult
from wblocks.combinat import BlockKey, Composition, is_anti_dominant, match_rows, weight_of
from wblocks.laurent import ONE, ZERO, LaurentQ, _addmul, qbinom
from wblocks.qcanon import (
    TensorVec,
    canonical,
    d_basis,
    dual_canonical,
    key_stat,
    pairing,
    pairing_formula,
    project_to_S,
    psi,
    psi_star,
    psi_star_S,
    r_apply,
    stable_pairing,
    straighten,
    word_to_svec,
)


def unit(N, signs, key):
    return TensorVec.unit(N, signs, key)


def w0_word(k):
    """s1, s2 s1, s3 s2 s1, ...: a reduced word for the longest element."""
    return [i for top in range(1, k) for i in range(top, 0, -1)]


def block_word(m, n):
    """w0 on the n minus slots, then on the m plus slots, then the m n steps
    carrying the plus block past the minus block, each step written out."""
    steps = []  # in the order they act on (-)^n (+)^m
    steps += reversed(w0_word(n))
    steps += [n + i for i in reversed(w0_word(m))]
    for b in range(m):  # the plus entry at slot n + 1 + b moves to slot 1 + b
        steps += list(range(n + b, b, -1))
    return steps[::-1]


def w0_parts(N, signs, key, inverse, memo):
    """R_{w0} of the unit vector at key as parts (a, tail, image): the sum of
    a * (image x tail), with a a coefficient dict and image raw terms on the
    first k-1 slots, to be read only.  The word s_1, s_2 s_1, ...,
    s_{k-1} ... s_1, applied right to left, moves the first factor to the
    end by k-1 R-steps, then takes the same word for k-1 on slots 1..k-1,
    whose images memo holds."""
    moved = {key: {0: 1}}
    for idx in range(1, len(signs)):
        signs, moved = qc._r_step(N, signs, moved, idx, inverse)
    return [(a, k2[-1:], w0_unit(N, signs[:-1], k2[:-1], inverse, memo))
            for k2, a in moved.items()]


def w0_unit(N, signs, key, inverse, memo):
    """R_{w0} of the unit vector at key as raw terms, read-only, memoized."""
    out = memo.get((signs, key))
    if out is None:
        if len(key) <= 1:
            return {key: {0: 1}}
        out = memo[(signs, key)] = {}
        for a, tail, image in w0_parts(N, signs, key, inverse, memo):
            qc._acc(out, ((k2 + tail, x) for k2, x in image.items()), a)
    return out


def w0_bar(v, inverse=False):
    """psi (or psi_star, with inverse) of v with no word: each key's R_{w0}
    image is built factor by factor, and the keys share one memo of sub-key
    images.  The reference route the bars along a word are compared with."""
    k = len(v.signs)
    sign = [1 if s == "+" else -1 for s in v.signs]
    memo, acc = {}, {}
    for key, c in v.terms.items():
        e = sum(sign[r] * sign[s] for r in range(k) for s in range(r + 1, k) if key[r] == key[s])
        b = {(e if inverse else -e) - x: y for x, y in c.items()}
        for a, tail, image in w0_parts(v.N, v.signs[::-1], key[::-1], inverse, memo):
            qc._acc(acc, ((k2 + tail, x) for k2, x in image.items()), _addmul({}, a, b))
    return TensorVec._from_raw(v.N, v.signs, acc)


def psi_star_reduction(N, signs, key, family, rank):
    """Lusztig's lemma at key by psi_star: the unit vector plus p * b_head
    for the positive part p of each head of psi_star(b) - b, with b_head
    read from family, which must hold every key of the weight space that
    ranks below key; rank maps each key of the space to its key_stat."""
    b = unit(N, signs, key)
    d = psi_star(b) + b.scaled(-1)
    while not d.is_zero():
        head = max(d.terms, key=rank.__getitem__)
        assert rank[head] < rank[key], (key, head)
        p = LaurentQ(d.terms[head]).positive_part()
        b = b + family[head].scaled(p)
        d = d + family[head].scaled(p.bar() - p)
    return b


def all_roots_family(N, signs, weight):
    """The dual canonical family of a weight space with every key reduced
    by psi_star_reduction, in the order of key_stat."""
    rank = {k: key_stat(signs, k) for k in qc._weight_space(N, signs, weight)}
    family = {}
    for key in sorted(rank, key=rank.__getitem__):
        family[key] = psi_star_reduction(N, signs, key, family, rank)
    return family


def _slot_K_exp(sign, i, j):
    """Exponent of q from K_i on v_j^{sign}: (alpha_i, eps_j) for the
    standard symmetric form, negated on the dual module."""
    e = (1 if j == i else 0) - (1 if j == i + 1 else 0)
    return e if sign == "+" else -e


def act_gen(gen, i, v):
    """Action of F_i, E_i, K_i or K_i^{-1} on tensor space through the
    iterated comultiplication (F carries K's to its right, E carries
    K^{-1}'s to its left): the generators psi is checked against."""
    N, signs = v.N, v.signs
    if not 1 <= i < N:
        raise ValueError(f"generator index {i} out of range 1..{N - 1}")
    k = len(signs)
    out = {}
    for key, c in v.terms.items():
        c = LaurentQ(c)
        if gen in ("K", "Kinv"):
            e = sum(_slot_K_exp(signs[a], i, key[a]) for a in range(k))
            out[key] = out.get(key, ZERO) + c.shift(e if gen == "K" else -e)
            continue
        for a in range(k):
            s, j = signs[a], key[a]
            if gen == "F" and (s, j) in (("+", i), ("-", i + 1)):
                new_j = 2 * i + 1 - j
                shift = sum(_slot_K_exp(signs[b], i, key[b]) for b in range(a + 1, k))
            elif gen == "E" and (s, j) in (("+", i + 1), ("-", i)):
                new_j = 2 * i + 1 - j
                shift = -sum(_slot_K_exp(signs[b], i, key[b]) for b in range(a))
            else:
                continue
            new_key = key[:a] + (new_j,) + key[a + 1 :]
            out[new_key] = out.get(new_key, ZERO) + c.shift(shift)
    return TensorVec(N, signs, out)


def rand_vec(rng, N, signs, nterms=3):
    terms = {}
    for _ in range(nterms):
        key = tuple(rng.randint(1, N) for _ in signs)
        terms[key] = LaurentQ({rng.randint(-2, 2): rng.randint(-3, 3)})
    return TensorVec(N, signs, terms)


class TestGenerators:
    def test_F_single_plus(self):
        v = unit(3, "+", (1,))
        assert act_gen("F", 1, v) == unit(3, "+", (2,))
        assert act_gen("F", 2, v).is_zero()

    def test_E_single_plus(self):
        v = unit(3, "+", (2,))
        assert act_gen("E", 1, v) == unit(3, "+", (1,))

    def test_F_dual_module(self):
        v = unit(3, "-", (2,))
        assert act_gen("F", 1, v) == unit(3, "-", (1,))

    def test_K_grouplike_scalar(self):
        v = unit(3, "++-", (1, 2, 1))
        out = act_gen("K", 1, v)
        # slot weights for alpha_1: +1, -1, -1
        assert out == v.scaled(LaurentQ({-1: 1}))
        assert act_gen("Kinv", 1, out) == act_gen("Kinv", 1, act_gen("K", 1, v))

    def test_coproduct_on_two_slots(self):
        v = unit(2, "++", (1, 1))
        out = act_gen("F", 1, v)
        assert out == TensorVec(
            2, "++", {(1, 2): ONE, (2, 1): LaurentQ({1: 1})}
        )

    def test_serre_free_commutation(self):
        # E_1 F_2 == F_2 E_1 on distant indices
        v = rand_vec(random.Random(0), 4, "++-", 4)
        a = act_gen("E", 1, act_gen("F", 3, v))
        b = act_gen("F", 3, act_gen("E", 1, v))
        assert a == b

    def test_bad_index(self):
        with pytest.raises(ValueError):
            act_gen("F", 3, unit(3, "+", (1,)))


class TestRMatrix:
    def test_plus_plus_ordered(self):
        out = r_apply(1, unit(3, "++", (1, 2)))
        assert out == unit(3, "++", (2, 1))

    def test_plus_plus_equal_scales_q(self):
        out = r_apply(1, unit(3, "++", (2, 2)))
        assert out == unit(3, "++", (2, 2)).scaled(LaurentQ({1: 1}))

    def test_plus_plus_disorder_has_correction(self):
        out = r_apply(1, unit(3, "++", (2, 1)))
        assert out == TensorVec(
            3, "++", {(1, 2): ONE, (2, 1): LaurentQ({1: 1, -1: -1})}
        )

    def test_signs_swap(self):
        out = r_apply(1, unit(3, "+-", (1, 2)))
        assert out.signs == "-+"
        assert out == TensorVec(3, "-+", {(2, 1): ONE})

    @pytest.mark.parametrize("signs", ["++", "--", "+-", "-+"])
    def test_inverse(self, signs):
        rng = random.Random(11)
        for _ in range(10):
            v = rand_vec(rng, 3, signs)
            assert r_apply(1, r_apply(1, v), inverse=True) == v
            assert r_apply(1, r_apply(1, v, inverse=True)) == v

    def test_braid_relation(self):
        rng = random.Random(5)
        for signs in ["+++", "++-", "+--", "-+-"]:
            v = rand_vec(rng, 3, signs)
            lhs = r_apply(1, r_apply(2, r_apply(1, v)))
            rhs = r_apply(2, r_apply(1, r_apply(2, v)))
            assert lhs == rhs


class TestBarInvolutions:
    def test_psi_star_fixed_point(self):
        v = unit(2, "+-", (1, 1))
        assert psi_star(v) == v

    def test_psi_star_correction(self):
        v = unit(2, "+-", (2, 2))
        expect = v + unit(2, "+-", (1, 1)).scaled(LaurentQ({-1: 1, 1: -1}))
        assert psi_star(v) == expect

    @pytest.mark.parametrize("signs", ["+-", "++-", "+--", "++--"])
    def test_involutions(self, signs):
        rng = random.Random(3)
        N = 3
        for _ in range(6):
            v = rand_vec(rng, N, signs)
            assert psi(psi(v)) == v
            assert psi_star(psi_star(v)) == v

    def test_bar_of_a_vector_not_on_plus_then_minus_signs_is_rejected(self):
        with pytest.raises(ValueError, match=r"\(\+\)\^m \(-\)\^n"):
            psi(unit(3, "-+", (1, 2)))

    def test_sign_errors_name_the_operation(self):
        v = unit(3, "-+", (1, 2))
        for name, call in (("psi", lambda: psi(v)), ("psi_star", lambda: psi_star(v)),
                           ("key_stat", lambda: key_stat("-+", (1, 2))),
                           ("project_to_S", lambda: project_to_S(v)),
                           ("_psi_root", lambda: qc._psi_root(3, "-+", (1, 2)))):
            with pytest.raises(ValueError, match=rf"^{name} is defined on \(\+\)\^m \(-\)\^n "
                                                 r"signs only, not '-\+'$"):
                call()

    def test_reduced_word_independence(self):
        # the bars run along the block word, the reference route along
        # s1, s2 s1, ... factor by factor from memoized sub-key images: two
        # reduced words for w0 give the same bars
        rng = random.Random(17)
        for signs in ("+++--", "+++---"):
            for _ in range(12):
                key = tuple(rng.randint(1, 4) for _ in signs)
                v = unit(4, signs, key)
                assert w0_bar(v) == psi(v), (signs, key)
                assert w0_bar(v, True) == psi_star(v), (signs, key)
            v = rand_vec(rng, 4, signs, nterms=4)
            assert w0_bar(v) == psi(v), signs

    def test_block_word_is_the_bars_route(self):
        # psi and psi_star along the block word equal the reference route on
        # every unit vector
        for k in range(1, 6):
            for m in range(k + 1):
                signs = "+" * m + "-" * (k - m)
                word = qc._block_word(m, k - m)
                assert word == block_word(m, k - m) and len(word) == k * (k - 1) // 2
                for N in (1, 2, 3):
                    for key in itertools.product(range(1, N + 1), repeat=k):
                        v = unit(N, signs, key)
                        assert psi(v) == w0_bar(v), (signs, key)
                        assert psi_star(v) == w0_bar(v, True), (signs, key)

    def test_psi_star_triangular(self):
        N, signs = 3, "++--"
        for key in itertools.product(range(1, N + 1), repeat=4):
            d = psi_star(unit(N, signs, key)).terms
            assert d.pop(key) == {0: 1}
            for other in d:
                assert key_stat(signs, other) < key_stat(signs, key)

    @pytest.mark.parametrize("signs", ["+-", "++-", "+--", "++--"])
    def test_psi_intertwines_generators(self, signs):
        # psi is compatible with the bar involution of U_q, which fixes E_i
        # and F_i and inverts K_i
        N = 3
        for key in itertools.product(range(1, N + 1), repeat=len(signs)):
            v = unit(N, signs, key)
            pv = psi(v)
            for i in range(1, N):
                for gen, image in (("E", "E"), ("F", "F"), ("K", "Kinv")):
                    assert psi(act_gen(gen, i, v)) == act_gen(image, i, pv), (key, gen, i)

    def test_adjointness_via_pairing(self):
        # (psi(v), w) bar == (v, psi*(w)) on random vectors
        rng = random.Random(23)
        for _ in range(8):
            v = rand_vec(rng, 3, "+-")
            w = rand_vec(rng, 3, "+-")
            lhs = pairing(psi(v), w).bar()
            rhs = pairing(v, psi_star(w))
            assert lhs == rhs


class TestCanonicalBases:
    def test_smallest_dual_vector(self):
        assert dual_canonical(2, (1,), (1,)) == unit(2, "+-", (1, 1))

    def test_dual_vector_with_correction(self):
        v = dual_canonical(2, (2,), (2,))
        assert v == TensorVec(2, "+-", {(2, 2): ONE, (1, 1): LaurentQ({1: -1})})

    def test_bar_invariance_and_triangularity(self):
        N = 3
        for key in itertools.product(range(1, N + 1), repeat=2):
            top, bottom = key[:1], key[1:]
            b = dual_canonical(N, top, bottom)
            assert psi_star(b) == b
            assert b.terms[key] == {0: 1}
            for other, c in b.terms.items():
                if other != key:
                    assert min(c) >= 1

    def test_canonical_bar_invariance(self):
        N = 3
        for key in itertools.product(range(1, N + 1), repeat=2):
            b = canonical(N, key[:1], key[1:])
            assert psi(b) == b

    def test_duality_of_bases(self):
        N = 2
        for m, n in [(1, 1), (2, 1), (2, 2)]:
            keys = list(itertools.product(range(1, N + 1), repeat=m + n))
            for ka in keys:
                b = canonical(N, ka[:m], ka[m:])
                for kb in keys:
                    bs = dual_canonical(N, kb[:m], kb[m:])
                    assert pairing(b, bs) == (ONE if ka == kb else ZERO)

    def test_pairing_requires_same_shape(self):
        with pytest.raises(ValueError):
            pairing(unit(2, "+-", (1, 1)), unit(2, "-+", (1, 1)))

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_small_families_are_bar_invariant_and_unitriangular(self, monkeypatch, N):
        # Lusztig's uniqueness: these three properties determine each vector,
        # so this checks every family of k <= 4 without reading the loop
        monkeypatch.setattr(cache, "_cache_dir", None)
        for k in range(1, 5):
            for m in range(k + 1):
                signs = "+" * m + "-" * (k - m)
                spaces = {weight_of(key[:m], key[m:])
                          for key in itertools.product(range(1, N + 1), repeat=k)}
                for weight in spaces:
                    for dual, bar in ((True, psi_star), (False, psi)):
                        monkeypatch.setattr(qc, "_family_memo", {})
                        for key, b in qc._basis_family(N, signs, weight, dual).items():
                            assert bar(b) == b
                            assert b.terms[key] == {0: 1}
                            assert all(min(c) >= 1 for k2, c in b.terms.items() if k2 != key)

    @pytest.mark.parametrize("dual,bar,calls,bars", [(True, "psi_star", 0, 0), (False, "psi", 54, 10)])
    def test_family_takes_one_positive_part_per_reduction(self, monkeypatch, dual, bar, calls, bars):
        # the benchmark counts reductions through LaurentQ.positive_part; of
        # the 93 keys, only the 10 canonical root keys take psi, by the walk
        # (_psi_root), and reduce through positive_part, the dual root keys
        # take their closed form, and no family calls its bar
        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qc, "_family_memo", {})
        counts = {"positive_part": 0, "_psi_root": 0, bar: 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LaurentQ, "positive_part", counted("positive_part", LaurentQ.positive_part))
        for name in ("_psi_root", bar):
            monkeypatch.setattr(qc, name, counted(name, getattr(qc, name)))
        qc._basis_family(3, "+++---", (), dual)
        assert counts == {"positive_part": calls, "_psi_root": bars, bar: 0}

    def test_bar_with_a_head_that_is_not_antisymmetric_is_rejected(self, monkeypatch):
        # the canonical family's order: (2, 2) first, then (1, 1)
        keys = [(2, 2), (1, 1)]

        def bar_adding(c):
            def bar(N, signs, key):
                if key == (1, 1):
                    return unit(N, signs, key) + TensorVec(2, "+-", {(2, 2): LaurentQ(c)})
                return unit(N, signs, key)
            return bar

        monkeypatch.setattr(qc, "_psi_root", bar_adding({1: 1, -1: -1}))
        assert qc._lusztig(2, "+-", keys, False) == [
            unit(2, "+-", (2, 2)), TensorVec(2, "+-", {(1, 1): 1, (2, 2): {1: 1}})]
        monkeypatch.setattr(qc, "_psi_root", bar_adding({1: 1}))
        with pytest.raises(ArithmeticError, match="non-triangular"):
            qc._lusztig(2, "+-", keys, False)


class TestRStepRoute:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_bars_invert_each_same_sign_r_step(self, N):
        # psi(R_a v) == R_a^{-1} psi(v), and the same for psi_star, on every
        # unit vector of the (+)^m (-)^n spaces with k <= 4: the identity the
        # R-step route of _lusztig rests on
        for k in range(2, 5):
            for m in range(k + 1):
                signs = "+" * m + "-" * (k - m)
                slots = [a for a in range(1, k) if signs[a - 1] == signs[a]]
                for key in itertools.product(range(1, N + 1), repeat=k):
                    v = unit(N, signs, key)
                    for bar in (psi, psi_star):
                        bv = bar(v)
                        for a in slots:
                            assert bar(r_apply(a, v)) == r_apply(a, bv, inverse=True), (signs, key, a)

    @pytest.mark.parametrize("fault", ["extra-term", "no-unit"])
    def test_r_step_that_is_not_unitriangular_is_rejected(self, monkeypatch, fault):
        real = qc._rank_step

        def step(table, triples, p, dual):
            x = real(table, triples, p, dual)
            i = table[p][0]  # the unit term at p moves to the new key's rank
            if fault == "extra-term":
                x[(i, 1)] = 1
            else:
                x.pop((i, 0))
            return x

        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qc, "_family_memo", {})
        monkeypatch.setattr(qc, "_rank_step", step)
        for dual in (True, False):
            with pytest.raises(ArithmeticError, match="non-triangular R-step"):
                qc._basis_family(3, "++--", ((1, 1), (2, -1)), dual)

    @pytest.mark.parametrize("N,signs,weight,roots", [(4, "+++---", (), 20),
                                                      (5, "+++--", ((3, 1),), 15)])
    def test_families_equal_the_all_roots_route(self, monkeypatch, N, signs, weight, roots):
        # with no key taken for one R-step from another, every key starts
        # from its bar image: in _lusztig for the canonical family, with
        # psi along the block word, since the walk takes only true root
        # keys, and in all_roots_family for the dual one, whose root keys
        # are the anti-dominant keys; both routes must give the same vectors
        monkeypatch.setattr(cache, "_cache_dir", None)
        m = signs.count("+")
        for dual in (True, False):
            monkeypatch.setattr(qc, "_family_memo", {})
            family = qc._basis_family(N, signs, weight, dual)
            root_keys = [key for key in family if qc._descent(signs, key, dual) is None]
            assert len(root_keys) == roots
            if dual:
                assert all(is_anti_dominant(key[:m], key[m:]) for key in root_keys)
                assert all_roots_family(N, signs, weight) == family
                continue
            with monkeypatch.context() as mp:
                mp.setattr(qc, "_family_memo", {})
                mp.setattr(qc, "_descent", lambda signs, key, dual: None)
                mp.setattr(qc, "_psi_root", lambda N, signs, key: psi(unit(N, signs, key)))
                assert qc._basis_family(N, signs, weight, dual) == family


class TestPsiRootWalk:
    def test_equals_psi_of_the_unit_at_every_root_key(self):
        # every canonical root key (top weakly decreasing, bottom weakly
        # increasing) with N <= 4 and k <= 6: the walk is psi of the unit
        # vector along the block word; any other key is refused
        checked = 0
        for N in range(1, 5):
            for k in range(1, 7):
                for m in range(k + 1):
                    signs = "+" * m + "-" * (k - m)
                    for key in itertools.product(range(1, N + 1), repeat=k):
                        if qc._descent(signs, key, False) is not None:
                            with pytest.raises(ValueError, match="not a root key"):
                                qc._psi_root(N, signs, key)
                            continue
                        assert qc._psi_root(N, signs, key) == psi(unit(N, signs, key)), (signs, key)
                        checked += 1
        assert checked == 4161  # sum over N, m, n of C(N+m-1, m) C(N+n-1, n)


class TestDualClosedForm:
    def test_equals_the_psi_star_route_at_every_anti_dominant_key(self, monkeypatch):
        # by induction on rank: while every lower vector of the family is
        # right, psi_star_reduction gives the true b* at the next root key,
        # so the first wrong closed form would differ from it
        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qc, "_family_memo", {})
        checked = mixed = 0
        ranks = {}
        for N in range(1, 5):
            for k in range(1, 6):
                for m in range(k + 1):
                    signs = "+" * m + "-" * (k - m)
                    for key in itertools.product(range(1, N + 1), repeat=k):
                        if not is_anti_dominant(key[:m], key[m:]):
                            continue
                        weight = weight_of(key[:m], key[m:])
                        family = qc._basis_family(N, signs, weight, True)
                        if (N, signs, weight) not in ranks:
                            ranks[N, signs, weight] = {k2: key_stat(signs, k2) for k2 in family}
                        closed = qc._dual_root(N, signs, key)
                        ref = psi_star_reduction(N, signs, key, family, ranks[N, signs, weight])
                        assert closed == family[key] == ref, (N, signs, key)
                        checked += 1
                        mixed += 0 < m < k
        assert (checked, mixed) == (1892, 1482)


class TestWeightSpaceKeys:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_filter_of_all_tuples(self, N):
        for k in range(1, 6):
            for m in range(k + 1):
                signs = "+" * m + "-" * (k - m)
                by_weight: dict = {}
                for key in itertools.product(range(1, N + 1), repeat=k):
                    by_weight.setdefault(weight_of(key[:m], key[m:]), set()).add(key)
                for weight, expected in by_weight.items():
                    got = list(qc._weight_space_keys(N, signs, weight))
                    assert len(got) == len(set(got)) and set(got) == expected, (signs, weight)

    def test_weights_that_do_not_occur(self):
        assert not list(qc._weight_space_keys(3, "+-", ((1, -1), (4, 1))))
        assert not list(qc._weight_space_keys(3, "+-", ((1, 2),)))
        assert not list(qc._weight_space_keys(3, "++-", ((1, -1), (2, -1))))


class TestAlgebraS:
    def test_straighten_antidominant_is_zero(self):
        assert straighten((1, 2), (3, 1)) == (0, ((1, 2), (3, 1)))

    def test_straighten_top_inversion(self):
        ell, key = straighten((2, 1), ())
        assert ell == 1 and key == ((1, 2), ())

    def test_straighten_bottom_coinversion(self):
        ell, key = straighten((), (1, 2))
        assert ell == 1 and key == ((), (2, 1))

    def test_word_normal_form_rel4(self):
        # y_2 x_2 = q x_2 y_2 + (q - q^{-1})(-q) x_1 y_1
        out = word_to_svec(2, [("y", 2), ("x", 2)])
        assert out.terms == {(2, 2): {1: 1}, (1, 1): {2: -1, 0: 1}}

    def test_builders_return_normal_form(self):
        # an element of S is a TensorVec on (+)^m (-)^n whose keys have an
        # ascending top (first m entries) and a descending bottom
        rng = random.Random(31)
        N = 3

        def rand_word():
            return [(rng.choice("xy"), rng.randint(1, N)) for _ in range(rng.randint(0, 4))]

        outs = []
        for _ in range(8):
            a, b = word_to_svec(N, rand_word()), word_to_svec(N, rand_word())
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            top = tuple(sorted(rng.randint(1, N) for _ in range(m)))
            bottom = tuple(sorted((rng.randint(1, N) for _ in range(n)), reverse=True))
            d = d_basis(N, top, bottom)
            p = project_to_S(rand_vec(rng, N, "+" * m + "-" * n))
            outs += [a, b, d, p, psi_star_S(a), psi_star_S(d), psi_star_S(p)]
        keys = 0
        for v in outs:
            m = v.signs.count("+")
            assert v.signs == "+" * m + "-" * (len(v.signs) - m)
            for key in v.terms:
                top, bottom = key[:m], key[m:]
                assert len(key) == len(v.signs), (v.signs, key)
                assert list(top) == sorted(top), (v.signs, key)
                assert list(bottom) == sorted(bottom, reverse=True), (v.signs, key)
                keys += 1
        assert keys > len(outs)

    def test_atyp_split(self):
        # the split of an anti-dominant key that d_basis reads: the matched
        # values and what each row keeps
        matched, rest_top, rest_bottom = match_rows((1, 2, 2), (3, 2, 2))
        assert matched == {2: 2} and rest_top == {1: 1} and rest_bottom == {3: 1}

    def test_d_basis_single_pair(self):
        d = d_basis(2, (2,), (2,))
        assert d.terms == {(2, 2): {0: 1}, (1, 1): {1: -1}}

    def test_d_basis_typical(self):
        d = d_basis(3, (1,), (3,))
        assert d == TensorVec(3, "+-", {(1, 3): ONE})

    def test_indices_outside_one_to_n_raise(self):
        with pytest.raises(ValueError, match="out of range"):
            d_basis(2, (5,), ())
        with pytest.raises(ValueError, match="out of range"):
            word_to_svec(2, [("y", 0), ("x", 0)])

    def test_d_basis_requires_antidominant(self):
        with pytest.raises(ValueError):
            d_basis(3, (2, 1), ())

    def test_d_basis_bar_invariant(self):
        for top, bottom in [((2,), (2,)), ((1, 2), (2, 1)), ((2, 2), (2,))]:
            d = d_basis(3, top, bottom)
            assert psi_star_S(d) == d

    def test_commutation_ladder(self):
        # x_j z_i = q^{+-1} z_i x_j depending on j > i vs j <= i, checked by
        # normal-form comparison with z expanded into monomials
        from wblocks.qcanon import z_word_terms

        N = 3
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = TensorVec(N, "++-")
                rhs = TensorVec(N, "++-")
                for zc, xg, yg in z_word_terms(N, i):
                    lhs = lhs + word_to_svec(N, [("x", j), xg, yg]).scaled(zc)
                    rhs = rhs + word_to_svec(N, [xg, yg, ("x", j)]).scaled(zc)
                shift = 1 if j > i else -1
                assert lhs == rhs.scaled(LaurentQ({shift: 1}))

    def test_projection_intertwines_bar(self):
        rng = random.Random(17)
        for m, n in [(1, 1), (2, 1), (1, 2)]:
            signs = "+" * m + "-" * n
            for _ in range(6):
                v = rand_vec(rng, 3, signs)
                assert project_to_S(psi_star(v)) == psi_star_S(project_to_S(v))

    def test_projection_of_dual_canonical(self):
        N = 3
        for m, n in [(1, 1), (2, 1), (2, 2)]:
            for key in itertools.product(range(1, N + 1), repeat=m + n):
                top, bottom = key[:m], key[m:]
                p = project_to_S(dual_canonical(N, top, bottom))
                anti = list(top) == sorted(top) and list(bottom) == sorted(
                    bottom, reverse=True
                )
                if anti:
                    assert p == d_basis(N, top, bottom)
                else:
                    assert p.is_zero()


def u_in_d(lam, mu, nu, N):
    """The monomial u_lam of S on the dual canonical basis: the nonzero
    graded Verma multiplicities d_{lam kappa}(q) over kappa in [1, N]."""
    t = lam.total
    xi = BlockKey(mu, nu, t, t + mu.total, t + nu.total)
    d = {kap: graded_verma_mult(xi, lam, kap) for kap in compositions_in_window(t, 1, N)}
    return {kap: c for kap, c in d.items() if c != 0}


class TestExpansionsAndPairing:
    def test_u_in_d_smallest(self):
        out = u_in_d(Composition.eps(2), Composition(), Composition(), 3)
        assert out == {
            Composition.eps(2): ONE,
            Composition.eps(1): LaurentQ({1: 1}),
        }

    def test_theta_zero_coefficient_one(self):
        lam = Composition([1, 1], 1)
        out = u_in_d(lam, Composition(), Composition(), 4)
        assert out[lam] == ONE

    def test_expansion_matches_triangular_solve(self):
        # independent oracle: expand the d's into monomials and solve the
        # triangular system for u_lambda over the Laurent ring
        N = 3
        mu, nu = Composition.eps(1), Composition.eps(3)
        t = 2
        lam_list = [
            Composition([2], 2),
            Composition([1, 1], 1),
            Composition([2], 1),
            Composition([1, 1], 2),
            Composition([1, 0, 1], 1),
            Composition([2], 3),
        ]
        for lam in lam_list:
            # build the key tableau for (mu, nu; lam)
            def key_of(c):
                top = []
                bottom = []
                for i in range(1, N + 1):
                    top.extend([i] * (c[i] + mu[i]))
                    bottom.extend([i] * (c[i] + nu[i]))
                return tuple(top), tuple(sorted(bottom, reverse=True))

            # u_lambda as a normal-form monomial
            top, bottom = key_of(lam)
            u = word_to_svec(N, [("x", a) for a in top] + [("y", b) for b in bottom])
            expansion = u_in_d(lam, mu, nu, N)
            recon = TensorVec(N, u.signs)
            for kap, coeff in expansion.items():
                recon = recon + d_basis(N, *key_of(kap)).scaled(coeff)
            assert recon == u, (lam, expansion)

    def test_pairing_formula_unit_case(self):
        lam = Composition.eps(2)
        val = pairing_formula(lam, lam, Composition(), 3, 1, 1)
        assert val == LaurentQ({0: 1, 2: 1})

    def test_pairing_formula_vs_basis_pairing(self):
        N = 3
        mu, nu = Composition(), Composition()
        for i, j in itertools.product(range(1, N + 1), repeat=2):
            b_i = canonical(N, (i,), (i,))
            b_j = canonical(N, (j,), (j,))
            direct = pairing(b_i, b_j)
            formula = pairing_formula(
                Composition.eps(i), Composition.eps(j), Composition(), N, 1, 1
            )
            assert direct == formula, (i, j)

    def test_stability_gate(self):
        lam = Composition.eps(2)
        val, n_used = stable_pairing(lam, lam, Composition(), Composition())
        assert val == LaurentQ({0: 1, 2: 1})
        assert n_used == 3

    def test_unstable_pairing_raises_naming_both_values(self, monkeypatch):
        # a pairing_formula that moves with N: the values at N0 = 3 and 4
        # differ, and stable_pairing reports both instead of searching on
        monkeypatch.setattr(qc, "pairing_formula",
                            lambda kappa, lam, gamma, N, m, n: LaurentQ({N: 1}))
        lam = Composition.eps(2)
        with pytest.raises(ArithmeticError, match=r"q\^3 at N = 3 but q\^4 at N = 4"):
            stable_pairing(lam, lam, Composition(), Composition())

    def test_pairing_formula_zero_when_unreachable(self):
        assert pairing_formula(
            Composition.eps(2), Composition.eps(4), Composition(), 5, 1, 1
        ) == ZERO


def assert_raw_terms(vec):
    """Every coefficient of a TensorVec, of tensor space or of S, is a plain
    dict {int: int} without zeros."""
    for key, c in vec.terms.items():
        assert type(c) is dict and c, (key, c)
        assert all(type(e) is int and type(x) is int and x for e, x in c.items()), (key, c)


class TestCoefficientFormat:
    SPACE = (3, "++--", ((1, 1), (2, -1)))

    def families(self, monkeypatch):
        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qc, "_family_memo", {})
        return [qc._basis_family(*self.SPACE, dual) for dual in (True, False)]

    def test_computed_and_decoded_family_vectors(self, tmp_path, monkeypatch):
        for family in self.families(monkeypatch):
            for vec in family.values():
                assert_raw_terms(vec)
        monkeypatch.setattr(cache, "_cache_dir", str(tmp_path))
        for dual in (True, False):
            qc._basis_family(*self.SPACE, dual)  # writes the file
            monkeypatch.setattr(qc, "_family_memo", {})
            for key in qc._basis_family(*self.SPACE, dual):
                assert_raw_terms(qc._basis_vector(3, key[:2], key[2:], dual))

    def test_operator_outputs(self):
        rng = random.Random(29)
        for signs in ("+-", "++-", "+--"):
            v = rand_vec(rng, 3, signs, nterms=4)
            outs = [psi(v), psi_star(v), r_apply(1, v), r_apply(1, v, inverse=True)]
            outs += [act_gen(gen, i, v) for gen in ("E", "F", "K", "Kinv") for i in (1, 2)]
            for out in outs:
                assert_raw_terms(out)
        for top, bottom in [((2,), (2,)), ((1, 2), (2, 1)), ((2, 2), (2,))]:
            assert_raw_terms(d_basis(3, top, bottom))
            assert_raw_terms(project_to_S(dual_canonical(3, top, bottom)))
            assert_raw_terms(psi_star_S(d_basis(3, top, bottom)))

    def test_constructors_and_scaled_take_laurent_int_or_dict(self):
        a = TensorVec(2, "+-", {(1, 1): LaurentQ({1: 2}), (2, 2): 3, (1, 2): {0: 0, -1: 4}})
        assert a.terms == {(1, 1): {1: 2}, (2, 2): {0: 3}, (1, 2): {-1: 4}}
        assert a.scaled(LaurentQ({1: 1})) == a.scaled(LaurentQ({2: 1})).scaled(LaurentQ({-1: 1}))
        assert a.scaled(-1) == TensorVec(2, "+-", {k: {e: -x for e, x in c.items()}
                                                   for k, c in a.terms.items()})
        assert a.scaled(0).is_zero() and a.scaled(ZERO).is_zero()
        s = TensorVec(3, "+-", {(1, 3): ONE, (2, 2): {2: -1}})
        assert s.terms == {(1, 3): {0: 1}, (2, 2): {2: -1}}
        assert s.scaled(2) == s + s
        for vec in (a, s, a.scaled(LaurentQ({1: 1})), s.scaled(2)):
            assert_raw_terms(vec)
        one = LaurentQ(1)
        v = TensorVec(2, "+-", {(1, 1): one})
        assert v.terms[(1, 1)] is not one.coeffs  # a literal is copied, not shared

    def test_builders_never_write_stored_vectors(self, monkeypatch):
        # psi_star, pairing, scaled, + and r_apply only read the
        # coefficient dicts of memoized family vectors, and hand back
        # dicts of their own
        vecs = [v for family in self.families(monkeypatch) for v in family.values()]
        before = [json.dumps(v.to_json()) for v in vecs]
        stored = {id(c) for v in vecs for c in v.terms.values()}
        outs = []
        for v, w in zip(vecs, vecs[1:] + vecs[:1]):
            outs += [psi_star(v), v.scaled(LaurentQ({1: 1, -1: 2})), v.scaled(1),
                     v + w, w + v, v + v, r_apply(1, v), r_apply(3, v, inverse=True)]
            assert type(pairing(v, w)) is LaurentQ
        assert [json.dumps(v.to_json()) for v in vecs] == before
        assert not stored & {id(c) for out in outs for c in out.terms.values()}
        assert ONE.coeffs == {0: 1} and ZERO.coeffs == {}


class TestJsonAndCache:
    def test_tensorvec_json_round_trip(self):
        # a family file's vector string: encoded, decoded, the same vector
        keys = sorted(qc._weight_space_keys(3, "++--", ((1, 1), (2, -1))))
        rank = {k: i for i, k in enumerate(keys)}
        for k in keys:
            for v in (dual_canonical(3, k[:2], k[2:]), canonical(3, k[:2], k[2:])):
                text = qc._encode_vec(rank, v)
                assert qc._decode_vec(3, "++--", keys, k, text) == v
        v = TensorVec(3, "++--", {keys[2]: LaurentQ({-3: 2, 5: -1}), keys[0]: ONE})
        assert qc._encode_vec(rank, v) == "[[0,0,1],[2,-3,2,5,-1]]"
        v = TensorVec(3, "++--", {keys[2]: LaurentQ({1: 2, 5: -1}), keys[0]: ONE})
        assert qc._decode_vec(3, "++--", keys, keys[0], "[[0,0,1],[2,1,2,5,-1]]") == v

    @pytest.mark.parametrize("own,text", [
        (0, "[]"), (1, "[[0,0,1]]"), (0, "[[0,0,2]]"), (0, "[[0,0,1,1,1]]"), (0, "[[0,1,1]]"),
        (0, "[[0,0,1],[2,-3,2,5,-1]]"), (0, "[[0,0,1],[2,0,2]]"), (2, "[[0,0,1],[2,0,1]]"),
    ])
    def test_decoded_vector_is_unit_at_its_key_and_in_qZq_elsewhere(self, own, text):
        keys = sorted(qc._weight_space_keys(3, "++--", ((1, 1), (2, -1))))
        with pytest.raises(ValueError):
            qc._decode_vec(3, "++--", keys, keys[own], text)

    def test_file_cache_round_trip(self, tmp_path):
        from wblocks import cache
        from wblocks import qcanon as qc

        old = cache.current_dir()
        cache.configure(str(tmp_path))
        try:
            qc._family_memo.clear()
            a = dual_canonical(3, (2, 2), (2,))
            files = list(tmp_path.iterdir())
            assert files, "cache file written"
            qc._family_memo.clear()
            b = dual_canonical(3, (2, 2), (2,))
            assert a == b
        finally:
            cache.configure(old)
            qc._family_memo.clear()

    def test_family_cache_files_pinned(self, tmp_path):
        # sha256 of both family files of N=3 +++--- at weight 0 (93 vectors
        # each): file names pin the request format, contents every coefficient.
        # A file's first line is the sha256 of the JSON below it, which is the
        # whole file of the layout before digest lines, so it pins that too
        expected = {
            "b59e1e2a58928f570ee759052c9e567a68e511f96765196d8afeb89c7b756d23.json":
                "e2c31277c91e57ecac3bf2902030e45ee604dea6fb63fe75d85c001988fed6d1",
            "e007103ccf9f24978a5e0d9013899e66483b8f064f764166693f569dc88f74cc.json":
                "75b3fe53779845659419e331aa8068f6f18167e2b55c303cc774faa62053a859",
        }
        first_lines = {
            "b59e1e2a58928f570ee759052c9e567a68e511f96765196d8afeb89c7b756d23.json":
                b"b20aa9f15143905aa16e832c5281daf80da36c835c5845fd19e3d9c7def31515",
            "e007103ccf9f24978a5e0d9013899e66483b8f064f764166693f569dc88f74cc.json":
                b"1edc6ef4a5dd3ed556706c06c9ddc876b997e2e1f1f0341f905672e849085146",
        }
        old = cache.current_dir()
        cache.configure(str(tmp_path))
        try:
            qc._family_memo.clear()
            dual_canonical(3, (1, 2, 3), (3, 2, 1))
            canonical(3, (1, 2, 3), (3, 2, 1))
        finally:
            cache.configure(old)
            qc._family_memo.clear()
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
        assert got == expected
        lines = {f.name: f.read_bytes().partition(b"\n")[0] for f in tmp_path.iterdir()}
        assert lines == first_lines

    def test_family_root_keys_take_the_walk(self, monkeypatch):
        # each canonical root key takes psi by the crossing walk, at its own
        # key, and no family runs a bar along the block word
        walked, bars = [], []
        real_root, real_bar = qc._psi_root, qc._bar

        def root_spy(N, signs, key):
            walked.append(key)
            return real_root(N, signs, key)

        def bar_spy(v, inverse):
            bars.append(v)
            return real_bar(v, inverse)

        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qc, "_psi_root", root_spy)
        monkeypatch.setattr(qc, "_bar", bar_spy)
        for dual in (True, False):  # dual root keys take a closed form
            walked.clear()
            monkeypatch.setattr(qc, "_family_memo", {})
            family = qc._basis_family(3, "+++---", (), dual)
            roots = [] if dual else [k for k in family if qc._descent("+++---", k, False) is None]
            assert sorted(walked) == sorted(roots) and len(walked) == (0 if dual else 10)
        assert not bars

    def test_bar_returning_its_input_leaves_constants_intact(self, monkeypatch):
        # the Lusztig loop writes into the coefficient dicts the walk returns;
        # (2, 1, 1, 2) is a root key of the canonical family, so it takes the
        # walk, here one returning the unit term's constant dict itself
        monkeypatch.setattr(qc, "_psi_root", lambda N, signs, key: TensorVec._from_raw(
            N, signs, {key: ONE.coeffs}))
        qc._family_memo.clear()
        try:
            b = canonical(3, (2, 1), (1, 2))
        finally:
            qc._family_memo.clear()
        assert b == unit(3, "++--", (2, 1, 1, 2))
        assert ONE.coeffs == {0: 1}

    def test_no_cache_payload_without_cache_dir(self, monkeypatch):
        monkeypatch.setattr(cache, "_cache_dir", None)
        serialized = []
        monkeypatch.setattr(qc, "_encode_vec", lambda rank, vec: serialized.append(vec))
        qc._family_memo.clear()
        try:
            dual_canonical(3, (1, 2), (2, 1))
        finally:
            qc._family_memo.clear()
        assert not serialized


def _bench_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _bench_cb_spaces():
    """(N, signs, weight) of every weight space a cb workload of the
    benchmark reads: the cb-families spaces and those of the cb lines of
    cli-session."""
    workloads = _bench_workloads()
    rows = [(N, top, bottom) for N, top, bottom in workloads.CB_SPACES]
    for uid, argv, _, _ in workloads._cli_lines():
        if uid.startswith("cb/"):
            args = cli.build_parser().parse_args(argv)
            rows += [(args.N, *cli.parse_key(t)) for t in (args.key, args.pair_with) if t]
    spaces = set()
    for N, top, bottom in rows:
        signs = "+" * len(top) + "-" * len(bottom)
        spaces.add((N, signs, weight_of(top, bottom)))
    return [pytest.param(*s, id=f"N{s[0]}{s[1]}" + "".join(f"_{i}:{c}" for i, c in s[2]))
            for s in sorted(spaces)]


class TestFamilyFile:
    @pytest.mark.parametrize("N,signs,weight", _bench_cb_spaces())
    def test_decoded_vectors_equal_computed(self, tmp_path, monkeypatch, N, signs, weight):
        # every vector decoded from a freshly written file, in both bases
        monkeypatch.setattr(cache, "_cache_dir", str(tmp_path))
        monkeypatch.setattr(qc, "_family_memo", {})
        m = signs.count("+")
        for dual in (True, False):
            computed = qc._basis_family(N, signs, weight, dual)
            monkeypatch.setattr(qc, "_family_memo", {})
            read = qc._basis_family(N, signs, weight, dual)
            assert all(type(v) is str for v in read.values())
            assert read.keys() == computed.keys()
            for key, vec in computed.items():
                assert qc._basis_vector(N, key[:m], key[m:], dual) == vec
        assert len(list(tmp_path.iterdir())) == 2


# sha256 of the families of each cb-families weight space, (dual, canonical),
# computed with the file cache off: one json.dumps(to_json, sort_keys=True)
# line per vector, in sorted key order
FAMILY_PINS = {
    (4, (1, 2), (2, 1)): (
        "b75473756a57b6226d435f0e2f99b87b8c44c966427a5e184e0bb040a405bf1b",
        "04a07663bd0b99f5cbb3e66e361a6bdf47978d86e3b179194a57f9e1e78a0f4a",
    ),
    (5, (1, 2), (2, 1)): (
        "c87bd275d7e0ae6e9a660620df6fc00405ec43876a08feff9081229a1f740242",
        "d95687f4e2b91a6f863d054e2f7a00ecd32967859d7120b4c57ac607375c620e",
    ),
    (4, (1, 2, 3), (2, 1)): (
        "1e76b30f03e9af641cde07ec3c09bcb59692eb776767107319b233751f5cb0ef",
        "e71b224ba388c7b5a8dad9cd3aa77c20cf5ba9d077ddc6844dd4cbd8cd4eccc8",
    ),
    (3, (1, 2, 3), (3, 2, 1)): (
        "7891c3406c9cee7ec18b5007d28fbd8120dfe7dedf2f09091229a8ab7bd0ffd2",
        "3ed38440130e0a4f141701871d24ff7921a06a99166b7de069407276538d557a",
    ),
    (5, (1, 2, 3), (2, 1)): (
        "8fc983c423adf873e2757264baa365eebf095822343d4218ae5f5106314a7d2b",
        "c70a2fe7b85a833a58098eb97dff59e0f271b5c47f0b6c169f7658772c66d186",
    ),
}


def test_family_pins_cover_the_bench_spaces():
    assert set(FAMILY_PINS) == set(_bench_workloads().CB_SPACES)


@pytest.mark.parametrize("N,top,bottom", list(FAMILY_PINS))
def test_bench_families_pinned(monkeypatch, N, top, bottom):
    monkeypatch.setattr(cache, "_cache_dir", None)
    signs = "+" * len(top) + "-" * len(bottom)
    got = []
    for dual in (True, False):
        monkeypatch.setattr(qc, "_family_memo", {})
        family = qc._basis_family(N, signs, weight_of(top, bottom), dual)
        text = "\n".join(json.dumps(family[k].to_json(), sort_keys=True) for k in sorted(family))
        got.append(hashlib.sha256(text.encode()).hexdigest())
    assert tuple(got) == FAMILY_PINS[N, top, bottom]
