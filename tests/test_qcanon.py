import hashlib
import importlib.util
import itertools
import json
import os
import random

import pytest

from wblocks import cache, cli
from wblocks import qcanon as qc
from wblocks.combinat import Composition, match_rows, weight_of
from wblocks.laurent import ONE, ZERO, LaurentQ, qbinom
from wblocks.qcanon import (
    SVec,
    TensorVec,
    act_gen,
    canonical,
    d_basis,
    dual_canonical,
    expand_u_in_d,
    key_stat,
    pairing,
    pairing_formula,
    project_to_S,
    psi,
    psi_star,
    psi_star_S,
    r_apply,
    s_mul,
    stable_pairing,
    straighten,
    word_to_svec,
)


def unit(N, signs, key):
    return TensorVec.unit(N, signs, key)


def w0_word(k):
    """s1, s2 s1, s3 s2 s1, ...: a reduced word for the longest element."""
    return [i for top in range(1, k) for i in range(top, 0, -1)]


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

    @pytest.mark.parametrize("signs", ["+-", "-+", "++-", "+--", "++--"])
    def test_involutions(self, signs):
        rng = random.Random(3)
        N = 3
        for _ in range(6):
            v = rand_vec(rng, N, signs)
            assert psi(psi(v)) == v
            assert psi_star(psi_star(v)) == v

    def test_reduced_word_independence(self):
        rng = random.Random(9)
        words3 = [[1, 2, 1], [2, 1, 2]]
        for signs in ["++-", "+--"]:
            for _ in range(5):
                v = rand_vec(rng, 3, signs)
                outs = {repr(sorted(psi_star(v, word=w).to_json()["terms"], key=str)) for w in words3}
                assert len(outs) == 1
        words4 = [[1, 2, 1, 3, 2, 1], [3, 2, 3, 1, 2, 3], [2, 1, 3, 2, 1, 3]]
        for _ in range(3):
            v = rand_vec(rng, 2, "++--")
            outs = {repr(sorted(psi_star(v, word=w).to_json()["terms"], key=str)) for w in words4}
            assert len(outs) == 1
        # word=None builds psi factor by factor from memoized sub-key images;
        # an explicit word is the plain R-step loop
        for k in range(1, 5):
            for signs in map("".join, itertools.product("+-", repeat=k)):
                for key in itertools.product(range(1, 4), repeat=k):
                    v = unit(3, signs, key)
                    assert psi(v) == psi(v, word=w0_word(k)), (signs, key)
                    assert psi_star(v) == psi_star(v, word=w0_word(k)), (signs, key)
        rng = random.Random(17)
        for signs in ("+++--", "-+-+-", "+++---", "--++-+"):
            word = w0_word(len(signs))
            for _ in range(12):
                key = tuple(rng.randint(1, 4) for _ in signs)
                v = unit(4, signs, key)
                assert psi(v) == psi(v, word=word), (signs, key)
                assert psi_star(v) == psi_star(v, word=word), (signs, key)
            v = rand_vec(rng, 4, signs, nterms=4)
            assert psi(v) == psi(v, word=word), signs

    def test_psi_star_triangular(self):
        N, signs = 3, "++--"
        for key in itertools.product(range(1, N + 1), repeat=4):
            v = unit(N, signs, key)
            d = psi_star(v) - v
            for other in d.terms:
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

    @pytest.mark.parametrize("dual,bar,calls", [(True, "psi_star", 2022), (False, "psi", 1285)])
    def test_family_takes_one_positive_part_per_reduction(self, monkeypatch, dual, bar, calls):
        # the benchmark counts reductions through LaurentQ.positive_part and
        # injects faults through the module's psi and psi_star
        monkeypatch.setattr(cache, "_cache_dir", None)
        monkeypatch.setattr(qc, "_family_memo", {})
        counts = {"positive_part": 0, bar: 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LaurentQ, "positive_part", counted("positive_part", LaurentQ.positive_part))
        monkeypatch.setattr(qc, bar, counted(bar, getattr(qc, bar)))
        qc._basis_family(3, "+++---", (), dual)
        assert counts == {"positive_part": calls, bar: 93}

    def test_bar_with_a_head_that_is_not_antisymmetric_is_rejected(self):
        keys = [(1, 1), (2, 2)]

        def bar_adding(c):
            def bar(v):
                if (2, 2) in v.terms:
                    return v + TensorVec(2, "+-", {(1, 1): LaurentQ(c)})
                return v
            return bar

        assert qc._lusztig(2, "+-", keys, bar_adding({1: 1, -1: -1})) == [[], [(0, 1, 1)]]
        with pytest.raises(ArithmeticError, match="non-triangular"):
            qc._lusztig(2, "+-", keys, bar_adding({1: 1}))


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
        assert out.terms == {((2,), (2,)): {1: 1}, ((1,), (1,)): {2: -1, 0: 1}}

    def test_product_associative(self):
        rng = random.Random(2)
        for _ in range(5):
            def rand_svec():
                top = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
                bottom = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True))
                return SVec(3, {(top, bottom): LaurentQ({rng.randint(-1, 1): 1})})

            a, b, c = rand_svec(), rand_svec(), rand_svec()
            assert s_mul(s_mul(a, b), c) == s_mul(a, s_mul(b, c))

    def test_atyp_split(self):
        # the split of an anti-dominant key that d_basis reads: the matched
        # values and what each row keeps
        matched, rest_top, rest_bottom = match_rows((1, 2, 2), (3, 2, 2))
        assert matched == {2: 2} and rest_top == {1: 1} and rest_bottom == {3: 1}

    def test_d_basis_single_pair(self):
        d = d_basis(2, (2,), (2,))
        assert d.terms == {((2,), (2,)): {0: 1}, ((1,), (1,)): {1: -1}}

    def test_d_basis_typical(self):
        d = d_basis(3, (1,), (3,))
        assert d == SVec(3, {((1,), (3,)): ONE})

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
                lhs = SVec(N)
                rhs = SVec(N)
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


class TestExpansionsAndPairing:
    def test_u_in_d_smallest(self):
        out = expand_u_in_d(Composition.eps(2), Composition(), Composition(), 3)
        assert out == {
            Composition.eps(2): ONE,
            Composition.eps(1): LaurentQ({1: 1}),
        }

    def test_theta_zero_coefficient_one(self):
        lam = Composition([1, 1], 1)
        out = expand_u_in_d(lam, Composition(), Composition(), 4)
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
            expansion = expand_u_in_d(lam, mu, nu, N)
            recon = SVec(N)
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
    """Every coefficient of a TensorVec or SVec is a plain dict {int: int}
    without zeros."""
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
            outs = [psi(v), psi_star(v), psi(v, word=w0_word(len(signs))), r_apply(1, v),
                    r_apply(1, v, inverse=True)]
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
        assert a.scaled(-1) == TensorVec(2, "+-") - a
        assert a.scaled(0).is_zero() and a.scaled(ZERO).is_zero()
        s = SVec(3, {((1,), (3,)): ONE, ((2,), (2,)): {2: -1}})
        assert s.terms == {((1,), (3,)): {0: 1}, ((2,), (2,)): {2: -1}}
        assert s.scaled(2) == s + s
        for vec in (a, s, a.scaled(LaurentQ({1: 1})), s.scaled(2)):
            assert_raw_terms(vec)
        one = LaurentQ(1)
        v = TensorVec(2, "+-", {(1, 1): one})
        assert v.terms[(1, 1)] is not one.coeffs  # a literal is copied, not shared

    def test_builders_never_write_stored_vectors(self, monkeypatch):
        # psi_star, pairing, scaled, +, - and r_apply only read the
        # coefficient dicts of memoized family vectors, and hand back
        # dicts of their own
        vecs = [v for family in self.families(monkeypatch) for v in family.values()]
        before = [json.dumps(v.to_json()) for v in vecs]
        stored = {id(c) for v in vecs for c in v.terms.values()}
        outs = []
        for v, w in zip(vecs, vecs[1:] + vecs[:1]):
            outs += [psi_star(v), v.scaled(LaurentQ({1: 1, -1: 2})), v.scaled(1), v + w, v - w,
                     w - v, v + v, r_apply(1, v), r_apply(3, v, inverse=True)]
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
                assert qc._decode_vec(3, "++--", keys, text) == v
        v = TensorVec(3, "++--", {keys[2]: LaurentQ({-3: 2, 5: -1}), keys[0]: ONE})
        assert qc._encode_vec(rank, v) == "[[0,0,1],[2,-3,2,5,-1]]"
        assert qc._decode_vec(3, "++--", keys, "[]") == TensorVec(3, "++--")

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
        # each): file names pin the request format, contents every coefficient
        expected = {
            "b59e1e2a58928f570ee759052c9e567a68e511f96765196d8afeb89c7b756d23.json":
                "b20aa9f15143905aa16e832c5281daf80da36c835c5845fd19e3d9c7def31515",
            "e007103ccf9f24978a5e0d9013899e66483b8f064f764166693f569dc88f74cc.json":
                "1edc6ef4a5dd3ed556706c06c9ddc876b997e2e1f1f0341f905672e849085146",
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

    def test_psi_memo_lives_only_while_a_family_is_built(self, monkeypatch):
        # the keys of one family share the memo of sub-key images; it is
        # dropped when the family is done, also when building it fails
        sizes = []

        def spy(real):
            def bar(v, word=None):
                out = real(v, word)
                sizes.append(sum(len(images) for images, _ in qc._w0_memo.values()))
                return out
            return bar

        monkeypatch.setattr(qc, "psi", spy(qc.psi))
        monkeypatch.setattr(qc, "psi_star", spy(qc.psi_star))
        qc._family_memo.clear()
        try:
            for fn in (dual_canonical, canonical):
                sizes.clear()
                fn(3, (1, 2, 3), (3, 2, 1))
                assert qc._w0_memo is None
                assert len(sizes) == 93 and sizes[-1] > sizes[0] > 0
            monkeypatch.setattr(qc, "psi", lambda v, word=None: v.scaled(LaurentQ({1: 1})))
            with pytest.raises(ArithmeticError, match="non-triangular"):
                canonical(3, (1, 2), (2, 1))
            assert qc._w0_memo is None
        finally:
            qc._family_memo.clear()

    def test_bar_returning_its_input_leaves_constants_intact(self, monkeypatch):
        # the Lusztig loop writes into the coefficient dicts bar returns
        monkeypatch.setattr(qc, "psi", lambda v, word=None: v)
        qc._family_memo.clear()
        try:
            b = canonical(3, (1, 2), (2, 1))
        finally:
            qc._family_memo.clear()
        assert b == unit(3, "++--", (1, 2, 2, 1))
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
