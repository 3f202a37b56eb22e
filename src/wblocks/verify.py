"""Cross-oracle verification suite.

Each criterion is a function returning a detail string (raising AssertionError
on failure); run_suite drives them at a chosen scale profile and reports
machine-readable pass/fail results.  Fault injection (for harness self-tests)
wraps one formula with a perturbation so that exactly the criteria depending
on it go red.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import comb

from . import blockan, cache, center, characters, combinat, qcanon
from .combinat import BlockKey, Composition, Pyramid, Window
from .laurent import LaurentQ, qfact
from .multipoly import MultiPoly

# ---------------------------------------------------------------------------
# block enumeration helpers


def _gamma_splits(gamma: Composition, target_mu: int):
    """All (mu, nu) with mu + nu = gamma, mu_i nu_i = 0, |mu| = target_mu."""
    sup = gamma.support()
    out = []
    for picks in itertools.product([0, 1], repeat=len(sup)):
        mu_items = {i: gamma[i] for i, pick in zip(sup, picks) if pick}
        if sum(mu_items.values()) != target_mu:
            continue
        nu_items = {i: gamma[i] for i, pick in zip(sup, picks) if not pick}
        out.append((Composition.from_items(mu_items), Composition.from_items(nu_items)))
    return out


def iter_blocks(m_max: int, t_max: int, gamma_width: int):
    """Blocks (one per distinct gamma) with m <= n <= m_max, t <= t_max and
    gamma starting at 0, supported in a window of width gamma_width."""
    for m in range(m_max + 1):
        for n in range(m, m_max + 1):
            for t in range(0, min(m, t_max) + 1):
                for gamma in blockan.compositions_in_window(m + n - 2 * t, 0, gamma_width - 1):
                    if gamma.offset:
                        continue  # avoid translated duplicates
                    splits = _gamma_splits(gamma, m - t)
                    if splits:
                        mu, nu = splits[0]
                        yield BlockKey(mu, nu, t, m, n)


# ---------------------------------------------------------------------------
# criteria


def _windows(scale: dict):
    """(xi, labels) for each block of the scale and each width-bounded
    lambda window left of, straddling or right of the gamma support (which
    iter_blocks pins at offset 0)."""
    width = scale["lam_width"]
    windows = [(lo, lo + width - 1) for lo in range(-width, width, 2)] + [(0, width - 1)]
    for xi in iter_blocks(scale["mn"], scale["t"], scale["gamma_width"]):
        for lo, hi in windows:
            yield xi, blockan.compositions_in_window(xi.t, lo, hi)


def _window_cells(scale: dict, graded: bool):
    """(xi, lam, kap, cell, mirror) for each unordered pair of labels of
    each window, with the window's (graded) cartan_matrix read at
    (lam, kap) and at (kap, lam)."""
    for xi, lams in _windows(scale):
        matrix = blockan.cartan_matrix(xi, lams, graded=graded)
        for a, lam in enumerate(lams):
            for b in range(a, len(lams)):
                yield xi, lam, lams[b], matrix[a][b], matrix[b][a]


def crit_cartan_vs_oracle(scale: dict) -> str:
    pairs = 0
    for xi, lam, kap, cell, mirror in _window_cells(scale, graded=False):
        oracle = blockan.cartan_oracle(xi, lam, kap)
        assert cell == oracle, (xi, lam, kap, cell, oracle)
        assert mirror == blockan.cartan_entry(xi, kap, lam) == cell, (xi, lam, kap, "transpose")
        pairs += 1
    ends = stable = 0
    for xi in iter_blocks(scale["mn"], scale["t"], scale["gamma_width"]):
        if xi.t < 1:
            continue
        for i in range(-2, scale["gamma_width"] + 1):
            end = blockan.end_dim(xi, i)
            diag = Composition.eps(i, xi.t)
            assert end == blockan.cartan_entry(xi, diag, diag), (xi, i, "end_dim")
            ends += 1
            central = comb(2 * xi.t, xi.t)
            d = blockan.d_invariant(xi, i)
            assert d == Fraction(central * end, blockan.stable_end_dim(xi)), (xi, i, "d_invariant")
            if xi.gamma[i] == xi.gamma[i + 1] == 0:
                assert blockan.stable_end_dim(xi) == end, (xi, i, "stable_end_dim")
                assert d == central, (xi, i, "d_invariant away from gamma")
                stable += 1
    return (f"{pairs} (lambda, kappa) pairs, Cartan matrix == BGG oracle == closed formula "
            f"== transpose; {ends} End dims == Cartan diagonal and d invariants == "
            f"C(2t,t) End/stable, {stable} away from gamma == stable, d == C(2t,t)")


def crit_graded_vs_ungraded(scale: dict) -> str:
    pairs = 0
    for xi, lam, kap, cell, mirror in _window_cells(scale, graded=True):
        assert cell.eval1() == blockan.cartan_entry(xi, lam, kap), (xi, lam, kap)
        assert mirror == blockan.graded_cartan(xi, kap, lam) == cell, (xi, lam, kap)
        pairs += 1
    return f"{pairs} pairs, graded Cartan matrix == graded entry == transpose, at q=1 == ungraded entry"


def crit_appendixb_pairing(scale: dict) -> str:
    checked = 0
    stable_ns = set()
    sup_lo, sup_hi = 2, 3
    for m in range(scale["mn"] + 1):
        for n in range(m, scale["mn"] + 1):
            for t in range(0, min(m, scale["t"]) + 1):
                for gamma in blockan.compositions_in_window(m + n - 2 * t, sup_lo, sup_hi):
                    splits = _gamma_splits(gamma, m - t)
                    if not splits:
                        continue
                    mu, nu = splits[0]
                    xi = BlockKey(mu, nu, t, m, n)
                    lams = blockan.compositions_in_window(t, sup_lo, sup_hi)
                    for lam in lams:
                        for kap in lams:
                            formula, n_stable = qcanon.stable_pairing(kap, lam, mu, nu)
                            stable_ns.add(n_stable)
                            assert n_stable <= 4, (xi, lam, kap, n_stable)
                            g = blockan.graded_cartan(xi, lam, kap)
                            assert formula == g, (xi, lam, kap, formula, g)
                            A_k = combinat.tableau_of(xi, kap)
                            A_l = combinat.tableau_of(xi, lam)
                            b_k = qcanon.canonical(n_stable, A_k.top, A_k.bottom)
                            b_l = qcanon.canonical(n_stable, A_l.top, A_l.bottom)
                            paired = qcanon.pairing(b_k, b_l)
                            assert paired == formula, (xi, lam, kap, paired, formula)
                            checked += 1
    return f"{checked} pairs; basis pairing == closed formula == graded Cartan; stable N values {sorted(stable_ns)}"


def crit_character_identities(scale: dict) -> str:
    blocks = 0
    for xi in iter_blocks(scale["mn"], scale["t"], scale["gamma_width"]):
        lams = blockan.compositions_in_window(xi.t, 0, scale["lam_width"] - 1)
        for lam in lams:
            chM = characters.ch_verma_w(xi, lam)
            chL = characters.ch_simple_w(xi, lam)
            assert chM.total() == 2**xi.m
            assert chL.total() == 2 ** (xi.m - xi.t)
            dec = characters.decompose_char(chM, xi)
            assert sum(dec.values()) == 2**xi.t
            for kap, mult in dec.items():
                assert mult == blockan.verma_mult(xi, lam, kap), (xi, lam, kap)
            # Grothendieck route: sum of simples over the down/up family of
            # a defect-aligned representative
            B = combinat.aligned_tableau(xi, lam)
            assert combinat.defect(B) == combinat.atyp(B) == xi.t
            acc = characters.CompChar()
            for C in combinat.down_up(B):
                acc = acc + characters.ch_simple_w(xi, combinat.lambda_of(C))
            assert acc == chM, (xi, lam)
        blocks += 1
    return f"{blocks} blocks: decomposition, dims 2^m / 2^(m-t), length 2^t, down-up route"


def crit_h_laws(scale: dict) -> str:
    assert blockan.h_count(Composition.eps(0)) == 3
    for t in range(1, scale["t_eps"] + 1):
        assert blockan.h_count(Composition.eps(0, t)) == comb(t + 2, 2)
    strict = 0
    for t in range(1, scale["t_strict"] + 1):
        for lam in blockan.compositions_in_window(t, 0, scale["width"] - 1):
            if len(lam.parts) == 1:
                continue
            assert blockan.h_count(lam) > comb(t + 2, 2), lam
            strict += 1
    # separation across a zero gap
    sep = 0
    for t in range(1, scale["t_strict"] + 1):
        for lam in blockan.compositions_in_window(t, 0, 4):
            if lam[2]:
                continue
            left, right = blockan.h_separation(lam, 2)
            assert blockan.h_count(lam) == blockan.h_count(left) * blockan.h_count(right)
            sep += 1
    # h equals the count of nonzero Cartan row entries
    rows = 0
    for xi in _row_blocks(scale["row_mn"]):
        lams = blockan.compositions_in_window(xi.t, 0, 1)
        for lam in lams:
            lo, hi = lam.support_bounds()
            kaps = blockan.compositions_in_window(xi.t, lo - 1, hi + 1)
            nonzero = sum(1 for k in kaps if blockan.cartan_entry(xi, lam, k) != 0)
            assert nonzero == blockan.h_count(lam), (xi, lam)
            rows += 1
    return f"h(1)=3; t*eps minimality ({strict} strict cases); separation ({sep}); Cartan-row supports ({rows})"


def crit_top_degree(scale: dict) -> str:
    diag = 0
    for xi in iter_blocks(scale["mn"], scale["t"], scale["gamma_width"]):
        d_expected = xi.m**2 + xi.n**2 - sum(g * g for g in xi.gamma.parts)
        lams = blockan.compositions_in_window(xi.t, 0, scale["lam_width"] - 1)
        for lam in lams:
            g = blockan.graded_cartan(xi, lam, lam)
            assert g.max_exp() == d_expected, (xi, lam, g)
            diag += 1
    # generic diagonal matches the product formula verbatim
    generic = 0
    for xi in _generic_blocks():
        for lam in _generic_lams(xi):
            gamma = xi.gamma
            lo = min(lam.support_bounds()[0], gamma.support_bounds()[0]) - 1
            hi = max(lam.support_bounds()[1], gamma.support_bounds()[1]) + 1
            if not all(
                lam[i] == 0 or lam[i] + lam[i + 1] + gamma[i] + gamma[i + 1] == 1
                for i in range(lo, hi + 1)
            ):
                continue
            expect = qfact(xi.m) * qfact(xi.n)
            for i in range(lo, hi + 1):
                expect = expect.divexact(qfact(gamma[i]))
            shift = comb(xi.m, 2) + comb(xi.n, 2) - sum(comb(g, 2) for g in gamma.parts)
            expect = expect.shift(shift)
            for _ in range(xi.t):
                expect = expect * LaurentQ({0: 1, 2: 1})
            assert blockan.graded_cartan(xi, lam, lam) == expect, (xi, lam)
            generic += 1
    assert generic > 0
    return f"{diag} diagonal top degrees m^2+n^2-sum gamma_i^2; {generic} generic diagonals match the product form"


def crit_linkage_fibers(scale: dict) -> str:
    total_classes = 0
    w = Window(1, scale["entry_hi"])
    for m, n in scale["shapes"]:
        p = Pyramid(m, n, 0)
        classes = combinat.closure_classes(p, w)
        for cls in classes:
            keys = {combinat.block_key(A) for A in cls}
            weights = {combinat.weight_of(A.top, A.bottom) for A in cls}
            assert len(keys) == 1 and len(weights) == 1, (m, n, cls)
        by_key: dict = {}
        for cls in classes:
            k = combinat.block_key(next(iter(cls)))
            assert k not in by_key, ("two closure classes share a block key", m, n, k)
            by_key[k] = cls
        total_classes += len(classes)
    return f"{total_classes} closure classes == block-key fibers == weight fibers"


def crit_center(scale: dict) -> str:
    checked = 0
    for m in range(scale["mn"] + 1):
        for n in range(max(m, 1), scale["mn"] + 1):
            for r in range(1, scale["r_max"] + 1):
                es = center.e_super(r, m, n)
                assert center.in_I(es, m, n), (m, n, r)
                assert center.hc_series_coeff(r, m, n) == es, (m, n, r)
                checked += 1
    rng = random.Random(20240817)
    agree = 0
    for _ in range(scale["random_polys"]):
        m, n = rng.choice(scale["random_shapes"])
        s_minus = rng.randint(0, n - m)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(m + n))
            if sum(exps) > 5:
                continue
            terms[exps] = rng.randint(-3, 3)
        f = center.symmetrize(MultiPoly(m, n, terms))
        in_i = center.in_I(f, m, n)
        in_j = center.in_J(f, m, n, s_minus)
        assert in_i == in_j, (m, n, s_minus, f)
        agree += 1
    return f"{checked} supersymmetric generators in I and matching the series route; {agree} randomized symmetric polynomials with in_I == in_J"


def crit_recovery(scale: dict) -> str:
    count = 0
    for xi in iter_blocks(scale["mn"], scale["t"], 2):
        if xi.t < 1:
            continue
        data = blockan.FormulaBlockData(xi, -3, 4)
        t, gamma = blockan.recover_invariants(data)
        assert t == xi.t and gamma == xi.gamma.normalized(), (xi, t, gamma)
        data_rev = blockan.FormulaBlockData(xi, -3, 4, reverse=True)
        assert blockan.recover_invariants(data_rev) == (t, gamma)
        count += 1
    # invariant signature is constant on derived-move orbits
    orbits = 0
    for xi in iter_blocks(scale["mn"], scale["t"], 2):
        sig = combinat.invariant_signature(xi)
        cur = xi
        for i in range(-2, 3):
            cur = combinat.derived_move(cur, i)
            assert combinat.invariant_signature(cur) == sig, (xi, i)
        orbits += 1
    return f"{count} generate-then-recover round trips (both orientations); {orbits} derived-move orbits with constant signature"


def crit_canonical_units(scale: dict) -> str:
    v11 = qcanon.dual_canonical(2, (1,), (1,))
    assert v11 == qcanon.TensorVec.unit(2, "+-", (1, 1))
    v22 = qcanon.dual_canonical(2, (2,), (2,))
    expected = qcanon.TensorVec(2, "+-", {(2, 2): LaurentQ(1), (1, 1): LaurentQ({1: -1})})
    assert v22 == expected

    N = scale["N"]
    proj = fixed = 0
    for m, n in scale["shapes"]:
        for key in itertools.product(range(1, N + 1), repeat=m + n):
            top, bottom = key[:m], key[m:]
            bstar = qcanon.dual_canonical(N, top, bottom)
            p = qcanon.project_to_S(bstar)
            if combinat.is_anti_dominant(top, bottom):
                # b* of a root key is a closed form; by Lusztig's uniqueness
                # being psi*-fixed and unitriangular determines it; S's own
                # bar, built without tensor space, fixes its projection
                assert qcanon.psi_star(bstar) == bstar, (top, bottom, "psi*")
                assert bstar.terms.get(key) == {0: 1} and all(
                    min(c) >= 1 for k, c in bstar.terms.items() if k != key), (top, bottom, "unitriangular")
                d = qcanon.d_basis(N, top, bottom)
                assert p == d, (top, bottom)
                assert qcanon.psi_star_S(d) == d, (top, bottom, "psi*_S")
                fixed += 1
            else:
                assert p.is_zero(), (top, bottom)
            proj += 1
    dual = roots = 0
    for m, n in scale["shapes"]:
        signs = "+" * m + "-" * n
        seen = set()
        for key in itertools.product(range(1, N + 1), repeat=m + n):
            wt = combinat.weight_of(key[:m], key[m:])
            if wt in seen:
                continue
            seen.add(wt)
            keys = list(qcanon._weight_space_keys(N, signs, wt))
            for ka in keys:
                b = qcanon.canonical(N, ka[:m], ka[m:])
                if qcanon._descent(signs, ka, False) is None:
                    # a root key's b starts from _psi_root's walk; psi along
                    # the block word is the independent route
                    assert qcanon.psi(b) == b, (ka, "psi")
                    roots += 1
                for kb in keys:
                    bs = qcanon.dual_canonical(N, kb[:m], kb[m:])
                    val = qcanon.pairing(b, bs)
                    want = LaurentQ(1 if ka == kb else 0)
                    assert val == want, (ka, kb, val)
                    dual += 1
    return (f"unit vectors checked; {proj} projections pi(b*) == d or 0; {fixed} anti-dominant b* "
            f"psi*-fixed and unitriangular, pi(b*) psi*_S-fixed; {roots} root b psi-fixed; "
            f"{dual} duality pairings (b, b*) == delta")


def crit_m1n1_sanity(scale: dict) -> str:
    z = Composition()
    xi_typ = BlockKey(Composition.eps(0), Composition.eps(2), 0, 1, 1)
    assert blockan.cartan_entry(xi_typ, z, z) == 1
    assert blockan.graded_cartan(xi_typ, z, z) == LaurentQ(1)
    xi_at = BlockKey(z, z, 1, 1, 1)
    for i in range(-2, 3):
        li = Composition.eps(i)
        assert blockan.graded_cartan(xi_at, li, li) == LaurentQ({0: 1, 2: 1})
        for j in range(-2, 3):
            entry = blockan.cartan_entry(xi_at, li, Composition.eps(j))
            assert entry == (2 if i == j else (1 if abs(i - j) == 1 else 0))
    return "typical Cartan (1); atypical diagonal 1+q^2; neighbor support |i-j| <= 1"


# ---------------------------------------------------------------------------
# profiles and the runner


def _generic_blocks():
    return [
        BlockKey(Composition(), Composition(), 2, 2, 2),
        BlockKey(Composition.eps(0), Composition([2], 1), 1, 2, 3),
        BlockKey(Composition(), Composition.eps(5), 1, 1, 2),
    ]


def _generic_lams(xi: BlockKey):
    lams = []
    glo, ghi = xi.gamma.support_bounds()
    base = ghi + 2 if ghi >= glo else 0
    if xi.t == 1:
        lams.append(Composition.eps(base))
    elif xi.t == 2:
        lams.append(Composition.from_items({base: 1, base + 2: 1}))
    return lams


def _row_blocks(mn: int):
    out = []
    for xi in iter_blocks(mn, 3, 2):
        if xi.t >= 1:
            out.append(xi)
    return out


FULL_SCALES = {
    "cartan-vs-oracle": {"mn": 3, "t": 3, "gamma_width": 3, "lam_width": 4},
    "graded-vs-ungraded": {"mn": 5, "t": 5, "gamma_width": 3, "lam_width": 4},
    "appendixb-pairing": {"mn": 3, "t": 3},
    "character-identities": {"mn": 4, "t": 4, "gamma_width": 2, "lam_width": 3},
    "h-laws": {"t_eps": 6, "t_strict": 4, "width": 3, "row_mn": 3},
    "top-degree": {"mn": 5, "t": 5, "gamma_width": 3, "lam_width": 3},
    "linkage-weight-fibers": {"entry_hi": 4, "shapes": [(1, 1), (1, 2), (2, 2)]},
    "center": {"mn": 5, "r_max": 8, "random_polys": 200,
               "random_shapes": [(1, 1), (1, 2), (2, 2), (2, 3)]},
    "recovery-round-trip": {"mn": 4, "t": 4},
    "canonical-basis-units": {"N": 3, "shapes": [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]},
    "m1n1-sanity": {},
}

QUICK_SCALES = {
    "cartan-vs-oracle": {"mn": 2, "t": 2, "gamma_width": 2, "lam_width": 3},
    "graded-vs-ungraded": {"mn": 2, "t": 2, "gamma_width": 2, "lam_width": 3},
    "appendixb-pairing": {"mn": 1, "t": 1},
    "character-identities": {"mn": 2, "t": 2, "gamma_width": 2, "lam_width": 2},
    "h-laws": {"t_eps": 4, "t_strict": 3, "width": 3, "row_mn": 2},
    "top-degree": {"mn": 2, "t": 2, "gamma_width": 2, "lam_width": 2},
    "linkage-weight-fibers": {"entry_hi": 3, "shapes": [(1, 1), (1, 2)]},
    "center": {"mn": 2, "r_max": 4, "random_polys": 40,
               "random_shapes": [(1, 1), (1, 2)]},
    "recovery-round-trip": {"mn": 2, "t": 2},
    "canonical-basis-units": {"N": 2, "shapes": [(1, 1), (1, 2)]},
    "m1n1-sanity": {},
}

CRITERIA = {
    "cartan-vs-oracle": crit_cartan_vs_oracle,
    "graded-vs-ungraded": crit_graded_vs_ungraded,
    "appendixb-pairing": crit_appendixb_pairing,
    "character-identities": crit_character_identities,
    "h-laws": crit_h_laws,
    "top-degree": crit_top_degree,
    "linkage-weight-fibers": crit_linkage_fibers,
    "center": crit_center,
    "recovery-round-trip": crit_recovery,
    "canonical-basis-units": crit_canonical_units,
    "m1n1-sanity": crit_m1n1_sanity,
}

FAULTS = {
    "cartan-oracle": (blockan, "cartan_oracle"),
    "pairing-formula": (qcanon, "pairing_formula"),
    "h-count": (blockan, "h_count"),
    "e-super": (center, "e_super"),
    "graded-cartan": (blockan, "graded_cartan"),
    "simple-char": (characters, "ch_simple_w"),
    "dual-root": (qcanon, "_dual_root"),
    "psi-root": (qcanon, "_psi_root"),
}


def _perturb(fn):
    """fn with a bool result negated (a bool is an int), a number, LaurentQ
    or MultiPoly plus 1, a TensorVec (of tensor space or of S) plus the unit
    term at (1, ..., 1), and a CompChar plus 1 at the zero composition; a
    matrix (a non-empty list of lists) has that done to cell [0][0], and a
    pair to its second component."""
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, list) and out and isinstance(out[0], list) and out[0]:
            return [[_perturb(lambda: out[0][0])(), *out[0][1:]], *out[1:]]
        if isinstance(out, tuple) and len(out) == 2:
            return out[0], _perturb(lambda: out[1])()
        if isinstance(out, bool):
            return not out
        if isinstance(out, (int, Fraction, LaurentQ, MultiPoly)):
            return out + 1
        if isinstance(out, qcanon.TensorVec):
            return out + qcanon.TensorVec.unit(out.N, out.signs, (1,) * len(out.signs))
        if isinstance(out, characters.CompChar):
            return out + characters.CompChar({Composition(): 1})
        return out

    wrapped.__wrapped__ = fn
    return wrapped


def run_suite(profile: str = "quick", fault: str | None = None):
    """Run the criteria of the given profile; returns a list of result dicts
    {name, ok, seconds, detail}.  With fault set, the named formula is
    perturbed for the duration of the run (harness self-test), and the
    basis families are built afresh: none is read from or written to the
    file cache, and the in-memory memo is emptied before and after."""
    scales = {"quick": QUICK_SCALES, "full": FULL_SCALES}[profile]
    injected, cache_dir = None, cache.current_dir()
    if fault is not None:
        module, attr = FAULTS[fault]
        injected = (module, attr, getattr(module, attr))
        setattr(module, attr, _perturb(getattr(module, attr)))
        cache.configure(None)
        qcanon._family_memo.clear()
    results = []
    try:
        for name, fn in CRITERIA.items():
            start = time.monotonic()
            try:
                detail = fn(scales[name])
                ok = True
            except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
                detail = f"{type(exc).__name__}: {exc}"
                ok = False
            results.append(
                {
                    "name": name,
                    "ok": ok,
                    "seconds": round(time.monotonic() - start, 3),
                    "detail": detail,
                }
            )
    finally:
        if injected is not None:
            setattr(*injected)
            cache.configure(cache_dir)
            qcanon._family_memo.clear()
    return results
