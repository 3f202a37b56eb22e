"""Acceptance gate: every verification criterion at its full stated scale.

All arithmetic is exact, so every comparison below is exact equality.  Each
test prints one PASS/FAIL line (run pytest with -s to see them inline).
"""

import pytest

from wblocks.verify import CRITERIA, FULL_SCALES


def _run(name):
    try:
        detail = CRITERIA[name](FULL_SCALES[name])
    except Exception as exc:
        print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        raise
    print(f"PASS {name}: {detail}")
    return detail


def test_01_cartan_closed_formula_vs_bgg_oracle():
    _run("cartan-vs-oracle")


def test_02_graded_ungraded_consistency():
    _run("graded-vs-ungraded")


def test_03_quantum_engine_three_way_pairing():
    detail = _run("appendixb-pairing")
    assert "stable N" in detail


def test_04_character_identities():
    _run("character-identities")


def test_06_h_lattice_count_laws():
    _run("h-laws")


def test_07_top_degree_and_generic_diagonal():
    _run("top-degree")


def test_08_linkage_equals_weight_fibers():
    _run("linkage-weight-fibers")


def test_09_center_generators_and_membership():
    _run("center")


def test_10_invariant_recovery_round_trip():
    _run("recovery-round-trip")


def test_11_canonical_basis_unit_checks():
    _run("canonical-basis-units")


def test_12_m1n1_sanity():
    _run("m1n1-sanity")


# every (name, ok, detail) of run_suite("quick"), as literal strings: a change
# that is meant to keep verify's results must keep each one byte for byte
QUICK_RESULTS = [
    ("cartan-vs-oracle", True,
     "188 (lambda, kappa) pairs, Cartan matrix == BGG oracle == closed formula == "
     "transpose; 20 End dims == Cartan diagonal and d invariants == C(2t,t) End/stable, "
     "15 away from gamma == stable, d == C(2t,t)"),
    ("graded-vs-ungraded", True,
     "188 pairs, graded Cartan matrix == graded entry == transpose, at q=1 == ungraded entry"),
    ("appendixb-pairing", True,
     "8 pairs; basis pairing == closed formula == graded Cartan; stable N values [3, 4]"),
    ("character-identities", True,
     "12 blocks: decomposition, dims 2^m / 2^(m-t), length 2^t, down-up route"),
    ("h-laws", True,
     "h(1)=3; t*eps minimality (10 strict cases); separation (34); Cartan-row supports (9)"),
    ("top-degree", True,
     "17 diagonal top degrees m^2+n^2-sum gamma_i^2; 3 generic diagonals match the "
     "product form"),
    ("linkage-weight-fibers", True,
     "19 closure classes == block-key fibers == weight fibers"),
    ("center", True,
     "20 supersymmetric generators in I and matching the series route; 40 randomized "
     "symmetric polynomials with in_I == in_J"),
    ("recovery-round-trip", True,
     "4 generate-then-recover round trips (both orientations); 12 derived-move orbits "
     "with constant signature"),
    ("canonical-basis-units", True,
     "unit vectors checked; 12 projections pi(b*) == d or 0; 10 anti-dominant b* "
     "psi*-fixed and unitriangular, pi(b*) psi*_S-fixed; 10 root b psi-fixed; 26 duality "
     "pairings (b, b*) == delta"),
    ("m1n1-sanity", True,
     "typical Cartan (1); atypical diagonal 1+q^2; neighbor support |i-j| <= 1"),
]


def test_quick_suite_output_is_pinned():
    from wblocks.verify import run_suite

    assert [(r["name"], r["ok"], r["detail"]) for r in run_suite("quick")] == QUICK_RESULTS


# each fault with the criteria it turns red at the quick profile
FAULT_VICTIMS = {
    "cartan-oracle": {"cartan-vs-oracle"},
    "pairing-formula": {"appendixb-pairing"},
    "h-count": {"h-laws", "recovery-round-trip"},
    "e-super": {"center"},
    "graded-cartan": {"graded-vs-ungraded", "appendixb-pairing", "top-degree", "m1n1-sanity"},
    "simple-char": {"character-identities"},
    "dual-root": {"canonical-basis-units"},
    "psi-root": {"appendixb-pairing", "canonical-basis-units"},
}


def test_every_fault_has_victims():
    from wblocks.verify import FAULTS

    assert set(FAULT_VICTIMS) == set(FAULTS)


def test_criteria_no_fault_turns_red_are_pinned():
    # a gap that may only shrink: a new criterion needs a fault that turns it red
    from wblocks.verify import CRITERIA

    assert set(CRITERIA) - set().union(*FAULT_VICTIMS.values()) == {"linkage-weight-fibers"}


@pytest.mark.parametrize(
    "fault,victims",
    sorted(FAULT_VICTIMS.items()),
    ids=lambda v: v if isinstance(v, str) else "-".join(sorted(v)),
)
def test_fault_injection_hits_only_the_dependent_criterion(fault, victims):
    from wblocks.verify import run_suite

    results = run_suite("quick", fault=fault)
    red = {r["name"] for r in results if not r["ok"]}
    assert red == victims


def test_simple_char_fault_is_caught_at_full():
    # character-identities checks m, n, t <= 4 at FULL; the fault reddens it there too
    from wblocks.verify import run_suite

    red = {r["name"] for r in run_suite("full", fault="simple-char") if not r["ok"]}
    assert red == FAULT_VICTIMS["simple-char"]


def test_dual_root_fault_is_caught_at_full():
    # only canonical-basis-units reads dual canonical vectors, at FULL too
    from wblocks.verify import run_suite

    red = {r["name"] for r in run_suite("full", fault="dual-root") if not r["ok"]}
    assert red == FAULT_VICTIMS["dual-root"]


def test_psi_root_fault_is_caught_at_full():
    # both criteria that read canonical vectors turn red at FULL too
    from wblocks.verify import run_suite

    red = {r["name"] for r in run_suite("full", fault="psi-root") if not r["ok"]}
    assert red == FAULT_VICTIMS["psi-root"]


def test_faulted_run_builds_families_afresh_and_keeps_none(monkeypatch, tmp_path):
    # a family memoized or cached before the run would hide the fault, and
    # one built under it must not outlive the run
    from wblocks import cache, qcanon
    from wblocks.verify import run_suite

    monkeypatch.setattr(cache, "_cache_dir", str(tmp_path))
    qcanon.dual_canonical(2, (2,), (2,))
    files = sorted(tmp_path.iterdir())
    assert files and qcanon._family_memo
    red = {r["name"] for r in run_suite("quick", fault="dual-root") if not r["ok"]}
    assert red == FAULT_VICTIMS["dual-root"]
    assert sorted(tmp_path.iterdir()) == files and not qcanon._family_memo
    assert cache.current_dir() == str(tmp_path)
    assert qcanon._dual_root.__name__ == "_dual_root"  # the real builder is back
    assert all(r["ok"] for r in run_suite("quick"))


def test_psi_star_check_catches_a_closed_form_with_unit_and_degrees_intact(monkeypatch):
    # negating the coefficients of degree >= 2 keeps the unit at the key
    # and the rest in qZ[q], which _lusztig checks; b*(3; 3) of N = 3 is
    # the first vector it changes, and psi*-invariance is the check that fails
    from wblocks import cache, qcanon
    from wblocks.verify import CRITERIA

    real = qcanon._dual_root

    def negated(N, signs, key):
        terms = real(N, signs, key).terms
        return qcanon.TensorVec(N, signs, {k: {e: -x if e >= 2 else x for e, x in c.items()}
                                           for k, c in terms.items()})

    monkeypatch.setattr(cache, "_cache_dir", None)
    monkeypatch.setattr(qcanon, "_family_memo", {})
    monkeypatch.setattr(qcanon, "_dual_root", negated)
    with pytest.raises(AssertionError, match=r"\(\(3,\), \(3,\), 'psi\*'\)"):
        CRITERIA["canonical-basis-units"]({"N": 3, "shapes": [(1, 1)]})


def test_perturbed_ungraded_closed_form_turns_its_dependents_red(monkeypatch):
    from wblocks import blockan
    from wblocks.verify import _perturb, run_suite

    monkeypatch.setattr(blockan, "cartan_entry", _perturb(blockan.cartan_entry))
    red = {r["name"] for r in run_suite("quick") if not r["ok"]}
    assert red == {"cartan-vs-oracle", "graded-vs-ungraded", "h-laws", "m1n1-sanity",
                   "recovery-round-trip"}


# what `end-dim`, `cartan`, `graded-cartan`, `cb`, `center`, `char` and
# `verma-mult` print, and the S elements that `canonical-basis-units` compares
# with each projected b*, each with its fault and the criteria that fault turns
# red at the quick profile (and at the full one).  "+1", "+unit", "+chi^0" and
# "not" are what verify._perturb does to an int or LaurentQ or MultiPoly, a
# TensorVec (of tensor space or of S), a CompChar and a bool result, and
# "[0][0]+1" what it does to a matrix.
PRINTED_FAULTS = {
    "blockan.d_invariant": ("+1", {"cartan-vs-oracle"}),
    "blockan.end_dim": ("+1", {"cartan-vs-oracle"}),
    "blockan._end_dim_value": ("+1", {"cartan-vs-oracle"}),
    "blockan.stable_end_dim": ("+1", {"cartan-vs-oracle"}),
    "blockan.cartan_matrix": ("[0][0]+1", {"cartan-vs-oracle", "graded-vs-ungraded"}),
    "qcanon.dual_canonical": ("+unit", {"canonical-basis-units"}),
    "qcanon.canonical": ("+unit", {"appendixb-pairing", "canonical-basis-units"}),
    "qcanon.pairing": ("+1", {"appendixb-pairing", "canonical-basis-units"}),
    "qcanon.d_basis": ("+unit", {"canonical-basis-units"}),
    "qcanon.project_to_S": ("+unit", {"canonical-basis-units"}),
    "qcanon.word_to_svec": ("+unit", {"canonical-basis-units"}),
    "qcanon.psi_star_S": ("+unit", {"canonical-basis-units"}),
    "characters.ch_verma_w": ("+chi^0", {"character-identities"}),
    "characters.ch_simple_w": ("+chi^0", {"character-identities"}),
    "blockan.verma_mult": ("+1", {"cartan-vs-oracle", "character-identities"}),
    "blockan.graded_verma_mult": ("+1", {"cartan-vs-oracle", "character-identities"}),
    "center.in_I": ("not", {"center"}),
    "center.in_J": ("not", {"center"}),
    "center.hc_series_coeff": ("+1", {"center"}),
}


@pytest.mark.parametrize("name", sorted(PRINTED_FAULTS), ids=lambda name: name.split(".")[1])
def test_each_printed_number_has_a_criterion_a_fault_turns_red(monkeypatch, name):
    import importlib

    from wblocks.verify import _perturb, run_suite

    _, victims = PRINTED_FAULTS[name]
    module_name, attr = name.split(".")
    module = importlib.import_module(f"wblocks.{module_name}")
    monkeypatch.setattr(module, attr, _perturb(getattr(module, attr)))
    red = {r["name"] for r in run_suite("quick") if not r["ok"]}
    assert red == victims


def test_perturbed_r_step_turns_the_basis_criterion_red(monkeypatch):
    # the family builder takes every key with a same-sign descent one
    # R-step on ranks (qcanon._rank_step) from an earlier key's correction,
    # so families built with a step that adds q at the earlier key are wrong
    from wblocks import cache, qcanon
    from wblocks.verify import run_suite

    def perturbed(real):
        def step(table, triples, p, dual):
            x = real(table, triples, p, dual)
            x[(p, 1)] = x.get((p, 1), 0) + 1
            return x
        return step

    monkeypatch.setattr(cache, "_cache_dir", None)
    monkeypatch.setattr(qcanon, "_rank_step", perturbed(qcanon._rank_step))
    for profile, victims in (("quick", {"canonical-basis-units"}),
                             ("full", {"canonical-basis-units", "appendixb-pairing"})):
        monkeypatch.setattr(qcanon, "_family_memo", {})
        red = {r["name"] for r in run_suite(profile) if not r["ok"]}
        assert red == victims, profile


def test_perturbation_follows_the_result_type():
    from wblocks.characters import CompChar
    from wblocks.combinat import Composition
    from wblocks.laurent import LaurentQ
    from wblocks.qcanon import TensorVec
    from wblocks.verify import _perturb

    assert _perturb(lambda: True)() is False and _perturb(lambda: False)() is True
    assert _perturb(lambda: 2)() == 3 and _perturb(lambda: LaurentQ({1: 1}))() == LaurentQ({0: 1, 1: 1})
    v = TensorVec(2, "+-", {(2, 2): 1, (1, 1): LaurentQ({1: -1})})
    assert _perturb(lambda: v)() == TensorVec(2, "+-", {(2, 2): 1, (1, 1): {0: 1, 1: -1}})
    ch = CompChar({Composition.eps(1): 2})
    assert _perturb(lambda: ch)() == CompChar({Composition.eps(1): 2, Composition(): 1})
    assert _perturb(lambda: "text")() == "text"
    matrix = [[LaurentQ({2: 1}), 0], [0, 5]]
    assert _perturb(lambda: matrix)() == [[LaurentQ({0: 1, 2: 1}), 0], [0, 5]]
    assert matrix == [[LaurentQ({2: 1}), 0], [0, 5]]
    assert _perturb(lambda: [])() == [] and _perturb(lambda: [[]])() == [[]]
    assert _perturb(lambda: (-1, LaurentQ({1: 1})))() == (-1, LaurentQ({0: 1, 1: 1}))
    assert _perturb(lambda: (1, 2, 3))() == (1, 2, 3)
