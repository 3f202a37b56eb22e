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


def test_05_verma_character_order_independence():
    _run("verma-order-independence")


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


# each fault with the criteria it turns red at the quick profile
FAULT_VICTIMS = {
    "cartan-oracle": {"cartan-vs-oracle"},
    "pairing-formula": {"appendixb-pairing"},
    "h-count": {"h-laws", "recovery-round-trip"},
    "e-super": {"center"},
    "graded-cartan": {"graded-vs-ungraded", "appendixb-pairing", "top-degree", "m1n1-sanity"},
}


def test_every_fault_has_victims():
    from wblocks.verify import FAULTS

    assert set(FAULT_VICTIMS) == set(FAULTS)


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


def test_perturbed_ungraded_closed_form_turns_its_dependents_red(monkeypatch):
    from wblocks import blockan
    from wblocks.verify import _perturb, run_suite

    monkeypatch.setattr(blockan, "cartan_entry", _perturb(blockan.cartan_entry))
    red = {r["name"] for r in run_suite("quick") if not r["ok"]}
    assert red == {"cartan-vs-oracle", "graded-vs-ungraded", "h-laws", "m1n1-sanity",
                   "recovery-round-trip"}


# what `end-dim`, `cartan`, `graded-cartan`, `cb` and `center` print, each
# with its fault and the criteria that fault turns red at the quick profile
# (and at the full one).  "+1", "+unit" and "not" are what verify._perturb does
# to an int or LaurentQ or MultiPoly, a TensorVec and a bool result.
PRINTED_FAULTS = {
    "blockan.d_invariant": ("+1", {"cartan-vs-oracle"}),
    "blockan.end_dim": ("+1", {"cartan-vs-oracle"}),
    "blockan._end_dim_value": ("+1", {"cartan-vs-oracle"}),
    "blockan.stable_end_dim": ("+1", {"cartan-vs-oracle"}),
    "blockan.cartan_matrix": ("[[0]]", {"cartan-vs-oracle", "graded-vs-ungraded"}),
    "qcanon.dual_canonical": ("+unit", {"canonical-basis-units"}),
    "qcanon.canonical": ("+unit", {"appendixb-pairing", "canonical-basis-units"}),
    "qcanon.pairing": ("+1", {"appendixb-pairing", "canonical-basis-units"}),
    "center.in_I": ("not", {"center"}),
    "center.in_J": ("not", {"center"}),
    "center.hc_series_coeff": ("+1", {"center"}),
}


@pytest.mark.parametrize("name", sorted(PRINTED_FAULTS), ids=lambda name: name.split(".")[1])
def test_each_printed_number_has_a_criterion_a_fault_turns_red(monkeypatch, name):
    import importlib

    from wblocks.verify import _perturb, run_suite

    fault, victims = PRINTED_FAULTS[name]
    module_name, attr = name.split(".")
    module = importlib.import_module(f"wblocks.{module_name}")
    broken = (lambda *a, **k: [[0]]) if fault == "[[0]]" else _perturb(getattr(module, attr))
    monkeypatch.setattr(module, attr, broken)
    red = {r["name"] for r in run_suite("quick") if not r["ok"]}
    assert red == victims


def test_perturbation_follows_the_result_type():
    from wblocks.laurent import LaurentQ
    from wblocks.qcanon import TensorVec
    from wblocks.verify import _perturb

    assert _perturb(lambda: True)() is False and _perturb(lambda: False)() is True
    assert _perturb(lambda: 2)() == 3 and _perturb(lambda: LaurentQ({1: 1}))() == LaurentQ({0: 1, 1: 1})
    v = TensorVec(2, "+-", {(2, 2): 1, (1, 1): LaurentQ({1: -1})})
    assert _perturb(lambda: v)() == TensorVec(2, "+-", {(2, 2): 1, (1, 1): {0: 1, 1: -1}})
    assert _perturb(lambda: "text")() == "text"
