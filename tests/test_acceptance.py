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


# what `end-dim`, `cartan` and `graded-cartan` print, each with a fault and
# the criteria it turns red at the quick profile
PRINTED_FAULTS = {
    "d_invariant": ("+1", {"cartan-vs-oracle"}),
    "end_dim": ("+1", {"cartan-vs-oracle"}),
    "_end_dim_value": ("+1", {"cartan-vs-oracle"}),
    "stable_end_dim": ("+1", {"cartan-vs-oracle"}),
    "cartan_matrix": ("[[0]]", {"cartan-vs-oracle", "graded-vs-ungraded"}),
}


@pytest.mark.parametrize("name", sorted(PRINTED_FAULTS))
def test_each_printed_number_has_a_criterion_a_fault_turns_red(monkeypatch, name):
    from wblocks import blockan
    from wblocks.verify import _perturb, run_suite

    fault, victims = PRINTED_FAULTS[name]
    broken = _perturb(getattr(blockan, name)) if fault == "+1" else lambda *a, **k: [[0]]
    monkeypatch.setattr(blockan, name, broken)
    red = {r["name"] for r in run_suite("quick") if not r["ok"]}
    assert red == victims
