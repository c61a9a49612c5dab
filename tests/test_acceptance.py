"""Acceptance gate: every criterion at its stated tolerance, one line each.

Each test runs the corresponding seeded suite item (seed 7), prints a
PASS/FAIL line, and enforces the stated runtime budget where one exists.
"""

import dataclasses
import hashlib
import importlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cbmlab import acceptance, serialize
from cbmlab.cli import main
from cbmlab.errors import rounding_bound
from cbmlab.primes import PrimeTable, prime_table
from cbmlab.starshape import RadialSet
from test_ordered import count_oracle_calls

SEED = 7
SEED7_REPORT_BYTES = 1627
SEED7_REPORT_SHA256 = "c9167f782e475c9cbf10ecc1323f17143e58cad75960af1268b58c90c6b0a09d"
CFG = {"l_max": 1000, "prime_bound": 10_000, "grid": 1024}
BENCH = Path(__file__).resolve().parents[1] / "bench"
ITEMS = dict(acceptance.ITEMS)
# the Farey gap and the rounding items 01 and 04 allow: five roundings within 4u, and ten within 2u
GAP_01 = 1 / CFG["l_max"] + 4 * rounding_bound(5)
GAP_04 = 1 / CFG["l_max"] + 2 * rounding_bound(10)


def run_item(name, budget=None):
    start = time.monotonic()
    details = ITEMS[name](SEED, CFG)
    elapsed = time.monotonic() - start
    verdict = "PASS" if details["passed"] else "FAIL"
    print(f"ACCEPT {name}: {verdict} ({elapsed:.2f}s) {details}")
    assert details["passed"], details
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    return details


def substitute(monkeypatch, owner, name, change):
    """Replace owner.name, as the items read it, by a wrong answer: each call's
    result becomes change(i, result), i counting the calls from 0. Returns the
    list of (args, changed result) the calls append to."""
    exact, calls = getattr(owner, name), []

    def wrong(*args, **kwargs):
        calls.append((args, change(len(calls), exact(*args, **kwargs))))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, wrong)
    return calls


def test_01_growth_rate_oracle_equivalence():
    details = run_item("01-growth-oracle", budget=5.0)
    assert details["max_oracle_error"] <= 1e-3
    assert details["max_formulation_gap"] <= 1e-3


def test_02_prime_pair_formula():
    details = run_item("02-prime-pairs", budget=10.0)
    # the largest prime gap below 9,973 is 36, and 2,477 the largest prime <= 9,973/4
    assert details["max_gap"] <= 36 / 2477 + 4 * rounding_bound(5)


def test_02_reads_the_shared_prime_table(monkeypatch):
    builds = []
    init = PrimeTable.__init__
    monkeypatch.setattr(PrimeTable, "__init__", lambda table, bound: builds.append(bound) or init(table, bound))
    prime_table.cache_clear()
    first, second = (ITEMS["02-prime-pairs"](SEED, CFG) for _ in range(2))
    assert builds == [CFG["prime_bound"]]
    assert first == second


def test_03_growth_rate_product_inequality():
    details = run_item("03-product-inequality")
    assert details["min_product"] >= 1.0 - rounding_bound(3)


def test_04_pseudo_metric_norm_axioms_and_stabilization():
    details = run_item("04-pseudo-metric-and-norms")
    assert details["max_self_distance"] == 0.0
    assert details["max_symmetry_gap"] == 0.0
    assert details["max_triangle_excess"] <= GAP_04
    assert details["norm_axioms_ok"]
    assert details["stabilization_cases"] == 50


def substitute_distance(monkeypatch, change):
    """Item 04, with each growth_distance report of a triple replaced by
    change(i, report, the triple's earlier reports), i counting the calls
    (a, b), (b, a), (b, c), (a, c) and (a, a) of the triple from 0."""
    triple = []

    def per_triple(call, report):
        if call % 5 == 0:
            triple.clear()
        triple.append(change(call % 5, report, triple))
        return triple[-1]

    substitute(monkeypatch, acceptance, "growth_distance", per_triple)
    return ITEMS["04-pseudo-metric-and-norms"](SEED, CFG)


def test_04_reads_false_on_a_self_distance_one_ulp_off_zero(monkeypatch):
    details = substitute_distance(
        monkeypatch, lambda i, report, _: dataclasses.replace(report, distance=math.ulp(0.0)) if i == 4 else report
    )
    assert details["max_self_distance"] == math.ulp(0.0)
    assert not details["passed"]


def test_04_reads_false_on_a_triangle_excess_past_the_farey_gap(monkeypatch):
    # d(a, c) set to d(a, b) + d(b, c) + 1.5/l_max
    def change(i, report, triple):
        if i != 3:
            return report
        return dataclasses.replace(report, distance=triple[0].distance + triple[2].distance + 1.5 / CFG["l_max"])

    details = substitute_distance(monkeypatch, change)
    assert details["max_triangle_excess"] > GAP_04
    assert not details["passed"]


def test_01_reads_false_on_a_pair_infimum_past_the_farey_gap(monkeypatch):
    substitute(
        monkeypatch, acceptance, "rho_plus",
        lambda i, estimate: dataclasses.replace(estimate, pair_infimum=estimate.pair_infimum + 1.01 / CFG["l_max"]),
    )
    details = ITEMS["01-growth-oracle"](SEED, CFG)
    assert details["max_oracle_error"] > GAP_01
    assert not details["passed"]


def test_05_delta_anchors():
    details = run_item("05-delta-anchors")
    assert details["ball_delta_exact"]
    assert abs(details["square_disk_delta"] - math.sqrt(2.0)) <= 2 * rounding_bound(8)
    assert details["dyadic_scaling_exact"]


def test_06_toric_exactness():
    details = run_item("06-toric-exactness")
    assert details["max_interval_width"] == 0.0
    assert details["max_scaling_error"] <= 2 * rounding_bound(3)
    assert details["upper_le_dc"]


def test_07_shape_invariant_functoriality():
    details = run_item("07-csh-functoriality")
    assert details["cover_rescale_exact"]
    assert details["constant_rescale_exact"]
    assert details["cover_composition_exact"]


def test_08_quasi_isometry_harness():
    details = run_item("08-qi-harness", budget=30.0)
    assert details["all_pairs_pass"]
    assert details["measured_c1"] <= 1.5
    assert details["composed_embedding_ok"]


def test_09_forms_pinch(monkeypatch):
    calls = substitute(monkeypatch, acceptance, "dcbm_forms", lambda i, report: report)
    details = run_item("09-forms-pinch")
    # the three rescalings come first: each end within its report's tol and the rounding of f1 + ln c
    bounds = [report.tol + math.ulp(float(np.abs(f2.f).max())) / 2 for (_, f2), report in calls[:3]]
    assert details["max_pinch_error"] <= min(bounds)
    assert details["lower_le_upper"]


def test_10_hamiltonian_bridge():
    details = run_item("10-bridge")
    assert details["unit_hamiltonian_ok"]
    assert details["inequality_holds"]
    assert details["max_equality_gap"] <= 1 / CFG["l_max"] + rounding_bound(17)


def test_11_squeezability_certificate():
    details = run_item("11-squeezable-certificate")
    assert details["all_non_squeezable_with_certificate"]


def nudged(radial):
    """The radial set with every radius one ulp larger."""
    return RadialSet(radial.grid, np.nextafter(radial.radii, np.inf))


# per item, one wrong library answer: (item, owner, name, change); the first six lie
# within the picked 0.05, 1 - 2/l_max, 3/l_max, 1e-3, 1e-9 and 1e-9 that items 02, 03,
# 10, 05, 06 and 09 allowed, so only a derived bound fails them
WRONG_ANSWERS = {
    "02-prime-pair-rate-off-by-0.02": (
        "02-prime-pairs", acceptance, "rho_plus_primes", lambda i, rate: rate + 0.02 if i == 0 else rate
    ),
    "03-product-at-1-1e-6": (
        "03-product-inequality", acceptance, "growth_distance",
        lambda i, report: dataclasses.replace(report, rho_plus=(1 - 1e-6) / report.rho_minus) if i == 0 else report,
    ),
    "10-gap-of-2/l_max": (
        "10-bridge", acceptance, "rgr_vs_cbm",
        lambda i, report: dataclasses.replace(report, gap=2 / CFG["l_max"]) if i == 0 else report,
    ),
    "05-square-radii-scaled-by-1+1e-9": (
        "05-delta-anchors", acceptance, "centered_square", lambda i, s: RadialSet(s.grid, s.radii * (1 + 1e-9))
    ),
    "06-scaling-pair-off-by-1e-12": (
        "06-toric-exactness", acceptance, "dcbm_toric",
        lambda i, iv: dataclasses.replace(iv, lower=iv.lower + 1e-12, upper=iv.upper + 1e-12) if i % 2 else iv,
    ),
    "09-pinch-upper-off-by-1e-12": (
        "09-forms-pinch", acceptance, "dcbm_forms",
        lambda i, report: dataclasses.replace(report, upper=report.upper + 1e-12) if i < 3 else report,
    ),
    "06-upper-one-ulp-over-the-lower": (
        "06-toric-exactness", acceptance, "dcbm_toric",
        lambda i, iv: iv if i % 2 else dataclasses.replace(iv, upper=math.nextafter(iv.upper, math.inf)),
    ),
    "07-shape-invariant-one-ulp-off": ("07-csh-functoriality", acceptance, "csh", lambda i, fiber: nudged(fiber)),
    "08-one-pair-failing": (
        "08-qi-harness", acceptance, "qi_verify",
        lambda i, report: dataclasses.replace(report, passed=False) if i == 0 else report,
    ),
    "11-a-squeezable-ball": (
        "11-squeezable-certificate", acceptance, "is_squeezable_toric",
        lambda i, verdict: dataclasses.replace(verdict, squeezable=True),
    ),
    "12-a-reader-one-ulp-off": (
        "12-schema-roundtrip", serialize, "radial_set_from_dict", lambda i, radial: nudged(radial)
    ),
}


@pytest.mark.parametrize("case", list(WRONG_ANSWERS))
def test_each_item_reads_false_on_a_wrong_library_answer(case, monkeypatch):
    item, owner, name, change = WRONG_ANSWERS[case]
    calls = substitute(monkeypatch, owner, name, change)
    assert not ITEMS[item](SEED, CFG)["passed"]
    assert calls


def test_12_cli_determinism(tmp_path, capsys):
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    assert main(["accept", "--seed", "7", "-o", str(first)]) == 0
    assert main(["accept", "--seed", "7", "-o", str(second)]) == 0
    b1, b2 = first.read_bytes(), second.read_bytes()
    assert b1 == b2
    # the seed-7 report is the yardstick that refactors must keep byte-identical
    assert len(b1) == SEED7_REPORT_BYTES
    assert hashlib.sha256(b1).hexdigest() == SEED7_REPORT_SHA256
    print(f"ACCEPT 12-cli-determinism: PASS (byte-identical, {len(b1)} bytes)")


def test_seed7_oracle_work_is_pinned(monkeypatch):
    # oracle calls and site passes follow from the descents alone, so they hold on every machine
    counts = count_oracle_calls(monkeypatch)
    acceptance.run_acceptance(SEED)
    assert counts == [3604, 1051]


def test_the_report_config_is_the_one_the_items_are_tested_and_streamed_at(tmp_path, monkeypatch):
    # the CLI report, this file's CFG and the geometry stream's copy cannot drift apart
    monkeypatch.setattr(acceptance, "ITEMS", [("01-runs", lambda seed, cfg: {"passed": True})])
    out = tmp_path / "r.json"
    assert main(["accept", "--seed", "7", "-o", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config.pop("seed") == SEED
    monkeypatch.syspath_prepend(str(BENCH))
    assert config == CFG == importlib.import_module("geometry_stream").ACCEPT_CONFIG
