"""Seeded acceptance suite shared by the CLI driver and the test suite.

Randomness comes from the counter-based Philox generator keyed by
(seed, item index), so every implementation of this recipe produces the
same draws. Additive-model samples are quantized to multiples of 2^-20,
which keeps sums, differences, and small integer multiples of the sampled
values exact in double precision.

No wall-clock data enters the report: identical config and seed must give
byte-identical output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import norms, serialize
from .domains import (
    SplitToricDomain,
    csh,
    dc_toric,
    dcbm_toric,
    hamiltonian_to_domain,
    is_squeezable_toric,
    rescale_cover,
    rgr_vs_cbm,
)
from .errors import CbmlabError, checked_int
from .forms import ContactFormRep, ContactMapRep, SampledManifold, dcbm_forms
from .ordered import (
    DEFAULT_L_MAX,
    DEFAULT_PRIME_BOUND,
    OrderedModel,
    OrderVariant,
    growth_distance,
    rho_plus,
    rho_plus_primes,
)
from .starshape import (
    DEFAULT_GRID_COUNT,
    DirectionGrid,
    RadialSet,
    ball,
    centered_square,
    delta,
    log_delta,
    lshape_array,
    qi_verify,
    scale,
)

QUANTUM = 2.0**-20
_PAIR_STREAM = 101  # shared stream for the growth-rate pair corpus


def item_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def quantized(rng: np.random.Generator, lo: float, hi: float, size) -> np.ndarray:
    lo_i, hi_i = round(lo / QUANTUM), round(hi / QUANTUM)
    return rng.integers(lo_i, hi_i, size=size, endpoint=True) * QUANTUM


def growth_pair_corpus(seed: int, count: int = 100):
    """The shared dominant additive pairs used by the growth-rate items."""
    sites = 12
    rng = item_rng(seed, _PAIR_STREAM)
    model = OrderedModel.additive(sites, OrderVariant.NON_STRICT)
    pairs = []
    for _ in range(count):
        a = model.element(quantized(rng, 0.5, 2.0, sites))
        b = model.element(quantized(rng, 0.5, 2.0, sites))
        pairs.append((a, b))
    return model, pairs


def item_growth_oracle(seed: int, cfg: dict) -> dict:
    model, pairs = growth_pair_corpus(seed)
    l_max = cfg["l_max"]
    worst_oracle = worst_forms = 0.0
    for a, b in pairs:
        est = rho_plus(model, a, b, l_max)
        oracle = float(np.max(b.data / a.data))
        worst_oracle = max(
            worst_oracle, abs(est.pair_infimum - oracle), abs(est.limit_estimate - oracle)
        )
        worst_forms = max(worst_forms, abs(est.limit_estimate - est.pair_infimum))
    return {
        "passed": worst_oracle <= 1e-3 and worst_forms <= 1e-3,
        "max_oracle_error": worst_oracle,
        "max_formulation_gap": worst_forms,
        "pairs": len(pairs),
    }


def item_prime_pairs(seed: int, cfg: dict) -> dict:
    model, pairs = growth_pair_corpus(seed)
    bound = cfg["prime_bound"]
    worst = 0.0
    for a, b in pairs:
        rpp = rho_plus_primes(model, a, b, bound)
        rp = rho_plus(model, a, b, cfg["l_max"]).pair_infimum
        worst = max(worst, abs(rpp - rp))
    return {"passed": worst <= 0.05, "max_gap": worst, "prime_bound": bound}


def item_product_inequality(seed: int, cfg: dict) -> dict:
    model, pairs = growth_pair_corpus(seed)
    l_max = cfg["l_max"]
    min_product = math.inf
    for a, b in pairs:
        report = growth_distance(model, a, b, l_max)
        min_product = min(min_product, report.rho_plus * report.rho_minus)
    return {"passed": min_product >= 1.0 - 2.0 / l_max, "min_product": min_product}


def item_axioms(seed: int, cfg: dict) -> dict:
    rng = item_rng(seed, 4)
    l_max = cfg["l_max"]
    tol = 2.0 / l_max
    sites = 8
    model = OrderedModel.additive(sites, OrderVariant.NON_STRICT)
    worst_triangle = worst_self = worst_sym = 0.0
    for _ in range(50):
        a, b, c = (model.element(quantized(rng, 0.5, 2.0, sites)) for _ in range(3))
        dab = growth_distance(model, a, b, l_max).distance
        dba = growth_distance(model, b, a, l_max).distance
        dbc = growth_distance(model, b, c, l_max).distance
        dac = growth_distance(model, a, c, l_max).distance
        daa = growth_distance(model, a, a, l_max).distance
        worst_self = max(worst_self, abs(daa))
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_triangle = max(worst_triangle, dac - (dab + dbc))
    norm_ok = True
    stab_checked = 0
    for _ in range(50):
        base = model.element(quantized(rng, 0.5, 2.0, sites))
        arg1 = model.element(quantized(rng, -2.0, 2.0, sites))
        arg2 = model.element(quantized(rng, -2.0, 2.0, sites))
        r1, r2 = norms.norm(base, arg1), norms.norm(base, arg2)
        rsum = norms.norm(base, model.compose(arg1, arg2))
        rneg = norms.norm(base, model.inverse(arg1))
        rconj = norms.norm(
            base, model.compose(model.compose(arg2, arg1), model.inverse(arg2))
        )
        norm_ok = norm_ok and r1.nu >= 0 and (r1.nu == 0) == bool(np.all(arg1.data == 0))
        norm_ok = norm_ok and rneg.nu == r1.nu and rsum.nu <= r1.nu + r2.nu
        norm_ok = norm_ok and rconj.nu == r1.nu  # abelian: conjugation is exact identity
        # stabilization enforces the 2/l_max agreement internally and raises on failure
        norms.stabilization(base, arg1, l_max)
        stab_checked += 1
    passed = (
        worst_self <= tol
        and worst_sym <= tol
        and worst_triangle <= tol
        and norm_ok
        and stab_checked == 50
    )
    return {
        "passed": passed,
        "max_self_distance": worst_self,
        "max_symmetry_gap": worst_sym,
        "max_triangle_excess": worst_triangle,
        "norm_axioms_ok": norm_ok,
        "stabilization_cases": stab_checked,
    }


def item_delta_anchors(seed: int, cfg: dict) -> dict:
    grid = DirectionGrid.uniform_circle(cfg["grid"])
    balls_exact = delta(ball(1.0, grid), ball(2.0, grid)) == 2.0
    square_disk = delta(centered_square(1.0, grid), ball(1.0, grid))
    square_ok = abs(square_disk - math.sqrt(2.0)) <= 1e-3
    rng = item_rng(seed, 5)
    radii = rng.uniform(0.5, 2.0, grid.count)
    a = RadialSet(grid, radii)
    scaling_exact = all(
        log_delta(scale(a, c), a) == abs(math.log(c)) for c in (2.0, 0.5, 8.0, 1.0 / 16.0)
    )
    return {
        "passed": balls_exact and square_ok and scaling_exact,
        "ball_delta_exact": balls_exact,
        "square_disk_delta": square_disk,
        "dyadic_scaling_exact": scaling_exact,
    }


def item_toric_exactness(seed: int, cfg: dict) -> dict:
    rng = item_rng(seed, 6)
    grid = DirectionGrid.uniform_circle(256)
    worst_width = worst_scaling = 0.0
    chain_ok = True
    for _ in range(20):
        u = SplitToricDomain(2, RadialSet(grid, rng.uniform(0.5, 2.0, grid.count)))
        v = SplitToricDomain(2, RadialSet(grid, rng.uniform(0.5, 2.0, grid.count)))
        interval = dcbm_toric(u, v)
        worst_width = max(worst_width, interval.upper - interval.lower)
        chain_ok = chain_ok and interval.upper <= dc_toric(u.fiber, v.fiber).value + 1e-12
        c = float(rng.uniform(0.5, 4.0))
        scaled = SplitToricDomain(2, scale(u.fiber, c))
        iv = dcbm_toric(scaled, u)
        worst_scaling = max(
            worst_scaling, abs(iv.lower - abs(math.log(c))), abs(iv.upper - abs(math.log(c)))
        )
    return {
        "passed": worst_width <= 1e-6 and worst_scaling <= 1e-9 and chain_ok,
        "max_interval_width": worst_width,
        "max_scaling_error": worst_scaling,
        "upper_le_dc": chain_ok,
    }


def item_csh_functoriality(seed: int, cfg: dict) -> dict:
    rng = item_rng(seed, 7)
    grid = DirectionGrid.uniform_circle(256)
    fiber = RadialSet(grid, rng.uniform(0.5, 2.0, grid.count))
    u = SplitToricDomain(2, fiber)
    cover_exact = all(
        np.array_equal(csh(rescale_cover(u, k)).radii, scale(fiber, 1.0 / k).radii)
        for k in (2, 3, 5, 12)
    )
    scale_exact = all(
        np.array_equal(
            csh(SplitToricDomain(2, scale(fiber, c))).radii, scale(csh(u), c).radii
        )
        for c in (2.5, 0.25, 7.0)
    )
    chain = rescale_cover(rescale_cover(u, 3), 4)
    composed = np.array_equal(chain.fiber.radii, rescale_cover(u, 12).fiber.radii)
    return {
        "passed": cover_exact and scale_exact and composed,
        "cover_rescale_exact": cover_exact,
        "constant_rescale_exact": scale_exact,
        "cover_composition_exact": composed,
    }


def item_qi_harness(seed: int, cfg: dict) -> dict:
    rng = item_rng(seed, 8)
    measured = 1.0
    all_pass = True
    worst_low = 0.0
    for _ in range(50):
        v = rng.uniform(0.0, 4.0, 6)
        w = rng.uniform(0.0, 4.0, 6)
        report = qi_verify(v, w, c0=10.0, tol=1e-2, c1=1.5)
        all_pass = all_pass and report.passed
        measured = max(measured, report.measured_c1)
        worst_low = max(worst_low, report.linf - report.log_delta)
    composed_ok = True
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, 3)
        y = rng.uniform(-3.0, 3.0, 3)
        report = qi_verify(lshape_array(x), lshape_array(y), c0=10.0, tol=1e-2, c1=1.5)
        gap = float(np.max(np.abs(x - y)))
        composed_ok = composed_ok and (
            0.5 * gap - 1e-9 <= report.log_delta <= measured * gap + 1e-9
        )
    return {
        "passed": all_pass and measured <= 1.5 and composed_ok,
        "all_pairs_pass": all_pass,
        "measured_c1": measured,
        "max_lower_slack": worst_low,
        "composed_embedding_ok": composed_ok,
    }


def item_forms_pinch(seed: int, cfg: dict) -> dict:
    rng = item_rng(seed, 9)
    manifold = SampledManifold(quantized(rng, 0.5, 2.0, 128), half_dim=2)
    f1 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
    worst_pinch = 0.0
    for c in (2.0, math.e, 10.0):
        report = dcbm_forms(f1, f1.rescaled(c))
        worst_pinch = max(
            worst_pinch, abs(report.upper - math.log(c)), abs(report.lower - math.log(c))
        )
    chain_ok = True
    perms = [rng.permutation(128) for _ in range(3)]
    candidates = [ContactMapRep(manifold, p) for p in perms]
    for _ in range(100):
        g1 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
        g2 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
        report = dcbm_forms(g1, g2, candidates)
        chain_ok = chain_ok and report.lower <= report.upper + 1e-12
    return {
        "passed": worst_pinch <= 1e-9 and chain_ok,
        "max_pinch_error": worst_pinch,
        "lower_le_upper": chain_ok,
    }


def item_bridge(seed: int, cfg: dict) -> dict:
    rng = item_rng(seed, 10)
    unit = hamiltonian_to_domain(np.ones(128))
    unit_ok = (
        bool(np.all(unit.fiber.radii == 1.0))
        and unit.m_minus == 1.0
        and unit.s_empty == 1.0
    )
    worst_gap = 0.0
    all_hold = True
    for _ in range(50):
        h1 = quantized(rng, 0.5, 2.5, 64)
        h2 = quantized(rng, 0.5, 2.5, 64)
        report = rgr_vs_cbm(h1, h2, l_max=cfg["l_max"])
        worst_gap = max(worst_gap, report.gap)
        all_hold = all_hold and report.d_order >= report.d_cbm - report.tol
    tol = 3.0 / cfg["l_max"]
    return {
        "passed": unit_ok and all_hold and worst_gap <= tol,
        "unit_hamiltonian_ok": unit_ok,
        "inequality_holds": all_hold,
        "max_equality_gap": worst_gap,
    }


def item_squeezable(seed: int, cfg: dict) -> dict:
    grid2 = DirectionGrid.uniform_circle(256)
    grid3 = DirectionGrid.sphere(256)
    ok = True
    for radius in (0.1, 1.0, 10.0):
        for grid, n in ((grid2, 2), (grid3, 3)):
            verdict = is_squeezable_toric(SplitToricDomain(n, ball(radius, grid)))
            ok = ok and not verdict.squeezable and "contradiction" in verdict.certificate
    return {"passed": ok, "all_non_squeezable_with_certificate": ok}


def item_schema_roundtrip(seed: int, cfg: dict) -> dict:
    rng = item_rng(seed, 12)
    grid = DirectionGrid.uniform_circle(64)
    radial = RadialSet(grid, rng.uniform(0.5, 2.0, grid.count))
    payload = serialize.dumps_report(serialize.radial_set_to_dict(radial))
    reparsed = serialize.radial_set_from_dict(json.loads(payload))
    round1 = serialize.dumps_report(serialize.radial_set_to_dict(reparsed))
    ok = payload == round1
    model, pairs = growth_pair_corpus(seed, count=1)
    report = growth_distance(model, pairs[0][0], pairs[0][1], 100).to_json_dict()
    text = serialize.dumps_report(report)
    ok = ok and serialize.dumps_report(json.loads(text)) == text
    return {"passed": ok, "roundtrip_identity": ok}


ITEMS = [
    ("01-growth-oracle", item_growth_oracle),
    ("02-prime-pairs", item_prime_pairs),
    ("03-product-inequality", item_product_inequality),
    ("04-pseudo-metric-and-norms", item_axioms),
    ("05-delta-anchors", item_delta_anchors),
    ("06-toric-exactness", item_toric_exactness),
    ("07-csh-functoriality", item_csh_functoriality),
    ("08-qi-harness", item_qi_harness),
    ("09-forms-pinch", item_forms_pinch),
    ("10-bridge", item_bridge),
    ("11-squeezable-certificate", item_squeezable),
    ("12-schema-roundtrip", item_schema_roundtrip),
]


def run_acceptance(seed: int = 7) -> dict:
    """Run every acceptance item at the one configuration their thresholds are
    set for, and assemble a deterministic report; an item that raises a
    CbmlabError is recorded as failed and the rest still run. A seed that is not
    an integer in the Philox key range raises InvalidInputError before the first item."""
    seed = checked_int(seed, "seed", 0, 2**63 - 1)  # Philox keys are exact only in this range
    cfg = {"l_max": DEFAULT_L_MAX, "prime_bound": DEFAULT_PRIME_BOUND, "grid": DEFAULT_GRID_COUNT}
    results = {}
    for name, fn in ITEMS:
        try:
            results[name] = fn(seed, cfg)
        except CbmlabError as exc:
            results[name] = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
    items = [{"name": name, **results[name]} for name in sorted(results)]
    return {
        "config": {"seed": seed, **cfg},
        "items": items,
        "passed": all(entry["passed"] for entry in items),
    }
