"""Seeded acceptance suite shared by the CLI driver and the test suite.

Randomness comes from the counter-based Philox generator keyed by
(seed, item index), so every implementation of this recipe produces the
same draws. Additive-model samples are quantized to multiples of 2^-20,
which keeps sums, differences, and small integer multiples of the sampled
values exact in double precision. Float comparisons allow gamma_k of their
counted roundings (u = 2^-53; a value below 2^j rounds within 2^(j-1) u).

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
from .errors import CbmlabError, checked_int, rounding_bound
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
    DEFAULT_C1,
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
from .primes import prime_table

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
    """Each estimate is in [rate, rate + 1/l_max]: p/q - rate <= 1/(q q_lo), the limit is ceil(l_max rate)/l_max.
    Rates are at most 4 (sites lie in [0.5, 2]), so five roundings below 8, each end of a difference, the
    difference, 1/l_max and the sum, meet at the comparison: 4 gamma_5."""
    model, pairs = growth_pair_corpus(seed)
    l_max = cfg["l_max"]
    worst_oracle = worst_forms = 0.0
    for a, b in pairs:
        est = rho_plus(model, a, b, l_max)
        oracle = float(np.max(b.data / a.data))
        worst_oracle = max(worst_oracle, abs(est.pair_infimum - oracle), abs(est.limit_estimate - oracle))
        worst_forms = max(worst_forms, abs(est.limit_estimate - est.pair_infimum))
    return {
        "passed": max(worst_oracle, worst_forms) <= 1 / l_max + 4 * rounding_bound(5),
        "max_oracle_error": worst_oracle,
        "max_formulation_gap": worst_forms,
        "pairs": len(pairs),
    }


def item_prime_pairs(seed: int, cfg: dict) -> dict:
    """Both rates lie above the Farey upper end num/den of the rate at the prime bound: the pair infimum rp
    is that at l_max, at most 1/(q q_lo) <= 1/l_max above the rate, and the prime-pair rate rpp has p >=
    ceil(q num/den) for each prime q. So rp - rpp <= 1/l_max. A rate is at most 4 (sites lie in [0.5, 2]),
    so with top the largest prime <= the bound, the largest prime q* <= top/4 has k = ceil(q* num/den) <=
    top, and the first prime at or after k is at most k - 1 + g < q* num/den + g, g the largest gap between
    primes <= top: rpp - rp < g/q*. Both come from the prime table. Five roundings below 8, rpp, rp, their
    difference, the quotient the max picks and the sum, meet at the comparison: 4 gamma_5."""
    model, pairs = growth_pair_corpus(seed)
    bound = cfg["prime_bound"]
    primes = prime_table(bound).primes  # the table rho_plus_primes reads
    q_star = int(primes[primes.searchsorted(int(primes[-1]) // 4, side="right") - 1])
    gap = int(np.diff(primes).max())
    worst = 0.0
    for a, b in pairs:
        rpp = rho_plus_primes(model, a, b, bound)
        rp = rho_plus(model, a, b, cfg["l_max"]).pair_infimum
        worst = max(worst, abs(rpp - rp))
    passed = worst <= max(gap / q_star, 1 / cfg["l_max"]) + 4 * rounding_bound(5)
    return {"passed": passed, "max_gap": worst, "prime_bound": bound}


def item_product_inequality(seed: int, cfg: dict) -> dict:
    """growth_distance checks p p' >= q q' exactly and returns each rate p/q rounded once, so the float product
    of the two, rounded once more, is at least (1 - u)^3 > 1 - gamma_3: three roundings."""
    model, pairs = growth_pair_corpus(seed)
    l_max = cfg["l_max"]
    min_product = math.inf
    for a, b in pairs:
        report = growth_distance(model, a, b, l_max)
        min_product = min(min_product, report.rho_plus * report.rho_minus)
    return {"passed": min_product >= 1.0 - rounding_bound(3), "min_product": min_product}


def item_axioms(seed: int, cfg: dict) -> dict:
    """(a, a) has the bracket 1/1, and (a, b) and (b, a) read the same brackets: self and symmetry are exactly
    0. Each distance is at most ln(1 + 1/l_max) <= 1/l_max above the exact one, a metric. Ten roundings of 2u
    meet at the triangle: three rates below 5, whose u moves a log by under 2u, three logs below 2, the sum,
    the difference, 1/l_max and the sum on the right: 2 gamma_10."""
    rng = item_rng(seed, 4)
    l_max = cfg["l_max"]
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
        rconj = norms.norm(base, model.compose(model.compose(arg2, arg1), model.inverse(arg2)))
        norm_ok = norm_ok and r1.nu >= 0 and (r1.nu == 0) == bool(np.all(arg1.data == 0))
        norm_ok = norm_ok and rneg.nu == r1.nu and rsum.nu <= r1.nu + r2.nu
        norm_ok = norm_ok and rconj.nu == r1.nu  # abelian: conjugation is exact identity
        # stabilization raises unless its norm is within 1 of the brackets' exact norm
        norms.stabilization(base, arg1, l_max)
        stab_checked += 1
    passed = worst_self == worst_sym == 0.0 and worst_triangle <= 1 / l_max + 2 * rounding_bound(10)
    passed = passed and norm_ok and stab_checked == 50
    return {
        "passed": passed,
        "max_self_distance": worst_self,
        "max_symmetry_gap": worst_sym,
        "max_triangle_excess": worst_triangle,
        "norm_axioms_ok": norm_ok,
        "stabilization_cases": stab_checked,
    }


def item_delta_anchors(seed: int, cfg: dict) -> dict:
    """1,024 is a multiple of 8, so pi/4 = 2 pi 128/1024 is a grid angle and the exact square/disk delta
    is sqrt 2. Counting factors (1 + d)^(+-1), |d| <= u: a row's exact norm is within 3 of 1 (its computed
    norm 2, the division 1), and max(|x|, |y|) >= |(x, y)|/sqrt 2. At fl(pi)/4, cot is within 2, cos and
    sin, an ulp off values above 1/2, within 2 each, so with the divisions x/y is within 8 and max(|x|, |y|)
    within 4 of |(x, y)|/sqrt 2; 1/max rounds once. So the delta is within sqrt(2) gamma_8 of sqrt 2, and
    math.sqrt(2.0) within u: their difference, exact, is within 2 gamma_8."""
    grid = DirectionGrid.uniform_circle(cfg["grid"])
    balls_exact = delta(ball(1.0, grid), ball(2.0, grid)) == 2.0
    square_disk = delta(centered_square(1.0, grid), ball(1.0, grid))
    square_ok = abs(square_disk - math.sqrt(2.0)) <= 2 * rounding_bound(8)
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
    """Both ends of dcbm_toric and dc_toric's value are one log_delta: the width is 0 and upper that value.
    On a scaling pair the ratios c r / r and r / (c r) round twice, moving ln delta by gamma_2; it and
    math.log(c), below 2, are an ulp (2u) off, their difference exact: each end is within 2 gamma_3 of |ln c|."""
    rng = item_rng(seed, 6)
    grid = DirectionGrid.uniform_circle(256)
    worst_width = worst_scaling = 0.0
    chain_ok = True
    for _ in range(20):
        u = SplitToricDomain(2, RadialSet(grid, rng.uniform(0.5, 2.0, grid.count)))
        v = SplitToricDomain(2, RadialSet(grid, rng.uniform(0.5, 2.0, grid.count)))
        interval = dcbm_toric(u, v)
        worst_width = max(worst_width, interval.upper - interval.lower)
        chain_ok = chain_ok and interval.upper <= dc_toric(u.fiber, v.fiber).value
        c = float(rng.uniform(0.5, 4.0))
        scaled = SplitToricDomain(2, scale(u.fiber, c))
        iv = dcbm_toric(scaled, u)
        worst_scaling = max(
            worst_scaling, abs(iv.lower - abs(math.log(c))), abs(iv.upper - abs(math.log(c)))
        )
    return {
        "passed": worst_width == 0.0 and worst_scaling <= 2 * rounding_bound(3) and chain_ok,
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
        np.array_equal(csh(SplitToricDomain(2, scale(fiber, c))).radii, scale(csh(u), c).radii)
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
        report = qi_verify(v, w)
        all_pass = all_pass and report.passed
        measured = max(measured, report.measured_c1)
        worst_low = max(worst_low, report.linf - report.log_delta)
    composed_ok = True
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, 3)
        y = rng.uniform(-3.0, 3.0, 3)
        report = qi_verify(lshape_array(x), lshape_array(y))
        gap = float(np.max(np.abs(x - y)))
        composed_ok = composed_ok and 0.5 * gap - 1e-9 <= report.log_delta <= measured * gap + 1e-9
    return {
        "passed": all_pass and measured <= DEFAULT_C1 and composed_ok,
        "all_pairs_pass": all_pass,
        "measured_c1": measured,
        "max_lower_slack": worst_low,
        "composed_embedding_ok": composed_ok,
    }


def item_forms_pinch(seed: int, cfg: dict) -> dict:
    """Both exact ends of f1 against f1 + L, L = math.log(c), are L; rescaled rounds each f1 + L within half
    an ulp of max |f2|, which moves each end as much at most, and tol bounds the rounding of each end.
    lower_le_upper allows each report its own tol, the bound past which dcbm_forms raises, so it can only
    read true."""
    rng = item_rng(seed, 9)
    manifold = SampledManifold(quantized(rng, 0.5, 2.0, 128), half_dim=2)
    f1 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
    worst_pinch, pinch_ok = 0.0, True
    for c in (2.0, math.e, 10.0):
        f2 = f1.rescaled(c)
        report = dcbm_forms(f1, f2)
        error = max(abs(report.upper - math.log(c)), abs(report.lower - math.log(c)))
        pinch_ok = pinch_ok and error <= report.tol + math.ulp(float(np.abs(f2.f).max())) / 2
        worst_pinch = max(worst_pinch, error)
    chain_ok = True
    perms = [rng.permutation(128) for _ in range(3)]
    candidates = [ContactMapRep(manifold, p) for p in perms]
    for _ in range(100):
        g1 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
        g2 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
        report = dcbm_forms(g1, g2, candidates)
        chain_ok = chain_ok and report.lower <= report.upper + report.tol
    return {
        "passed": pinch_ok and chain_ok,
        "max_pinch_error": worst_pinch,
        "lower_le_upper": chain_ok,
    }


def item_bridge(seed: int, cfg: dict) -> dict:
    """rgr_vs_cbm returns only with the domain ratio r >= 1 in [lo (1 - w), hi (1 + w)], w = gamma_9, where hi
    and lo are the larger upper and the larger lower end of the two Farey brackets at l_max. Under either
    order, the bridge's strict-positive one too, each rate lies in its bracket [p_lo/q_lo, p/q], with p q_lo
    - p_lo q = 1 and q q_lo >= l_max, and the two rates multiply to at least 1, so hi >= 1. Farey neighbours
    never straddle 1: either lo < 1 = hi and 0 <= ln r <= w, or hi's own bracket has p_lo >= q_lo and lo at
    least its lower end, so ln(hi/lo) <= 1/(q p_lo) <= 1/l_max. So ln hi - ln r lies in [-w, 1/l_max + w/(1 -
    w)], w/(1 - w) = gamma_18/2. p/q rounds within u, each log, below 2 (h in [0.5, 2.5]), within 2u, and the
    gap, 1/l_max and the sum within u each: gamma_17 bounds both comparisons, the inequality's 6u and w too."""
    rng = item_rng(seed, 10)
    unit = hamiltonian_to_domain(np.ones(128))
    unit_ok = bool(np.all(unit.fiber.radii == 1.0)) and unit.m_minus == 1.0 and unit.s_empty == 1.0
    worst_gap = 0.0
    all_hold = True
    for _ in range(50):
        h1 = quantized(rng, 0.5, 2.5, 64)
        h2 = quantized(rng, 0.5, 2.5, 64)
        report = rgr_vs_cbm(h1, h2, l_max=cfg["l_max"])
        worst_gap = max(worst_gap, report.gap)
        all_hold = all_hold and report.d_order >= report.d_cbm - rounding_bound(17)
    return {
        "passed": unit_ok and all_hold and worst_gap <= 1 / cfg["l_max"] + rounding_bound(17),
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
