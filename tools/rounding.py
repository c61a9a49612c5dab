"""Rounding audit: every float bound in ``src/cbmlab`` against an exact reference.

Each rounding bound in the package is ``errors.rounding_bound(k)``, gamma_k of
a counted chain of roundings. For each one, this script recomputes the
quantity the bound covers exactly, in fractions where no transcendental
function enters and with mpmath at 200 bits where one does, and divides the
rounding error of the computed quantity by the bound:

* acceptance items 01 to 06 and 10, on their own inputs at seeds 0 to 299
  (``--seeds``), with the rounding of each comparison's right side added;
* the direction grid's unit check, on the default grids and on rows x/|x|
  in dimensions 2 to 439;
* ``rgr_vs_cbm``'s widening gamma_9, on item 10's pairs and on generators
  near 1e308, whose radii 1/h are subnormal;
* ``dcbm_forms``' ``tol``, on item 09's forms and on 4,096-site forms with
  |f| up to 300/n'.

It prints the worst ratio of each bound and its own wall time, and exits 1 if
any ratio passes 1. mpmath is no dependency of the package: without it the
script says so and exits 0. Run from anywhere:

    python tools/rounding.py [--seeds N]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbmlab import acceptance  # noqa: E402
from cbmlab.domains import hamiltonian_to_domain, rgr_vs_cbm  # noqa: E402
from cbmlab.errors import rounding_bound  # noqa: E402
from cbmlab.forms import ContactFormRep, ContactMapRep, SampledManifold, dcbm_forms  # noqa: E402
from cbmlab.ordered import (  # noqa: E402
    DEFAULT_L_MAX,
    DEFAULT_PRIME_BOUND,
    OrderedModel,
    OrderVariant,
    growth_brackets,
    growth_distance,
    rho_plus,
    rho_plus_primes,
)
from cbmlab.primes import prime_table  # noqa: E402
from cbmlab.starshape import DirectionGrid, ball, centered_square, delta  # noqa: E402

L_MAX = DEFAULT_L_MAX
PRECISION = 200  # bits of the mpmath reference


class Audit:
    """The worst error/bound ratio seen per bound, errors and bounds taken exactly: a float,
    a Fraction or an mpmath number."""

    def __init__(self, mp):
        self.mp, self.worst = mp, {}

    def exact(self, x):
        return self.mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else self.mp.mpf(x)

    def record(self, name: str, error, bound) -> None:
        ratio = float(abs(self.exact(error)) / self.exact(bound))
        self.worst[name] = max(self.worst.get(name, 0.0), ratio)


def rate(x: float, most: int) -> Fraction:
    """The exact p/q with q <= most that the double x rounds: Farey ends and prime pairs have
    small denominators, far apart against an ulp."""
    return Fraction(x).limit_denominator(most)


def right_side(threshold: Fraction, bound: float) -> Fraction:
    """How far the float right side fl(threshold) + bound lies from the exact threshold + bound."""
    return Fraction(float(threshold) + bound) - (threshold + Fraction(bound))


def item_01(audit: Audit, seed: int) -> None:
    model, pairs = acceptance.growth_pair_corpus(seed)
    bound = 4 * rounding_bound(5)
    side = right_side(Fraction(1, L_MAX), bound)
    for a, b in pairs:
        est = rho_plus(model, a, b, L_MAX)
        oracle = float(np.max(b.data / a.data))
        exact_rate = max(Fraction(y) / Fraction(x) for x, y in zip(a.data.tolist(), b.data.tolist()))
        infimum = rate(est.pair_infimum, L_MAX)
        limit = Fraction(-(-L_MAX * infimum.numerator // infimum.denominator), L_MAX)
        for computed, exact in (
            (abs(est.pair_infimum - oracle), abs(infimum - exact_rate)),
            (abs(est.limit_estimate - oracle), abs(limit - exact_rate)),
            (abs(est.limit_estimate - est.pair_infimum), abs(limit - infimum)),
        ):
            audit.record("item 01: 4 gamma_5", abs(Fraction(computed) - exact) + abs(side), bound)


def item_02(audit: Audit, seed: int) -> None:
    model, pairs = acceptance.growth_pair_corpus(seed)
    primes = prime_table(DEFAULT_PRIME_BOUND).primes
    q_star = int(primes[primes.searchsorted(int(primes[-1]) // 4, side="right") - 1])
    gap = int(np.diff(primes).max())
    bound = 4 * rounding_bound(5)
    threshold = max(Fraction(gap, q_star), Fraction(1, L_MAX))
    side = Fraction(max(gap / q_star, 1 / L_MAX) + bound) - (threshold + Fraction(bound))
    for a, b in pairs:
        rpp = rho_plus_primes(model, a, b, DEFAULT_PRIME_BOUND)
        rp = rho_plus(model, a, b, L_MAX).pair_infimum
        exact = abs(rate(rpp, DEFAULT_PRIME_BOUND) - rate(rp, L_MAX))
        audit.record("item 02: 4 gamma_5", abs(Fraction(abs(rpp - rp)) - exact) + abs(side), bound)


def item_03_04(audit: Audit, seed: int, mp) -> None:
    model, pairs = acceptance.growth_pair_corpus(seed)
    bound = rounding_bound(3)
    for a, b in pairs:
        report = growth_distance(model, a, b, L_MAX)
        exact = rate(report.rho_plus, L_MAX) * rate(report.rho_minus, L_MAX)
        side = Fraction(1.0 - bound) - (1 - Fraction(bound))
        # the product is at least 1 exactly, and the comparison reads its relative rounding
        error = max(1 - Fraction(report.rho_plus * report.rho_minus) / exact, 0) + abs(side)
        audit.record("item 03: gamma_3", error, bound)
    rng = acceptance.item_rng(seed, 4)
    model = OrderedModel.additive(8, OrderVariant.NON_STRICT)
    bound = 2 * rounding_bound(10)
    side = right_side(Fraction(1, L_MAX), bound)

    def distance(x, y):
        report = growth_distance(model, x, y, L_MAX)
        gamma = max(rate(report.rho_plus, L_MAX), rate(report.rho_minus, L_MAX))
        return report.distance, mp.log(audit.exact(gamma))

    for _ in range(50):
        a, b, c = (model.element(acceptance.quantized(rng, 0.5, 2.0, 8)) for _ in range(3))
        (dab, eab), (dbc, ebc), (dac, eac) = distance(a, b), distance(b, c), distance(a, c)
        error = abs(mp.mpf(dac - (dab + dbc)) - (eac - eab - ebc)) + abs(audit.exact(side))
        audit.record("item 04: 2 gamma_10", error, bound)


def item_05_06(audit: Audit, seed: int, mp) -> None:
    cfg = {"l_max": L_MAX, "prime_bound": DEFAULT_PRIME_BOUND, "grid": acceptance.DEFAULT_GRID_COUNT}
    if seed == 0:  # the square/disk delta takes no random draw
        for count in range(64, 4097, 8):  # every count a multiple of 8 puts pi/4 on the grid
            grid = DirectionGrid.uniform_circle(count)
            square_disk = delta(centered_square(1.0, grid), ball(1.0, grid))
            # the item compares against math.sqrt(2.0), itself within u of sqrt 2
            error = abs(mp.mpf(square_disk) - mp.sqrt(2)) + abs(mp.mpf(math.sqrt(2.0)) - mp.sqrt(2))
            audit.record("item 05: 2 gamma_8", error, 2 * rounding_bound(8))
    details = acceptance.item_toric_exactness(seed, cfg)
    audit.record("item 06: 2 gamma_3", details["max_scaling_error"], 2 * rounding_bound(3))


def item_10_bridge(audit: Audit, seed: int, mp) -> None:
    rng = acceptance.item_rng(seed, 10)
    bound = rounding_bound(17)
    for _ in range(50):
        h1, h2 = acceptance.quantized(rng, 0.5, 2.5, 64), acceptance.quantized(rng, 0.5, 2.5, 64)
        report = rgr_vs_cbm(h1, h2, l_max=L_MAX)
        ratio, hi = bridge(audit, h1, h2)
        exact = mp.log(audit.exact(hi)) - mp.log(audit.exact(ratio))
        side = abs(right_side(Fraction(1, L_MAX), bound))
        audit.record("item 10: gamma_17", abs(mp.mpf(report.gap) - abs(exact)) + audit.exact(side), bound)
        side = abs(Fraction(report.d_cbm - bound) - (Fraction(report.d_cbm) - Fraction(bound)))
        difference = mp.mpf(report.d_order) - mp.mpf(report.d_cbm)
        audit.record("item 10: gamma_17", abs(difference - exact) + audit.exact(side), bound)


def bridge(audit: Audit, h1, h2) -> tuple[Fraction, Fraction]:
    """The bridge's widening on one pair: the computed domain ratio against the exact one,
    relative; returns the exact ratio and the larger upper Farey end."""
    fibers = [hamiltonian_to_domain(h).fiber for h in (h1, h2)]
    ratios = [Fraction(y) / Fraction(x) for x, y in zip(h1.tolist(), h2.tolist())]
    exact = max(max(ratios), 1 / min(ratios), Fraction(1))
    audit.record("rgr_vs_cbm widening: gamma_9", Fraction(delta(*fibers)) / exact - 1, rounding_bound(9))
    model = OrderedModel.additive(len(h1), OrderVariant.STRICT_POSITIVE)
    (top, _), (top_m, _) = growth_brackets(model, model.element(h1), model.element(h2), L_MAX)
    return exact, max(Fraction(*top), Fraction(*top_m))


def subnormal_bridges(audit: Audit, draws: int) -> None:
    rng = np.random.Generator(np.random.Philox(key=[0, 1]))
    for _ in range(draws):
        h1 = rng.uniform(4.5e307, 8.9e307, 64)  # radii 1/h below 2.2e-308: subnormal
        h2 = h1 * rng.uniform(0.5, 2.0, 64)  # radii subnormal or normal
        bridge(audit, h1, h2)
        rgr_vs_cbm(h1, h2)  # raises if the widening misses


def grids(audit: Audit) -> None:
    def unit(name, rows):
        norms = np.linalg.norm(rows, axis=1)
        audit.record(name, float(np.max(np.abs(norms - 1.0))), rounding_bound(rows.shape[1] + 4))

    for count in (64, 1000, 1024, 4096, 10**6):
        unit("grid unit check: gamma_(d+4)", DirectionGrid.uniform_circle(count).directions)
        unit("grid unit check: gamma_(d+4)", DirectionGrid.sphere(count).directions)
    rng = np.random.Generator(np.random.Philox(key=[0, 2]))
    for dimension in range(2, 440):
        x = rng.normal(size=(256, dimension)) * np.exp(rng.uniform(-300, 300, (256, 1)))
        rows = x / np.linalg.norm(x, axis=1)[:, None]
        unit("grid unit check: gamma_(d+4)", rows)
        DirectionGrid(rows)  # raises if any row fails


def forms_error(f1, f2, candidates, report, mp) -> object:
    """|upper - exact upper| + |lower - exact lower| of one dcbm_forms report."""
    m, n = f1.manifold, f1.manifold.half_dim
    logw = [mp.log(mp.mpf(w)) for w in m.weights.tolist()]
    a, b = [mp.mpf(x) for x in f1.f.tolist()], [mp.mpf(x) for x in f2.f.tolist()]
    upper = max(abs(x - y) for x, y in zip(a, b))
    for phi in candidates:
        perm = phi.perm.tolist()
        width = max(abs(a[i] - b[j] - (logw[j] - logw[i]) / n) for i, j in enumerate(perm))
        upper = min(upper, width)
    volume = [sum(mp.exp(n * x) * mp.mpf(w) for x, w in zip(f, m.weights.tolist())) / n for f in (a, b)]
    lower = abs(mp.log(volume[0] / volume[1])) / n
    return abs(mp.mpf(report.upper) - upper) + abs(mp.mpf(report.lower) - lower)


def item_09(audit: Audit, seed: int, mp) -> None:
    rng = acceptance.item_rng(seed, 9)
    manifold = SampledManifold(acceptance.quantized(rng, 0.5, 2.0, 128), half_dim=2)
    f1 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
    for c in (2.0, math.e, 10.0):
        f2 = f1.rescaled(c)
        report = dcbm_forms(f1, f2)
        audit.record("dcbm_forms tol", forms_error(f1, f2, [], report, mp), report.tol)
    candidates = [ContactMapRep(manifold, rng.permutation(128)) for _ in range(3)]
    for _ in range(100):
        g1 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
        g2 = ContactFormRep(manifold, rng.uniform(-1.0, 1.0, 128))
        report = dcbm_forms(g1, g2, candidates)
        audit.record("dcbm_forms tol", forms_error(g1, g2, candidates, report, mp), report.tol)


def large_forms(audit: Audit, draws: int, mp) -> None:
    rng = np.random.Generator(np.random.Philox(key=[0, 3]))
    for k in range(draws):
        n = int(rng.integers(1, 51))
        sites = 4096 if k % 2 == 0 else int(rng.integers(1, 64))
        manifold = SampledManifold(np.exp(rng.uniform(-5.0, 5.0, sites)), half_dim=n)
        reach = 300.0 / n * rng.uniform(0.01, 1.0)
        f1 = ContactFormRep(manifold, rng.uniform(-reach, reach, sites))
        # a shifted copy, pinched or near it, or (k % 3 == 2) a copy with noise up to 2e-3
        noise = rng.uniform(-1e-3, 1e-3, sites) * (k % 3)
        f2 = ContactFormRep(manifold, np.clip(f1.f + rng.uniform(-1.0, 1.0) * reach + noise, -reach, reach))
        candidates = [ContactMapRep(manifold, rng.permutation(sites)) for _ in range(int(rng.integers(0, 3)))]
        report = dcbm_forms(f1, f2, candidates)
        audit.record("dcbm_forms tol", forms_error(f1, f2, candidates, report, mp), report.tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=300, help="audit the items at seeds 0 to N - 1")
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        import mpmath
    except ImportError:
        print("mpmath is not installed; no bound audited")
        return 0
    mp = mpmath.mp
    mp.prec = PRECISION
    audit = Audit(mp)
    grids(audit)
    subnormal_bridges(audit, 200)
    large_forms(audit, 100, mp)
    for seed in range(args.seeds):
        item_01(audit, seed)
        item_02(audit, seed)
        item_03_04(audit, seed, mp)
        item_05_06(audit, seed, mp)
        item_09(audit, seed, mp)
        item_10_bridge(audit, seed, mp)
    for name, ratio in sorted(audit.worst.items()):
        print(f"{name}: worst error/bound {ratio:.3g}")
    failing = [name for name, ratio in audit.worst.items() if ratio > 1]
    print(f"{len(failing)} bound(s) exceeded; {time.monotonic() - start:.1f} s")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
