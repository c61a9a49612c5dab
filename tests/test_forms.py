import math

import numpy as np
import pytest

from cbmlab.acceptance import QUANTUM, item_rng
from cbmlab.errors import InvalidInputError
from cbmlab.forms import (
    ContactFormRep,
    ContactMapRep,
    SampledManifold,
    dcbm_forms,
    dcbm_forms_lower_volume,
    dcbm_forms_upper,
    pullback,
    w_alpha_volume,
)

SEED = 31  # Philox key of this file's draws


def uniform_manifold(sites=64, half_dim=2):
    return SampledManifold(np.ones(sites), half_dim)


def random_manifold(rng, sites=64, half_dim=2):
    w = rng.integers(round(0.5 / QUANTUM), round(2.0 / QUANTUM), sites) * QUANTUM
    return SampledManifold(w, half_dim)


def brute_force_volume(form, u_samples=200_000):
    """Independent quadrature: integrate u^(n'-1) du numerically per site."""
    n = form.manifold.half_dim
    total = 0.0
    for f_i, w_i in zip(form.f, form.manifold.weights):
        u = np.linspace(0.0, math.exp(f_i), u_samples)
        total += float(np.trapezoid(u ** (n - 1), u)) * w_i
    return total


class TestPullback:
    def test_identity_with_zero_factor(self):
        m = uniform_manifold()
        rng = item_rng(SEED, 0)
        alpha = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        same = pullback(alpha, ContactMapRep(m, np.arange(m.sites), np.zeros(m.sites)))
        assert np.array_equal(same.f, alpha.f)

    def test_identity_with_constant_factor_rescales(self):
        m = uniform_manifold()
        alpha = ContactFormRep(m, np.linspace(-1, 1, m.sites))
        c = 0.75
        shifted = pullback(alpha, ContactMapRep(m, np.arange(m.sites), np.full(m.sites, c)))
        assert np.array_equal(shifted.f, alpha.f + c)

    def test_pure_permutation_permutes(self):
        m = uniform_manifold()
        rng = item_rng(SEED, 1)
        alpha = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        perm = rng.permutation(m.sites)
        moved = pullback(alpha, ContactMapRep(m, perm, np.zeros(m.sites)))
        assert np.array_equal(moved.f, alpha.f[perm])

    def test_manifold_mismatch(self):
        alpha = ContactFormRep(uniform_manifold(64), np.zeros(64))
        other = ContactMapRep(uniform_manifold(32), np.arange(32), np.zeros(32))
        with pytest.raises(InvalidInputError):
            pullback(alpha, other)

    def test_non_bijective_map_rejected(self):
        m = uniform_manifold(64)
        head = np.arange(63)
        # all equal, a repeat that misses site 63, one past the end, one negative
        for perm in (np.zeros(64, dtype=int), np.r_[head, 61], np.r_[head, 64], np.arange(-1, 63)):
            with pytest.raises(InvalidInputError):
                ContactMapRep(m, perm, np.zeros(64))
            with pytest.raises(InvalidInputError):
                ContactMapRep.measure_compatible(m, perm)


class TestUpperBound:
    def test_identity_candidate_gives_sup_norm(self):
        m = uniform_manifold()
        rng = item_rng(SEED, 2)
        f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        f2 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        assert dcbm_forms_upper(f1, f2) == float(np.max(np.abs(f1.f - f2.f)))

    def test_equal_forms(self):
        m = uniform_manifold()
        f = ContactFormRep(m, np.linspace(-2, 2, m.sites))
        assert dcbm_forms_upper(f, f) == 0.0

    def test_exact_matching_candidate_collapses_to_zero(self):
        m = random_manifold(item_rng(SEED, 3))
        rng = item_rng(SEED, 4)
        f2 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        cand = ContactMapRep.measure_compatible(m, rng.permutation(m.sites))
        f1 = pullback(f2, cand)
        assert dcbm_forms_upper(f1, f2, [cand]) == 0.0


class TestVolumes:
    def test_flat_form_volume(self):
        m = random_manifold(item_rng(SEED, 5), half_dim=3)
        form = ContactFormRep(m, np.zeros(m.sites))
        assert w_alpha_volume(form) == pytest.approx(float(np.sum(m.weights)) / 3.0, rel=1e-15)

    def test_rescaling_scales_by_capacity_power(self):
        m = random_manifold(item_rng(SEED, 6), half_dim=2)
        rng = item_rng(SEED, 7)
        form = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        for c in (2.0, math.e):
            assert w_alpha_volume(form.rescaled(c)) == pytest.approx(
                c**2 * w_alpha_volume(form), rel=1e-12
            )

    def test_monotone_under_pointwise_order(self):
        m = uniform_manifold()
        rng = item_rng(SEED, 8)
        f1 = ContactFormRep(m, rng.uniform(-1, 0, m.sites))
        f2 = ContactFormRep(m, f1.f + rng.uniform(0, 1, m.sites))
        assert np.all(f1.f <= f2.f)
        assert w_alpha_volume(f1) <= w_alpha_volume(f2)

    def test_matches_brute_force_quadrature(self):
        m = random_manifold(item_rng(SEED, 9), sites=16, half_dim=2)
        rng = item_rng(SEED, 10)
        form = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        assert w_alpha_volume(form) == pytest.approx(brute_force_volume(form), rel=1e-6)


class TestLowerBound:
    def test_rescaling_pins_log_constant(self):
        m = random_manifold(item_rng(SEED, 11))
        rng = item_rng(SEED, 12)
        f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        for c in (2.0, math.e, 10.0):
            assert abs(dcbm_forms_lower_volume(f1, f1.rescaled(c)) - math.log(c)) <= 1e-9

    def test_equal_forms_give_zero(self):
        m = uniform_manifold()
        f = ContactFormRep(m, np.linspace(-1, 1, m.sites))
        assert dcbm_forms_lower_volume(f, f) == 0.0

    def test_half_dim_two_quadrupled_mass(self):
        # with e^{2 f2} == 4 everywhere the volumes differ by 4 = 2^(n'),
        # so the bound reads ln 2
        m = uniform_manifold(half_dim=2)
        f1 = ContactFormRep(m, np.zeros(m.sites))
        f2 = ContactFormRep(m, np.full(m.sites, math.log(2.0)))
        assert np.sum(np.exp(2 * f2.f) * m.weights) == pytest.approx(
            4.0 * np.sum(m.weights), rel=1e-15
        )
        assert dcbm_forms_lower_volume(f1, f2) == pytest.approx(math.log(2.0), abs=1e-12)


class TestConsistencyAndAxioms:
    def test_lower_below_upper_on_random_pairs(self):
        rng = item_rng(SEED, 13)
        m = random_manifold(rng)
        candidates = [
            ContactMapRep.measure_compatible(m, rng.permutation(m.sites)) for _ in range(4)
        ]
        for _ in range(50):
            f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
            f2 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
            report = dcbm_forms(f1, f2, candidates)
            assert report.lower <= report.upper + 1e-12

    def test_pinch_certifies_rescaling_distance(self):
        rng = item_rng(SEED, 14)
        m = random_manifold(rng)
        f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        for c in (2.0, math.e, 10.0):
            report = dcbm_forms(f1, f1.rescaled(c))
            assert abs(report.upper - math.log(c)) <= 1e-9
            assert abs(report.lower - math.log(c)) <= 1e-9
            assert report.pinched

    def _rotation_group(self, m):
        n = m.sites
        return [ContactMapRep(m, np.roll(np.arange(n), k), np.zeros(n)) for k in range(n)]

    def test_pseudo_metric_axioms_over_rotation_group(self):
        m = uniform_manifold(sites=32)
        group = self._rotation_group(m)
        rng = item_rng(SEED, 15)
        for _ in range(10):
            f1, f2, f3 = (
                ContactFormRep(m, rng.uniform(-1, 1, m.sites)) for _ in range(3)
            )
            d12 = dcbm_forms_upper(f1, f2, group)
            d21 = dcbm_forms_upper(f2, f1, group)
            d23 = dcbm_forms_upper(f2, f3, group)
            d13 = dcbm_forms_upper(f1, f3, group)
            assert dcbm_forms_upper(f1, f1, group) == 0.0
            assert d12 == d21  # group is closed under inversion
            assert d13 <= d12 + d23 + 1e-12

    def test_invariance_under_common_pullback(self):
        m = uniform_manifold(sites=32)
        group = self._rotation_group(m)
        rng = item_rng(SEED, 16)
        f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        f2 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        mu = group[7]
        before = dcbm_forms_upper(f1, f2, group)
        after = dcbm_forms_upper(pullback(f1, mu), pullback(f2, mu), group)
        assert after == before
