import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab import forms
from cbmlab.acceptance import QUANTUM, item_rng
from cbmlab.errors import InvalidInputError, InvariantViolation, rounding_bound
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


def forms_tol(f1, f2, lower, candidates=True):
    """dcbm_forms' tolerance: gamma_5 F + gamma_3 lower + (gamma_12 L + gamma_(2N+8))/n', with
    F = max(|f1|, |f2|), L = max |ln w|, dropped without candidates, and N sites."""
    m, magnitude = f1.manifold, max(np.abs(f1.f).max(), np.abs(f2.f).max())
    logs = rounding_bound(12) * np.abs(np.log(m.weights)).max() if candidates else 0.0
    logs += rounding_bound(2 * m.sites + 8)
    return float(rounding_bound(5) * magnitude + rounding_bound(3) * lower + logs / m.half_dim)


def pullback_drift_bound(alpha, moved, lower):
    """The rounding bound of the volume lower bound between a form and its pullback, whose exact
    value is 0: gamma_3 F + gamma_3 lower + (gamma_8 L + gamma_(2N+8))/n'. The derived g is 8uL/n'
    off and f o phi + g rounds once, uF; each volume is N + 3 roundings and n' f, 2uF for both,
    off, and the log and the division add 3u lower (u = 2^-53, log within an ulp)."""
    m, magnitude = alpha.manifold, max(np.abs(alpha.f).max(), np.abs(moved.f).max())
    logs = rounding_bound(8) * np.abs(np.log(m.weights)).max() + rounding_bound(2 * m.sites + 8)
    return float(rounding_bound(3) * magnitude + rounding_bound(3) * lower + logs / m.half_dim)


@st.composite
def form_and_maps(draw):
    """A form on random weights (ln w in [-5, 5]) and one to three candidate maps."""
    sites = draw(st.integers(1, 40))
    samples = lambda bound: st.lists(st.floats(-bound, bound), min_size=sites, max_size=sites)
    m = SampledManifold(np.exp(draw(samples(5.0))), draw(st.integers(1, 5)))
    perms = draw(st.lists(st.permutations(range(sites)), min_size=1, max_size=3))
    return ContactFormRep(m, draw(samples(3.0))), [ContactMapRep(m, p) for p in perms]


def brute_force_volume(form, u_samples=200_000):
    """Independent quadrature: integrate u^(n'-1) du numerically per site."""
    n = form.manifold.half_dim
    total = 0.0
    for f_i, w_i in zip(form.f, form.manifold.weights):
        u = np.linspace(0.0, math.exp(f_i), u_samples)
        total += float(np.trapezoid(u ** (n - 1), u)) * w_i
    return total


def test_a_manifold_without_sites_is_rejected():
    with pytest.raises(InvalidInputError, match="^weights must form a nonempty vector$"):
        SampledManifold([], half_dim=1)


def test_a_form_needs_one_sample_per_site():
    for f in (np.zeros(3), np.zeros(5)):
        with pytest.raises(InvalidInputError, match="^f must have one sample per site$"):
            ContactFormRep(uniform_manifold(4), f)


class TestPullback:
    def test_identity_with_zero_factor(self):
        m = uniform_manifold()
        rng = item_rng(SEED, 0)
        alpha = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        same = pullback(alpha, ContactMapRep(m, np.arange(m.sites)))
        assert np.array_equal(same.f, alpha.f)

    def test_exponent_is_derived_from_the_weights(self):
        m = random_manifold(item_rng(SEED, 17), half_dim=3)
        perm = item_rng(SEED, 18).permutation(m.sites)
        g = ContactMapRep(m, perm).g
        logw = np.log(m.weights)
        assert np.array_equal(g, (logw[perm] - logw) / 3)
        assert not g.flags.writeable
        with pytest.raises(TypeError):
            ContactMapRep(m, perm, np.zeros(m.sites))  # a map is its permutation

    @settings(max_examples=200, deadline=None)
    @given(form_and_maps())
    def test_derived_exponent_preserves_the_subgraph_volume(self, case):
        alpha, maps = case
        for m in maps:
            moved = pullback(alpha, m)
            lower = abs(math.log(w_alpha_volume(moved) / w_alpha_volume(alpha))) / alpha.manifold.half_dim
            assert lower <= pullback_drift_bound(alpha, moved, lower)

    def test_pure_permutation_permutes(self):
        m = uniform_manifold()
        rng = item_rng(SEED, 1)
        alpha = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        perm = rng.permutation(m.sites)
        moved = pullback(alpha, ContactMapRep(m, perm))
        assert np.array_equal(moved.f, alpha.f[perm])

    def test_manifold_mismatch(self):
        alpha = ContactFormRep(uniform_manifold(64), np.zeros(64))
        other = ContactMapRep(uniform_manifold(32), np.arange(32))
        with pytest.raises(InvalidInputError):
            pullback(alpha, other)

    def test_non_bijective_map_rejected(self):
        m = uniform_manifold(64)
        head = np.arange(63)
        # all equal, a repeat that misses site 63, one past the end, one negative
        for perm in (np.zeros(64, dtype=int), np.r_[head, 61], np.r_[head, 64], np.arange(-1, 63)):
            with pytest.raises(InvalidInputError):
                ContactMapRep(m, perm)

    def test_a_permutation_is_integers(self):
        # floats are not truncated, bools not read as 0 and 1, strings not parsed
        m = uniform_manifold(2)
        for perm in (
            [1.5, 0.2], [1.0, 0.0], [True, False], [1, False], [True, 0], ["1", "0"], np.array([1, 0], dtype=object)
        ):
            with pytest.raises(InvalidInputError, match="array of integers"):
                ContactMapRep(m, perm)
        for perm in ([1, 0], np.array([1, 0], dtype=np.uint8)):
            assert ContactMapRep(m, perm).perm.tolist() == [1, 0]


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
        cand = ContactMapRep(m, rng.permutation(m.sites))
        f1 = pullback(f2, cand)
        assert dcbm_forms_upper(f1, f2, [cand]) == 0.0

    def test_candidate_on_another_manifold_rejected(self):
        f = ContactFormRep(uniform_manifold(64), np.zeros(64))
        for other in (uniform_manifold(32), uniform_manifold(64, half_dim=3)):
            with pytest.raises(InvalidInputError, match="different sampled manifolds"):
                dcbm_forms_upper(f, f, [ContactMapRep(other, np.arange(other.sites))])


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

    def test_rescaling_constant_must_be_positive_and_may_be_below_one(self):
        form = ContactFormRep(uniform_manifold(), np.linspace(-1.0, 1.0, 64))
        with pytest.raises(InvalidInputError, match="^rescaling constant must be a finite number > 0, got 0.0$"):
            form.rescaled(0)
        assert np.array_equal(form.rescaled(0.5).f, form.f + math.log(0.5))

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
        candidates = [ContactMapRep(m, rng.permutation(m.sites)) for _ in range(4)]
        for _ in range(50):
            f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
            f2 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
            report = dcbm_forms(f1, f2, candidates)
            assert report.lower <= report.upper + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(form_and_maps(), st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-13, 1e-9, 1.0]), st.data())
    def test_bracket_holds_on_pinched_near_pinched_and_random_pairs(self, case, c, spread, data):
        # f2 = phi^* f1 + c + noise; the inverse of phi pulls it back to f1 + c + noise
        f1, maps = case
        m = f1.manifold
        noise = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=m.sites, max_size=m.sites)))
        f2 = ContactFormRep(m, pullback(f1, maps[0]).f + c + spread * noise)
        inverse = ContactMapRep(m, np.argsort(maps[0].perm))
        report = dcbm_forms(f1, f2, maps + [inverse])  # raises if lower > upper + tol
        assert report.pinched or spread > 0.0

    def test_crossed_bracket_is_an_invariant_violation(self, monkeypatch):
        # a volume that ignores f puts lower at ln 2 / n' over the identity's upper 0
        m = uniform_manifold()
        f1, f2 = (ContactFormRep(m, np.zeros(m.sites)) for _ in range(2))
        monkeypatch.setattr(forms, "w_alpha_volume", lambda alpha: 2.0 if alpha is f1 else 1.0)
        with pytest.raises(InvariantViolation, match="forms bracket crossed"):
            dcbm_forms(f1, f2)

    def test_a_bracket_crossed_past_tol_is_a_violation_and_one_within_it_is_not(self, monkeypatch):
        # upper substituted at the least double that lower <= upper + tol accepts, and at the double below it
        rng = item_rng(SEED, 20)
        m = random_manifold(rng)
        f1, f2 = (ContactFormRep(m, rng.uniform(-1, 1, m.sites)) for _ in range(2))
        report = dcbm_forms(f1, f2)
        lower, tol = report.lower, report.tol
        assert tol == forms_tol(f1, f2, lower, candidates=False)
        assert dcbm_forms(f1, f2, [ContactMapRep(m, np.arange(m.sites))]).tol == forms_tol(f1, f2, lower)
        upper = lower - tol
        while lower > upper + tol:
            upper = math.nextafter(upper, math.inf)
        while not lower > math.nextafter(upper, -math.inf) + tol:
            upper = math.nextafter(upper, -math.inf)
        monkeypatch.setattr(forms, "dcbm_forms_upper", lambda *args: upper)
        assert dcbm_forms(f1, f2).upper == upper
        monkeypatch.setattr(forms, "dcbm_forms_upper", lambda *args: math.nextafter(upper, -math.inf))
        with pytest.raises(InvariantViolation, match="forms bracket crossed"):
            dcbm_forms(f1, f2)

    @pytest.mark.parametrize("f1_value, f2_value", [(800.0, 0.0), (0.0, 800.0), (800.0, 800.0), (0.0, -800.0)])
    def test_a_bad_volume_ratio_is_rejected_before_any_candidate(self, monkeypatch, f1_value, f2_value):
        # a volume overflows to inf or underflows to 0, so the ratio is inf, nan or 0
        m = uniform_manifold(half_dim=1)
        f1, f2 = ContactFormRep(m, np.full(m.sites, f1_value)), ContactFormRep(m, np.full(m.sites, f2_value))
        candidates = [ContactMapRep(m, np.roll(np.arange(m.sites), k)) for k in range(1, 4)]
        pulled = []
        monkeypatch.setattr(forms, "pullback", lambda alpha, phi: pulled.append(phi) or pullback(alpha, phi))
        with pytest.raises(InvalidInputError, match="volume ratio is not a positive finite double"):
            dcbm_forms(f1, f2, candidates)
        assert pulled == []

    def test_pinch_certifies_rescaling_distance(self):
        rng = item_rng(SEED, 14)
        m = random_manifold(rng)
        f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        for c in (2.0, math.e, 10.0):
            f2 = f1.rescaled(c)
            report = dcbm_forms(f1, f2)
            # each end within the report's tol, and the rounding of f1 + ln c, of ln c
            bound = report.tol + math.ulp(float(np.abs(f2.f).max())) / 2
            assert abs(report.upper - math.log(c)) <= bound
            assert abs(report.lower - math.log(c)) <= bound
            assert report.pinched

    def test_a_gap_past_the_rounding_bound_is_not_pinched(self):
        # a rescaling with one exponent moved by 1e-11: upper moves by 1e-11, lower by its volume share of it
        rng = item_rng(SEED, 19)
        m = random_manifold(rng)
        f1 = ContactFormRep(m, rng.uniform(-1, 1, m.sites))
        f2 = f1.f + math.log(2.0)
        f2[0] += 1e-11
        report = dcbm_forms(f1, ContactFormRep(m, f2))
        assert not report.pinched
        assert report.tol < 1e-13 < 5e-12 < report.upper - report.lower

    def _rotation_group(self, m):
        n = m.sites
        return [ContactMapRep(m, np.roll(np.arange(n), k)) for k in range(n)]

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
