import dataclasses
import math

import numpy as np
import pytest

import cbmlab.domains as domains
from cbmlab.acceptance import QUANTUM, item_rng
from cbmlab.domains import (
    BoundInterval,
    SplitToricDomain,
    csh,
    dc_toric,
    dcbm_toric,
    hamiltonian_to_domain,
    is_squeezable_toric,
    rescale_cover,
    rgr_vs_cbm,
)
from cbmlab.errors import (
    InvalidInputError,
    InvariantViolation,
    PreconditionError,
    UnsupportedDomainError,
)
from cbmlab.starshape import DirectionGrid, RadialSet, ball, scale

GRID = DirectionGrid.uniform_circle(256)
SEED = 55  # Philox key of this file's draws


def random_fiber(rng, grid=GRID):
    return RadialSet(grid, rng.uniform(0.5, 2.0, grid.count))


def toric(fiber, label=""):
    return SplitToricDomain(2, fiber, 1.0, label)


class TestRescaleCover:
    def test_ball_capacity_quarters(self):
        u = SplitToricDomain(2, ball(math.sqrt(1.0 / math.pi), GRID), 0.5, "round")  # capacity 1
        shrunk = rescale_cover(u, 4)
        assert abs(math.pi * float(shrunk.fiber.radii[0]) ** 2 - 0.25) < 1e-15
        assert shrunk.cover == 4

    def test_identity(self):
        u = toric(random_fiber(item_rng(SEED, 0)))
        same = rescale_cover(u, 1)
        assert np.array_equal(same.fiber.radii, u.fiber.radii)
        assert same.cover == 1

    def test_split_domains_nest(self):
        u = toric(random_fiber(item_rng(SEED, 1)))
        half = rescale_cover(u, 2)
        assert np.array_equal(half.fiber.radii, scale(u.fiber, 1.0 / 2.0).radii)
        assert np.all(half.fiber.radii <= u.fiber.radii)  # U/2 inside U/1

    def test_composition_exact(self):
        u = toric(random_fiber(item_rng(SEED, 2)))
        chained = rescale_cover(rescale_cover(u, 3), 5)
        direct = rescale_cover(u, 15)
        assert np.array_equal(chained.fiber.radii, direct.fiber.radii)
        assert chained.cover == direct.cover == 15


class TestCsh:
    def test_returns_the_fiber(self):
        fiber = random_fiber(item_rng(SEED, 3))
        assert csh(toric(fiber)) is fiber

    def test_cover_rescale_equivariance_bitwise(self):
        u = toric(random_fiber(item_rng(SEED, 4)))
        for k in (2, 3, 7):
            assert np.array_equal(
                csh(rescale_cover(u, k)).radii, scale(csh(u), 1.0 / k).radii
            )

    def test_constant_rescale_equivariance_bitwise(self):
        fiber = random_fiber(item_rng(SEED, 5))
        for c in (2.5, 0.3, 4.0):
            assert np.array_equal(
                csh(toric(scale(fiber, c))).radii, scale(csh(toric(fiber)), c).radii
            )

    def test_cover_inclusion_with_equality(self):
        # the k-fold rescale recovers the invariant after scaling back up
        u = toric(random_fiber(item_rng(SEED, 6)))
        for k in (2, 5):
            back = scale(csh(rescale_cover(u, k)), float(k))
            assert np.allclose(back.radii, csh(u).radii, rtol=1e-14, atol=0.0)

    def test_non_toric_rejected(self):
        u = SplitToricDomain(2, ball(1.0, GRID), 0.5, "euclidean")
        with pytest.raises(UnsupportedDomainError):
            csh(u)


class TestDcbmToric:
    def test_nested_balls(self):
        interval = dcbm_toric(toric(ball(1.0, GRID)), toric(ball(2.0, GRID)))
        assert interval.lower == math.log(2.0)
        assert interval.upper == math.log(2.0)

    def test_self_interval_collapses_to_zero(self):
        u = toric(random_fiber(item_rng(SEED, 7)))
        interval = dcbm_toric(u, u)
        assert interval.lower == 0.0
        assert interval.upper == 0.0

    def test_upper_bounded_by_coarse_distance(self):
        rng = item_rng(SEED, 8)
        for _ in range(10):
            u, v = toric(random_fiber(rng)), toric(random_fiber(rng))
            interval = dcbm_toric(u, v)
            assert interval.upper <= dc_toric(u.fiber, v.fiber).value + 1e-12

    def test_interval_collapses_on_toric_pairs(self):
        rng = item_rng(SEED, 9)
        for _ in range(10):
            interval = dcbm_toric(toric(random_fiber(rng)), toric(random_fiber(rng)))
            assert interval.upper - interval.lower <= 1e-6

    def test_pseudo_metric_axioms(self):
        rng = item_rng(SEED, 10)
        for _ in range(10):
            u, v, w = (toric(random_fiber(rng)) for _ in range(3))
            duv = dcbm_toric(u, v)
            dvu = dcbm_toric(v, u)
            dvw = dcbm_toric(v, w)
            duw = dcbm_toric(u, w)
            assert dcbm_toric(u, u).upper == 0.0
            assert duv.upper == dvu.upper and duv.lower == dvu.lower
            assert duw.upper <= duv.upper + dvw.upper + 1e-12

    def test_relabeling_invariance(self):
        # permuting the direction grid consistently in both inputs is a
        # fiber-preserving relabeling and leaves the bracket unchanged
        rng = item_rng(SEED, 11)
        fiber_u, fiber_v = random_fiber(rng), random_fiber(rng)
        perm = rng.permutation(GRID.count)
        grid_p = DirectionGrid(
            2,
            GRID.directions[perm].copy(),
            GRID.weights[perm].copy(),
            GRID.angles[perm].copy(),
        )
        u_p = toric(RadialSet(grid_p, fiber_u.radii[perm]))
        v_p = toric(RadialSet(grid_p, fiber_v.radii[perm]))
        base = dcbm_toric(toric(fiber_u), toric(fiber_v))
        permuted = dcbm_toric(u_p, v_p)
        assert permuted.lower == base.lower
        assert permuted.upper == base.upper

    def test_non_triviality_scaling(self):
        u = toric(random_fiber(item_rng(SEED, 12)))
        for c in (2.0, 0.5, 3.3):
            interval = dcbm_toric(toric(scale(u.fiber, c)), u)
            assert abs(interval.lower - abs(math.log(c))) <= 1e-9
            assert abs(interval.upper - abs(math.log(c))) <= 1e-9

    def test_mismatches_rejected(self):
        u = toric(ball(1.0, GRID))
        with pytest.raises(InvalidInputError):
            dcbm_toric(u, SplitToricDomain(3, ball(1.0, GRID), 1.0))
        with pytest.raises(InvalidInputError):
            dcbm_toric(u, SplitToricDomain(2, ball(1.0, GRID), 0.5))
        with pytest.raises(UnsupportedDomainError):
            dcbm_toric(
                SplitToricDomain(2, ball(1.0, GRID), 0.5),
                SplitToricDomain(2, ball(2.0, GRID), 0.5),
            )


class TestDcToric:
    def test_nested_balls(self):
        assert dc_toric(ball(1.0, GRID), ball(2.0, GRID)).value == math.log(2.0)

    def test_identical_fibers(self):
        fiber = random_fiber(item_rng(SEED, 13))
        assert dc_toric(fiber, fiber).value == 0.0

    def test_rescaling_axis(self):
        fiber = random_fiber(item_rng(SEED, 14))
        for c in (2.0, 5.5):
            assert abs(dc_toric(scale(fiber, c), fiber).value - math.log(c)) <= 1e-12


class TestSqueezability:
    def test_round_toric_fibers_never_squeeze(self):
        for radius in (0.1, 1.0, 10.0):
            verdict = is_squeezable_toric(toric(ball(radius, GRID)))
            assert not verdict.squeezable
            assert "contradiction" in verdict.certificate

    def test_any_bounded_fiber_gets_certificate(self):
        verdict = is_squeezable_toric(toric(random_fiber(item_rng(SEED, 15))))
        assert not verdict.squeezable
        assert "shape invariant" in verdict.certificate

    def test_non_toric_base_unsupported(self):
        with pytest.raises(UnsupportedDomainError):
            is_squeezable_toric(SplitToricDomain(2, ball(1.0, GRID), 0.5))


class TestHamiltonianBridge:
    def test_unit_generator_gives_unit_ball(self):
        result = hamiltonian_to_domain(np.ones(128))
        assert np.all(result.fiber.radii == 1.0)
        assert result.m_minus == result.m_plus == 1.0
        assert result.s_empty == result.s_full == 1.0

    def test_doubling_halves_radii_bitwise(self):
        rng = item_rng(SEED, 16)
        h = rng.uniform(0.5, 2.0, 128)
        base = hamiltonian_to_domain(h)
        doubled = hamiltonian_to_domain(2.0 * h, base.fiber.grid)
        assert np.array_equal(doubled.fiber.radii, base.fiber.radii / 2.0)

    def test_slices_and_thresholds(self):
        h = np.linspace(0.5, 2.0, 64)
        result = hamiltonian_to_domain(h)
        assert np.array_equal(result.fiber.radii, 1.0 / h)
        assert result.m_minus == 0.5 and result.m_plus == 2.0
        assert result.s_empty == 2.0 and result.s_full == 0.5

    def test_antitone_in_the_generator(self):
        rng = item_rng(SEED, 17)
        h1 = rng.uniform(0.5, 1.5, 64)
        h2 = h1 + rng.uniform(0.0, 1.0, 64)
        d1 = hamiltonian_to_domain(h1)
        d2 = hamiltonian_to_domain(h2, d1.fiber.grid)
        assert np.all(d2.fiber.radii <= d1.fiber.radii)

    def test_positivity_required(self):
        with pytest.raises(PreconditionError):
            hamiltonian_to_domain(np.zeros(64))
        bad = np.ones(64)
        bad[5] = -0.25
        with pytest.raises(PreconditionError):
            hamiltonian_to_domain(bad)


class TestRgrVsCbm:
    def test_equal_generators(self):
        h = np.full(64, 1.5)
        report = rgr_vs_cbm(h, h, l_max=200)
        assert report.d_order == 0.0
        assert report.d_cbm == 0.0
        assert report.d_order >= report.d_cbm - report.tol

    def test_constant_doubling(self):
        report = rgr_vs_cbm(np.ones(64), np.full(64, 2.0), l_max=400)
        assert report.d_order == math.log(2.0)
        assert abs(report.d_cbm - math.log(2.0)) <= 1e-12
        assert report.gap <= 3.0 / 400

    def test_random_pairs_equality_within_tolerance(self):
        rng = item_rng(SEED, 18)
        for _ in range(20):
            h1 = rng.integers(round(0.5 / QUANTUM), round(2.5 / QUANTUM), 64) * QUANTUM
            h2 = rng.integers(round(0.5 / QUANTUM), round(2.5 / QUANTUM), 64) * QUANTUM
            report = rgr_vs_cbm(h1, h2, l_max=500)
            assert report.d_order >= report.d_cbm - report.tol
            assert report.gap <= 3.0 / 500

    def test_site_mismatch(self):
        with pytest.raises(InvalidInputError):
            rgr_vs_cbm(np.ones(64), np.ones(128))
        with pytest.raises(InvalidInputError):
            rgr_vs_cbm(1.0, 2.0)

    @pytest.mark.parametrize(
        "offset, message", [(-2.0, "fell below"), (2.0, "commuting-model equality")]
    )
    def test_order_distance_off_the_domain_distance_is_a_violation(self, offset, message, monkeypatch):
        # equal generators give d_cbm = 0 and tol = 3 / 200; a substituted
        # order distance two tolerances below it fails both checks, two above
        # it only the equality
        real = domains.growth_distance

        def shifted(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, distance=report.distance + offset * 3.0 / 200)

        monkeypatch.setattr(domains, "growth_distance", shifted)
        h = np.full(64, 1.5)
        with pytest.raises(InvariantViolation, match=message):
            rgr_vs_cbm(h, h, l_max=200)


def test_crossed_bounds_are_a_violation():
    with pytest.raises(InvariantViolation, match="crossed"):
        BoundInterval(1.0, 0.0, "", "")
