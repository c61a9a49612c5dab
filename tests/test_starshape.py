import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab.acceptance import item_rng
from cbmlab.errors import InvalidInputError
from cbmlab.starshape import (
    MAX_GRID_COUNT,
    DirectionGrid,
    RadialSet,
    SkeletonSpec,
    ball,
    ball_of_capacity,
    centered_square,
    delta,
    log_delta,
    lshape,
    lshape_array,
    qi_verify,
    scale,
    scale_pow,
    skeleton_region,
    sphere_area,
    volume,
)

GRID = DirectionGrid.uniform_circle(1024)
SEED = 99  # Philox key of this file's draws


def random_set(rng, grid=GRID, lo=0.5, hi=2.0):
    return RadialSet(grid, rng.uniform(lo, hi, grid.count))


class TestGrids:
    def test_count_floor(self):
        with pytest.raises(InvalidInputError):
            DirectionGrid.uniform_circle(32)

    def test_grid_counts_past_the_cap_are_rejected_before_allocation(self):
        spec = SkeletonSpec(np.zeros(4), 10.0, 1.0)
        for count in (-1, MAX_GRID_COUNT + 1, 10**20):
            with pytest.raises(InvalidInputError, match="grid count"):
                DirectionGrid.uniform_circle(count)
            with pytest.raises(InvalidInputError, match="grid count"):
                skeleton_region(spec, base_count=count)

    def test_sphere_area_past_the_gamma_overflow(self):
        # gamma(d/2) overflows from d = 344; the lgamma form must continue the
        # recurrence A(d + 2) = 2 pi A(d) / d until the area leaves the normal doubles
        assert sphere_area(343) == 2.0 * math.pi**171.5 / math.gamma(171.5)
        with pytest.raises(OverflowError):
            math.gamma(172.0)
        for d in (344, 438):
            assert sphere_area(d) == pytest.approx(2.0 * math.pi * sphere_area(d - 2) / (d - 2), rel=1e-12)
        assert sphere_area(438) >= sys.float_info.min
        with pytest.raises(InvalidInputError, match="underflows"):
            sphere_area(439)

    def test_weights_cover_circle(self):
        assert abs(float(np.sum(GRID.weights)) - 2 * math.pi) < 1e-12

    def test_sphere_weights_cover_sphere(self):
        grid = DirectionGrid.sphere(512, 3)
        assert abs(float(np.sum(grid.weights)) - 4 * math.pi) < 1e-9

    def test_from_directions_keeps_the_callers_order(self):
        perm = item_rng(SEED, 12).permutation(GRID.count)
        grid = DirectionGrid.from_directions(GRID.directions[perm])
        assert np.array_equal(grid.directions, GRID.directions[perm])
        # planar weights are the half-gap arcs of the sorted angles, scattered back
        order = np.argsort(grid.angles, kind="stable")
        assert np.array_equal(grid.weights[order], DirectionGrid.from_angles(grid.angles).weights)
        sphere = DirectionGrid.sphere(256, 3)
        grid3 = DirectionGrid.from_directions(sphere.directions[::-1])
        assert np.array_equal(grid3.weights, sphere.weights)  # equal weights, area / count

    def test_from_directions_rejects_bad_grids(self):
        doubled = np.concatenate([GRID.directions, GRID.directions[:1]])
        few = DirectionGrid.sphere(256, 3).directions[:8]
        for directions in (doubled, GRID.directions[0], np.zeros((64, 0)), few):
            with pytest.raises(InvalidInputError):
                DirectionGrid.from_directions(directions)

    def test_unit_ball_volumes(self):
        assert abs(volume(ball(1.0, GRID)) - math.pi) / math.pi < 0.005
        grid3 = DirectionGrid.sphere(2048, 3)
        target3 = 4.0 * math.pi / 3.0
        assert abs(volume(ball(1.0, grid3)) - target3) / target3 < 0.01
        grid4 = DirectionGrid.sphere(4096, 4)
        target4 = math.pi**2 / 2.0
        assert abs(volume(ball(1.0, grid4)) - target4) / target4 < 0.05


class TestDelta:
    def test_nested_balls(self):
        assert delta(ball(1.0, GRID), ball(2.0, GRID)) == 2.0

    def test_self_distance_is_one(self):
        a = random_set(item_rng(SEED, 0))
        assert delta(a, a) == 1.0

    def test_square_against_disk(self):
        # sup of the square's radial function over the disk's is sqrt(2) on
        # the diagonals; the reverse sup is 1
        value = delta(centered_square(1.0, GRID), ball(1.0, GRID))
        assert abs(value - math.sqrt(2.0)) <= 1e-3

    def test_grid_mismatch(self):
        other = DirectionGrid.uniform_circle(512)
        with pytest.raises(InvalidInputError):
            delta(ball(1.0, GRID), ball(1.0, other))

    def test_dyadic_scaling_axis_exact(self):
        a = random_set(item_rng(SEED, 1))
        for c in (2.0, 0.5, 8.0, 1.0 / 16.0):
            assert log_delta(scale(a, c), a) == abs(math.log(c))

    def test_generic_scaling_axis(self):
        a = random_set(item_rng(SEED, 2))
        for c in (3.7, 0.9, 1.0001):
            assert abs(log_delta(scale(a, c), a) - abs(math.log(c))) < 1e-12

    def test_multiplicative_pseudo_metric(self):
        rng = item_rng(SEED, 3)
        for _ in range(30):
            a, b, c = (random_set(rng) for _ in range(3))
            assert delta(a, b) == delta(b, a)
            assert delta(a, c) <= delta(a, b) * delta(b, c) * (1 + 1e-12)


class TestScaling:
    def test_capacity_quarter(self):
        # round fiber of capacity R, weight 1/2, covering index 4
        a = ball_of_capacity(1.0, GRID)
        shrunk = scale_pow(a, 4, 0.5)
        capacity = math.pi * float(shrunk.radii[0]) ** 2
        assert abs(capacity - 0.25) < 1e-15

    def test_identity_rescale(self):
        a = random_set(item_rng(SEED, 4))
        assert np.array_equal(scale_pow(a, 1, 0.5).radii, a.radii)

    def test_weight_one_is_plain_division(self):
        a = random_set(item_rng(SEED, 5))
        assert np.array_equal(scale_pow(a, 3, 1.0).radii, scale(a, 1.0 / 3.0).radii)

    def test_rescale_composition_exact(self):
        a = random_set(item_rng(SEED, 6))
        for lam in (1.0, 0.5, 0.3):
            chained = scale_pow(scale_pow(a, 3, lam), 7, lam)
            direct = scale_pow(a, 21, lam)
            assert np.array_equal(chained.radii, direct.radii)


class TestVolume:
    def test_dyadic_homogeneity_exact(self):
        a = random_set(item_rng(SEED, 7))
        for c in (2.0, 0.25):
            assert volume(scale(a, c)) == c**2 * volume(a)

    def test_generic_homogeneity(self):
        a = random_set(item_rng(SEED, 8))
        c = 1.7
        assert abs(volume(scale(a, c)) - c**2 * volume(a)) < 1e-12 * volume(a)


class TestLShape:
    def test_anchors(self):
        assert lshape([0]) == [1, 1]
        assert lshape([-2]) == [1, 3]
        assert lshape([3]) == [4, 1]

    def test_mixed_branch_pair(self):
        x, y = [3], [-1]
        gap = max(abs(a - b) for a, b in zip(lshape(x), lshape(y)))
        assert gap == 3
        assert 0.5 * 4 <= gap <= 4

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-100, max_value=100), min_size=1, max_size=5),
        st.lists(st.fractions(min_value=-100, max_value=100), min_size=1, max_size=5),
    )
    def test_distortion_bounds_exact(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        gap_in = max(abs(a - b) for a, b in zip(xs, ys))
        gap_out = max(abs(a - b) for a, b in zip(lshape(xs), lshape(ys)))
        assert Fraction(1, 2) * gap_in <= gap_out <= gap_in

    def test_distortion_bounds_seeded_bulk(self):
        rng = item_rng(SEED, 9)
        for _ in range(10_000):
            x = [Fraction(int(v), 64) for v in rng.integers(-640, 640, 3)]
            y = [Fraction(int(v), 64) for v in rng.integers(-640, 640, 3)]
            gap_in = max(abs(a - b) for a, b in zip(x, y))
            gap_out = max(abs(a - b) for a, b in zip(lshape(x), lshape(y)))
            assert Fraction(1, 2) * gap_in <= gap_out <= gap_in


class TestSkeleton:
    def test_width_normalization_example(self):
        spec = SkeletonSpec(np.zeros(4), 10.0, 1.0)
        assert spec.epsilon == 1.0 / (10.0 * 4.0)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(InvalidInputError):
            SkeletonSpec(np.zeros(4), 10.0, 0.0)
        with pytest.raises(InvalidInputError):
            SkeletonSpec(np.zeros(3), 10.0, 1.0)

    def test_spoke_tip_radius(self):
        v = np.array([0.3, 1.2, 0.0, 2.0, 0.7, 1.1])
        spec = SkeletonSpec(v, 10.0, 1.0)
        region = skeleton_region(spec)
        angles = region.grid.angles
        for phi, length in zip(spec.spoke_angles, spec.spoke_lengths):
            idx = int(np.argmin(np.abs(angles - phi)))
            assert angles[idx] == phi
            assert region.radii[idx] == length

    def test_self_delta_is_one(self):
        spec = SkeletonSpec(np.array([0.5, 1.0, 0.0, 0.25]), 10.0, 1.0)
        region = skeleton_region(spec)
        assert delta(region, region) == 1.0

    def test_volume_matches_target_within_five_percent(self):
        rng = item_rng(SEED, 10)
        for v in (np.zeros(6), rng.uniform(0.0, 4.0, 6), rng.uniform(0.0, 4.0, 6)):
            region = skeleton_region(SkeletonSpec(v, 10.0, 1.0))
            assert abs(volume(region) - 1.0) <= 0.05

    def test_wide_skeleton_warns(self):
        with pytest.warns(UserWarning):
            skeleton_region(SkeletonSpec(np.zeros(4), 1.5, 10.0))


class TestQiVerify:
    def test_equal_vectors(self):
        v = np.array([1.0, 2.0, 0.5, 0.0, 3.0, 1.5])
        report = qi_verify(v, v)
        assert report.log_delta == 0.0
        assert report.passed

    def test_single_coordinate_bump(self):
        v = np.array([1.0, 2.0, 0.5, 0.0, 3.0, 1.5])
        w = v.copy()
        w[2] += 1.0
        report = qi_verify(v, w)
        assert 1.0 - 0.01 <= report.log_delta <= 1.0 + math.log(1.5)
        assert abs(report.log_delta - 1.0) < 1e-9
        assert report.passed

    def test_composed_with_lshape(self):
        rng = item_rng(SEED, 11)
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, 3)
            y = rng.uniform(-3.0, 3.0, 3)
            report = qi_verify(lshape_array(x), lshape_array(y))
            gap = float(np.max(np.abs(x - y)))
            assert report.log_delta >= 0.5 * gap - 1e-9
            assert report.log_delta <= gap + 1e-9

    def test_spoke_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            qi_verify(np.zeros(4), np.zeros(6))
