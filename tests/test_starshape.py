import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cbmlab.starshape as starshape
from cbmlab.acceptance import item_rng
from cbmlab.errors import InvalidInputError
from cbmlab.serialize import dumps_report, radial_set_to_dict
from cbmlab.starshape import (
    MAX_GRID_COUNT,
    DirectionGrid,
    QiReport,
    RadialSet,
    SkeletonSpec,
    ball,
    centered_square,
    delta,
    log_delta,
    lshape_array,
    qi_verify,
    scale,
    scale_pow,
    skeleton_angles,
    skeleton_region,
    sphere_area,
)

GRID = DirectionGrid.uniform_circle(1024)
SEED = 99  # Philox key of this file's draws


def polar_volume(a):
    """Reference polar quadrature (1/n) * sum r_i^n w_i over the direction grid."""
    n = a.grid.dimension
    return float(np.sum(a.radii**n * a.grid.weights) / n)


def lshape_exact(x):
    """Reference hockey-stick embedding that keeps the scalar type, so
    Fraction inputs stay exact: (1 + x, 1) for x >= 0, (1, 1 - x) for x < 0."""
    out = []
    for xi in x:
        out.extend((1, 1 - xi) if xi < 0 else (1 + xi, 1))
    return out


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
        assert abs(polar_volume(ball(1.0, GRID)) - math.pi) / math.pi < 0.005
        grid3 = DirectionGrid.sphere(2048, 3)
        target3 = 4.0 * math.pi / 3.0
        assert abs(polar_volume(ball(1.0, grid3)) - target3) / target3 < 0.01
        grid4 = DirectionGrid.sphere(4096, 4)
        target4 = math.pi**2 / 2.0
        assert abs(polar_volume(ball(1.0, grid4)) - target4) / target4 < 0.05


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
        a = ball(math.sqrt(1.0 / math.pi), GRID)
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


class TestLShape:
    def test_anchors(self):
        assert lshape_array([0]).tolist() == [1, 1]
        assert lshape_array([-2]).tolist() == [1, 3]
        assert lshape_array([3]).tolist() == [4, 1]

    def test_mixed_branch_pair(self):
        x, y = [3], [-1]
        gap = float(np.max(np.abs(lshape_array(x) - lshape_array(y))))
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
        gap_out = max(abs(a - b) for a, b in zip(lshape_exact(xs), lshape_exact(ys)))
        assert Fraction(1, 2) * gap_in <= gap_out <= gap_in

    def test_distortion_bounds_seeded_bulk(self):
        rng = item_rng(SEED, 9)
        for _ in range(10_000):
            x = [Fraction(int(v), 64) for v in rng.integers(-640, 640, 3)]
            y = [Fraction(int(v), 64) for v in rng.integers(-640, 640, 3)]
            gap_in = max(abs(a - b) for a, b in zip(x, y))
            gap_out = max(abs(a - b) for a, b in zip(lshape_exact(x), lshape_exact(y)))
            assert Fraction(1, 2) * gap_in <= gap_out <= gap_in

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6))
    def test_array_matches_the_exact_reference_bit_for_bit(self, xs):
        expected = np.array(lshape_exact(xs), dtype=float)
        assert lshape_array(xs).tobytes() == expected.tobytes()


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
            assert abs(polar_volume(region) - 1.0) <= 0.05

    def test_wide_skeleton_warns(self):
        with pytest.warns(UserWarning):
            skeleton_region(SkeletonSpec(np.zeros(4), 1.5, 10.0))

    def test_non_finite_or_underflowing_spec_rejected(self):
        cases = [
            (np.zeros(4), math.inf, 1.0),
            (np.zeros(4), math.nan, 1.0),
            (np.zeros(4), 10.0, math.inf),
            (np.array([1e308, 1.0, 1.0, 1.0]), 10.0, 1.0),  # e^v overflows
            (np.ones(4), 1e308, 1.0),  # c0 * e^v overflows
            (np.zeros(4), 10.0, 1e-320),  # the width is subnormal
            (np.zeros(4), 1e200, 1.0),  # the width is normal, its corner angle underflows
            (np.full(4, -1000.0), 10.0, 1.0),  # every spoke has length 0
        ]
        for v, c0, target_volume in cases:
            with pytest.raises(InvalidInputError):
                SkeletonSpec(v, c0, target_volume)

    def test_narrow_corner_angles_still_sample(self):
        # width 2.5e-151 at spokes of length 1e150: the corner angles stay normal
        spec = SkeletonSpec(np.zeros(4), 1e150, 1.0)
        region = skeleton_region(spec)
        assert np.max(region.radii) == 1e150
        assert delta(region, region) == 1.0


class TestQiVerify:
    def test_equal_vectors(self):
        v = np.array([1.0, 2.0, 0.5, 0.0, 3.0, 1.5])
        report = qi_verify(v, v)
        assert report.log_delta == 0.0
        assert report.passed

    def test_c1_and_tol_out_of_range_rejected(self):
        v = np.zeros(4)
        for kwargs in (
            {"c1": 0.0},
            {"c1": -1.0},
            {"c1": math.inf},
            {"c1": math.nan},
            {"tol": math.nan},
            {"tol": -math.inf},
        ):
            with pytest.raises(InvalidInputError):
                qi_verify(v, v, **kwargs)

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

    def test_each_wide_skeleton_warns(self):
        with pytest.warns(UserWarning) as record:
            qi_verify(np.zeros(4), np.full(4, 0.1), c0=1.5, target_volume=10.0)
        assert len(record) == 2


# -- the skeleton harness before it ran on one angle array, kept as the reference --


def _reference_skeleton_angles(spec, base_count=1024, fan=48):
    m = spec.v.size
    half_gap = math.pi / m / 2.0
    pieces = [2.0 * math.pi * np.arange(base_count) / base_count, spec.spoke_angles]
    h = spec.epsilon / 2.0
    for phi, length in zip(spec.spoke_angles, spec.spoke_lengths):
        corner = math.atan2(h, length)
        offsets = np.geomspace(corner / 8.0, half_gap, fan)
        pieces.append(phi + offsets)
        pieces.append(phi - offsets)
    return np.concatenate(pieces)


def _reference_spoke_trig(spec, angles):
    d = angles[:, None] - spec.spoke_angles[None, :]
    return np.cos(d), np.abs(np.sin(d))


def _reference_radii_from_trig(spec, c, s):
    h = spec.epsilon / 2.0
    lengths = spec.spoke_lengths
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        along = lengths[None, :] / c
        across = h / s
    extent = np.where(c > 0, np.minimum(along, np.where(s > 0, across, np.inf)), 0.0)
    return np.maximum(h, extent.max(axis=1))


def _reference_skeleton_region(spec, base_count=1024):
    grid = DirectionGrid.from_angles(_reference_skeleton_angles(spec, base_count))
    return RadialSet(grid, _reference_radii_from_trig(spec, *_reference_spoke_trig(spec, grid.angles)))


def _reference_qi_verify(v, w, c0=10.0, target_volume=1.0, tol=1e-2, c1=1.5, base_count=1024):
    if not 0.0 < c1 < math.inf:
        raise InvalidInputError("width-correction constant c1 must be finite and positive")
    if not math.isfinite(tol):
        raise InvalidInputError("tolerance tol must be finite")
    spec_v = SkeletonSpec(v, c0, target_volume)
    spec_w = SkeletonSpec(w, c0, target_volume)
    if spec_v.v.size != spec_w.v.size:
        raise InvalidInputError("spoke counts differ")
    angles = np.concatenate(
        [_reference_skeleton_angles(spec_v, base_count), _reference_skeleton_angles(spec_w, base_count)]
    )
    grid = DirectionGrid.from_angles(angles)
    trig = _reference_spoke_trig(spec_v, grid.angles)
    region_v = RadialSet(grid, _reference_radii_from_trig(spec_v, *trig))
    region_w = RadialSet(grid, _reference_radii_from_trig(spec_w, *trig))
    ld = log_delta(region_v, region_w)
    linf = float(np.max(np.abs(spec_v.v - spec_w.v)))
    lower = linf - tol
    upper = linf + math.log(c1)
    return QiReport(ld, lower, upper, lower <= ld <= upper, linf, max(1.0, math.exp(ld - linf)))


def _region_bytes(region):
    grid = region.grid
    return dumps_report(
        {"set": radial_set_to_dict(region), "weights": grid.weights, "angles": grid.angles}
    )


spoke_vectors = st.integers(1, 9).flatmap(
    lambda k: st.lists(st.floats(-20.0, 20.0), min_size=2 * k, max_size=2 * k)
)


class TestSkeletonReference:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        v=spoke_vectors,
        w_kind=st.sampled_from(["equal", "half", "free"]),
        c0=st.floats(1.5, 100.0),
        base_count=st.integers(64, 1024),
    )
    def test_reports_and_regions_match_the_reference_bytes(self, data, v, w_kind, c0, base_count):
        v = np.array(v)
        w = v.copy()
        if w_kind != "equal":
            free = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=v.size, max_size=v.size)))
            w[v.size // 2 :] = free[v.size // 2 :]
            if w_kind == "free":
                w = free
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outcomes = []
            for verify, region in ((qi_verify, skeleton_region), (_reference_qi_verify, _reference_skeleton_region)):
                try:
                    report = dumps_report(verify(v, w, c0=c0, base_count=base_count).to_json_dict())
                    outcomes.append((report, _region_bytes(region(SkeletonSpec(v, c0), base_count=base_count))))
                except InvalidInputError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_corner_angles_come_from_libm_atan2(self):
        # numpy's arctan2 is an ulp off libm's at the first spoke's (h, L); at
        # spoke angle 0 the fan's first angle is corner / 8 itself, so the
        # skeleton's bytes would change
        spec = SkeletonSpec(np.array([-4.4, -2.8, -0.3, 1.1]), 10.0)
        h, lengths = spec.epsilon / 2.0, spec.spoke_lengths
        assert np.arctan2(h, lengths)[0] != math.atan2(h, float(lengths[0]))
        assert np.array_equal(skeleton_angles(spec), _reference_skeleton_angles(spec))
        assert _region_bytes(skeleton_region(spec)) == _region_bytes(_reference_skeleton_region(spec))

    def test_a_collapsed_fan_leaves_the_other_fans_alone(self):
        # at 8 spokes, a spoke far shorter than the width has corner angle pi/2,
        # so its fan runs from pi/16 to the half gap pi/16 with a zero step; one
        # np.geomspace over all spokes would then round every other fan differently
        spec = SkeletonSpec(np.array([0.0] * 7 + [-60.0]), 10.0)
        corners = np.array([math.atan2(spec.epsilon / 2.0, length) for length in spec.spoke_lengths.tolist()])
        assert corners[7] == math.pi / 2.0
        reference = _reference_skeleton_angles(spec)
        joint = np.geomspace(corners / 8.0, math.pi / 16.0, 48, axis=1)
        # spoke 0 lies at angle 0, so its first fan, after the 1024 base and
        # 8 spoke angles, is its offsets themselves
        assert not np.array_equal(joint[0], reference[1032:1080])
        assert np.array_equal(skeleton_angles(spec), reference)
        w = spec.v.copy()
        w[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert qi_verify(spec.v, w) == _reference_qi_verify(spec.v, w)

    def test_bad_radii_are_rejected_with_the_radial_set_messages(self, monkeypatch):
        v = np.zeros(4)
        for bad, message in ((np.nan, "strictly positive"), (0.0, "strictly positive"), (np.inf, "finite")):
            def radii(spec, c, s, bad=bad):
                out = _reference_radii_from_trig(spec, c, s)
                out[5] = bad
                return out

            monkeypatch.setattr(starshape, "_radii_from_trig", radii)
            with pytest.raises(InvalidInputError, match=message):
                qi_verify(v, v)
        # a scale whose radii overflow to inf leaves the bounded sets
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="finite"):
            scale(ball(2.0, GRID), 1e308)
