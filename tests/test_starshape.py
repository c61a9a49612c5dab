import dataclasses
import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cbmlab.starshape as starshape
from cbmlab.acceptance import item_rng
from cbmlab.errors import InvalidInputError, rounding_bound
from cbmlab.serialize import dumps_report, radial_set_to_dict
from cbmlab.starshape import (
    MAX_GRID_COUNT,
    MIN_GRID_COUNT,
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
    skeleton_region,
)

GRID_ANGLES = 2.0 * math.pi * np.arange(1024) / 1024
GRID = DirectionGrid.uniform_circle(1024)
SEED = 99  # Philox key of this file's draws
# rows off unit norm by more than the grid's rounding bound: the uniform circle scaled by
# 1 + 9e-13, about 8,100 u (u = 2^-53), and 64 rows +-1 of R^1 moved by up to 31 * 2^-45,
# since two unit rows are too few for a grid there
NEAR_ONE = 1.0 - 2.0**-45 * np.arange(32)
OFF_UNIT_ROWS = {
    "circle-scaled-by-1+9e-13": DirectionGrid.uniform_circle(1024).directions * (1 + 9e-13),
    "r1-rows-moved-by-2^-45": np.concatenate([NEAR_ONE, -NEAR_ONE])[:, None],
}


def polar_volume(a):
    """Reference polar quadrature (1/n) * sum r_i^n w_i over the direction grid:
    w_i is the half-gap arc of the sorted angles on planar grids and the
    equal weight (sphere area) / count on the sphere samples of dimension <= 4."""
    grid, n = a.grid, a.grid.dimension
    if n == 2:
        angles = np.mod(np.arctan2(grid.directions[:, 1], grid.directions[:, 0]), 2.0 * math.pi)
        order = np.argsort(angles, kind="stable")
        sorted_angles = angles[order]
        gaps = np.diff(sorted_angles, append=sorted_angles[:1] + 2.0 * math.pi)
        weights = np.empty(grid.count)
        weights[order] = 0.5 * (gaps + np.roll(gaps, 1))
    else:
        weights = np.full(grid.count, 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) / grid.count)
    return float(np.sum(a.radii**n * weights) / n)


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
            for make in (DirectionGrid.uniform_circle, DirectionGrid.sphere):
                with pytest.raises(InvalidInputError, match="grid count"):
                    make(count)
            with pytest.raises(InvalidInputError, match="grid count"):
                skeleton_region(spec, base_count=count)

    def test_grid_counts_are_integers(self):
        # a float count would give uniform_circle(64.5) 65 directions spaced 2 pi/64.5,
        # and a bool count would read as 1 direction
        spec = SkeletonSpec(np.zeros(4), 10.0, 1.0)
        makers = (
            DirectionGrid.uniform_circle,
            DirectionGrid.sphere,
            lambda n: starshape._skeleton_angles([spec], n),
            lambda n: skeleton_region(spec, n),
            lambda n: qi_verify(np.zeros(4), np.zeros(4), base_count=n),
        )
        for count in (64.5, True, np.True_, np.float64(64.0), "64"):
            for make in makers:
                with pytest.raises(InvalidInputError, match="grid count must be an integer"):
                    make(count)
        with pytest.raises(InvalidInputError, match="dimension must be an integer"):
            DirectionGrid.sphere(256, 3.0)
        assert DirectionGrid.uniform_circle(np.int64(64)).count == 64

    def test_grids_keep_the_callers_order(self):
        perm = item_rng(SEED, 12).permutation(GRID.count)
        grid = DirectionGrid(GRID.directions[perm])
        assert np.array_equal(grid.directions, GRID.directions[perm])
        sphere = DirectionGrid.sphere(256, 3)
        grid3 = DirectionGrid(sphere.directions[::-1])
        assert np.array_equal(grid3.directions, sphere.directions[::-1])

    def test_grids_reject_bad_rows(self):
        doubled = np.concatenate([GRID.directions, GRID.directions[:1]])
        sphere = DirectionGrid.sphere(256, 3).directions
        few = sphere[:8]
        for directions in (doubled, GRID.directions[0], np.zeros((64, 0)), few):
            with pytest.raises(InvalidInputError):
                DirectionGrid(directions)
        # equal rows give one direction two radii in every dimension
        wide = np.eye(64, 439)
        for directions in (
            [[1.0, 0.0, 0.0]] * 64,
            np.concatenate([sphere, sphere[7:8]]),
            np.concatenate([sphere[:62], [[0.0, 1.0, 0.0], [-0.0, 1.0, 0.0]]]),  # equal, not bytewise
            wide[[*range(64), 5]],
        ):
            with pytest.raises(InvalidInputError, match="duplicate directions"):
                DirectionGrid(directions)
        assert DirectionGrid(wide).count == 64

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 4)),
            elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan]),
        )
    )
    def test_the_duplicate_rule_marks_each_row_equal_to_an_earlier_row(self, rows):
        # == on every entry, so -0.0 equals 0.0 and a row with a NaN equals no row
        expected = [any(np.array_equal(rows[i], rows[j]) for j in range(i)) for i in range(len(rows))]
        assert starshape._repeats(rows).tolist() == expected

    def test_rows_that_differ_are_distinct_directions_in_every_dimension(self):
        # two rows an ulp of sin(2) apart share the polar angle 2, and a planar
        # grid takes both, as a grid in any other dimension would
        c, s = math.cos(2.0), math.sin(2.0)
        pair = [[c, s], [c, math.nextafter(s, 1.0)]]
        assert math.atan2(*pair[0][::-1]) == math.atan2(*pair[1][::-1]) == 2.0
        assert DirectionGrid(np.concatenate([GRID.directions, pair])).count == GRID.count + 2

    @pytest.mark.parametrize("case", list(OFF_UNIT_ROWS))
    def test_rows_off_unit_norm_past_the_rounding_bound_are_rejected(self, case):
        with pytest.raises(InvalidInputError, match="^directions must be unit vectors$"):
            DirectionGrid(OFF_UNIT_ROWS[case])

    @pytest.mark.parametrize("grid", [DirectionGrid.uniform_circle(64), DirectionGrid.sphere(64)])
    def test_a_row_normed_at_gamma_d_plus_4_passes_and_one_step_further_fails(self, grid):
        # (1 - k u) e_1 norms to exactly 1 - k u: k = d + 4 is inside gamma_(d+4), k = d + 5 past it
        d, u = grid.dimension, 2.0**-53
        assert (d + 4) * u <= rounding_bound(d + 4) < (d + 5) * u
        rows = grid.directions.copy()
        for k, passes in ((d + 4, True), (d + 5, False)):
            rows[0] = np.eye(d)[0] * (1.0 - k * u)
            assert np.linalg.norm(rows[0]) == 1.0 - k * u
            if passes:
                assert DirectionGrid(rows).count == grid.count
            else:
                with pytest.raises(InvalidInputError, match="^directions must be unit vectors$"):
                    DirectionGrid(rows)

    def test_rows_normalised_in_doubles_are_unit_vectors(self):
        # every factory count from the least to the largest, 1,000 no multiple of 8, and
        # seeded rows x/|x| in dimensions 2 to 439 (R^1 has two unit rows, not 64
        # distinct ones), each within the derived gamma_(d+4)
        for count in (MIN_GRID_COUNT, 1000, MAX_GRID_COUNT):
            assert DirectionGrid.uniform_circle(count).count == DirectionGrid.sphere(count).count == count
        for dimension in range(2, 440):
            x = item_rng(SEED, dimension).normal(size=(MIN_GRID_COUNT, dimension))
            assert DirectionGrid(x / np.linalg.norm(x, axis=1)[:, None]).dimension == dimension

    def test_sphere_samples_are_isotropic(self):
        # mean(x x^T) of a uniform sphere sample is I/3
        x = DirectionGrid.sphere(4096, 3).directions
        assert np.abs(x.T @ x / len(x) - np.eye(3) / 3).max() < 0.02

    def test_the_sphere_grid_is_3_d_only(self):
        for d in (-1, 0, 1, 2, 4, 12, 13):
            with pytest.raises(InvalidInputError, match=f"default sphere grid is 3-d, got dimension {d}$"):
                DirectionGrid.sphere(256, d)

    def test_planar_grids_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use, about 18 ms of a fresh process
        script = (
            "import contextlib, io, sys\n"
            "from cbmlab import cli\n"
            "from cbmlab.starshape import DirectionGrid\n"
            "DirectionGrid.uniform_circle(1024)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['skeleton', '--v', '0,1']) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)

    def test_from_angles_sorts_and_deduplicates_as_np_unique_does(self):
        # repeats, signed zeros and whole turns, each reduced to one direction
        rng = item_rng(SEED, 13)
        pool = np.concatenate([rng.uniform(-10.0, 10.0, 64), [0.0, -0.0, math.pi, 2.0 * math.pi, -2.0 * math.pi]])
        for _ in range(200):
            angles = rng.permutation(np.concatenate([pool, rng.choice(pool, len(pool))]))
            grid = DirectionGrid.from_angles(angles)
            unique = np.unique(np.mod(angles, 2.0 * math.pi))
            rows = np.column_stack([np.cos(unique), np.sin(unique)])
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            assert grid.directions.tobytes() == rows.tobytes()

    def test_from_angles_drops_rows_equal_to_an_earlier_row(self):
        # consecutive doubles past pi/4 move cos and sin by less than their
        # ulp, so some neighbours round to one unit row
        angles = np.concatenate([GRID_ANGLES, math.pi / 4.0 + np.arange(1, 65) * 2.0**-53])
        rows = np.column_stack([np.cos(angles), np.sin(angles)])
        distinct = np.unique(rows / np.linalg.norm(rows, axis=1)[:, None], axis=0)
        assert len(distinct) < len(angles)
        grid = DirectionGrid.from_angles(angles)
        assert grid.count == len(distinct)
        assert np.array_equal(np.unique(grid.directions, axis=0), distinct)

    def test_unit_ball_volumes(self):
        assert abs(polar_volume(ball(1.0, GRID)) - math.pi) / math.pi < 0.005
        grid3 = DirectionGrid.sphere(2048, 3)
        target3 = 4.0 * math.pi / 3.0
        assert abs(polar_volume(ball(1.0, grid3)) - target3) / target3 < 0.01

    def test_radii_need_one_sample_per_direction(self):
        for count in (GRID.count - 1, GRID.count + 1):
            with pytest.raises(InvalidInputError, match="^radii must have one sample per grid direction$"):
                RadialSet(GRID, np.ones(count))


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

    def test_the_cube_on_grids_off_the_plane(self):
        # on the coordinate axes of R^439 the cube's radius is the half side
        axes = DirectionGrid(np.eye(64, 439))
        assert np.all(centered_square(2.5, axes).radii == 2.5)
        # the cube [-1, 1]^3 reaches sqrt(3) on the diagonals, and 1/|u|_inf
        # >= sqrt(3) / (1 + sqrt(3) theta) at angle theta from a diagonal,
        # since |u|_inf <= 1/sqrt(3) + |u - d|_2
        sphere = DirectionGrid.sphere(4096)
        value = delta(centered_square(1.0, sphere), ball(1.0, sphere))
        diagonals = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)]) / math.sqrt(3.0)
        theta = float(np.arccos(np.max(diagonals @ sphere.directions.T)))
        assert math.sqrt(3.0) / (1.0 + math.sqrt(3.0) * theta) <= value <= math.sqrt(3.0)

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

    @settings(max_examples=100, deadline=None)
    @given(
        v=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6).map(lambda xs: np.array(xs * 2)),
        c0=st.floats(1.5, 100.0),
        target_volume=st.floats(1e-3, 10.0),
    )
    def test_derived_fields_are_read_only_and_equal_their_formulas_bit_for_bit(self, v, c0, target_volume):
        # the formulas the spec once recomputed on every read
        spec = SkeletonSpec(v, c0, target_volume)
        m, epsilon = v.size, target_volume / (c0 * float(np.sum(np.exp(v))))
        formulas = {
            "spoke_angles": np.arange(m) * math.pi / m,
            "spoke_lengths": c0 * np.exp(v),
            "epsilon": epsilon,
            "corner_angles": np.array([math.atan2(epsilon / 2.0, length) for length in (c0 * np.exp(v)).tolist()]),
        }
        for name, value in formulas.items():
            derived = getattr(spec, name)
            assert type(derived) is type(value) and np.asarray(derived).tobytes() == np.asarray(value).tobytes(), name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
            if isinstance(derived, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    derived[0] = 0.0

    def test_degenerate_spec_rejected(self):
        with pytest.raises(InvalidInputError):
            SkeletonSpec(np.zeros(4), 10.0, 0.0)
        with pytest.raises(InvalidInputError):
            SkeletonSpec(np.zeros(3), 10.0, 1.0)

    def test_spoke_tip_radius(self):
        v = np.array([0.3, 1.2, 0.0, 2.0, 0.7, 1.1])
        spec = SkeletonSpec(v, 10.0, 1.0)
        region = skeleton_region(spec)
        for phi, length in zip(spec.spoke_angles, spec.spoke_lengths):
            idx = int(np.argmax(region.grid.directions @ [math.cos(phi), math.sin(phi)]))
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

    def test_spokes_past_the_trig_sample_cap_are_rejected_before_the_angles_are_built(self):
        zeros = np.zeros(5_000)
        rejects = (
            lambda: skeleton_region(SkeletonSpec(zeros, 10.0)),
            lambda: qi_verify(zeros, zeros),
            # 1,024 + 97 * 4,000 angles before deduplication, times 4,000 spokes
            lambda: skeleton_region(SkeletonSpec(np.zeros(4_000), 10.0)),
        )
        for reject in rejects:
            tracemalloc.start()
            try:
                with pytest.raises(InvalidInputError, match="trig samples"):
                    reject()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20

    def test_skeletons_near_the_cap_take_memory_linear_in_the_angle_count(self):
        # 1,024 + 97 * 400 angles x 400 spokes and 1,024 + 193 * 290 angles x
        # 290 spokes sit just under the cap; (angles, spokes) trig arrays for
        # them would take about 500 MB
        rng = item_rng(SEED, 14)
        runs = (
            lambda: skeleton_region(SkeletonSpec(rng.uniform(-1.0, 1.0, 400), 10.0)),
            lambda: qi_verify(rng.uniform(-1.0, 1.0, 290), rng.uniform(-1.0, 1.0, 290)),
        )
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20

    def test_each_wide_skeleton_warns(self):
        with pytest.warns(UserWarning) as record:
            qi_verify(np.zeros(4), np.full(4, 0.1), c0=1.5, target_volume=10.0)
        assert len(record) == 2

    def test_the_trig_sample_cap_admits_exactly_the_angles_times_the_spokes(self, monkeypatch):
        # at 4 spokes and base 64: 64 + 4 spoke angles + 2 * 48 * 4 fan angles per spec
        spec = SkeletonSpec(np.zeros(4), 10.0)
        runs = (
            (lambda: skeleton_region(spec, base_count=64), (64 + 4 + 384) * 4),
            (lambda: qi_verify(np.zeros(4), np.full(4, 0.5), base_count=64), (64 + 4 + 2 * 384) * 4),
        )
        for run, samples in runs:
            monkeypatch.setattr(starshape, "MAX_SPOKE_SAMPLES", samples)
            run()
            monkeypatch.setattr(starshape, "MAX_SPOKE_SAMPLES", samples - 1)
            with pytest.raises(InvalidInputError, match="trig samples"):
                run()

    def test_a_wide_skeleton_warning_names_the_callers_file(self):
        wide = SkeletonSpec(np.zeros(4), 1.5, 10.0)
        runs = (
            lambda: skeleton_region(wide),
            lambda: qi_verify(np.zeros(4), np.full(4, 0.1), c0=1.5, target_volume=10.0),
        )
        for run in runs:
            with pytest.warns(UserWarning) as record:
                run()
            assert record and all(warning.filename == __file__ for warning in record)


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


def _reference_angle_rows(angles):
    """The distinct angles mod 2 pi and their unit rows, keeping the smallest
    angle of each row; a dict merges equal rows, -0.0 with 0.0."""
    unique = np.unique(np.mod(angles, 2.0 * math.pi))
    rows = np.column_stack([np.cos(unique), np.sin(unique)])
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    first = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        first.setdefault(row, i)
    keep = sorted(first.values())
    return unique[keep], rows[keep]


def _reference_check_radii(radii):
    if not np.all(radii > 0):
        raise InvalidInputError("radii must be strictly positive (0 is an interior point)")
    if not np.all(radii < math.inf):
        raise InvalidInputError("radii must be finite (the set is bounded)")


def _reference_skeleton_region(spec, base_count=1024):
    angles, rows = _reference_angle_rows(_reference_skeleton_angles(spec, base_count))
    grid = DirectionGrid(rows)
    return RadialSet(grid, _reference_radii_from_trig(spec, *_reference_spoke_trig(spec, angles)))


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
    trig = _reference_spoke_trig(spec_v, np.unique(np.mod(angles, 2.0 * math.pi)))
    radii_v = _reference_radii_from_trig(spec_v, *trig)
    radii_w = _reference_radii_from_trig(spec_w, *trig)
    _reference_check_radii(radii_v)
    _reference_check_radii(radii_w)
    with np.errstate(over="ignore"):
        ld = math.log(max(float(np.max(radii_v / radii_w)), float(np.max(radii_w / radii_v)), 1.0))
    linf = float(np.max(np.abs(spec_v.v - spec_w.v)))
    lower = linf - tol
    upper = linf + math.log(c1)
    return QiReport(ld, lower, upper, lower <= ld <= upper, linf, max(1.0, math.exp(ld - linf)))


def _region_bytes(region):
    return dumps_report(radial_set_to_dict(region))


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
        # at spoke angle 0 the fan's first angle is corner / 8 itself, so the
        # skeleton's angles hold libm's corner bit for bit; on hosts whose numpy
        # arctan2 is an ulp off libm's at this (h, L), a numpy corner would
        # change the skeleton's bytes
        spec = SkeletonSpec(np.array([-4.4, -2.8, -0.3, 1.1]), 10.0)
        h, lengths = spec.epsilon / 2.0, spec.spoke_lengths
        corner = math.atan2(h, float(lengths[0])) / 8.0
        assert any(angle == corner for angle in starshape._skeleton_angles([spec], 1024).tolist())
        assert np.array_equal(starshape._skeleton_angles([spec], 1024), _reference_skeleton_angles(spec))
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
        assert np.array_equal(starshape._skeleton_angles([spec], 1024), reference)
        w = spec.v.copy()
        w[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert qi_verify(spec.v, w) == _reference_qi_verify(spec.v, w)

    def test_bad_radii_are_rejected_with_the_radial_set_messages(self, monkeypatch):
        v = np.zeros(4)
        message = "^radii must be a 1-D array of finite numbers > 0$"
        evaluate = starshape._skeleton_radii
        for bad in (np.nan, 0.0, np.inf):
            def radii(specs, angles, bad=bad):
                out = evaluate(specs, angles)
                for r in out:
                    r[5] = bad
                return out

            monkeypatch.setattr(starshape, "_skeleton_radii", radii)
            with pytest.raises(InvalidInputError, match=message):
                qi_verify(v, v)
        # a scale whose radii overflow to inf leaves the bounded sets
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match=message):
            scale(ball(2.0, GRID), 1e308)
