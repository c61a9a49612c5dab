import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cbmlab import domains, starshape
from cbmlab.acceptance import QUANTUM, item_rng, quantized
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
from cbmlab.errors import InvalidInputError, InvariantViolation, rounding_bound
from cbmlab.ordered import Method, OrderedModel, OrderVariant, growth_brackets, growth_distance
from cbmlab.starshape import DirectionGrid, RadialSet, ball, delta, scale

GRID = DirectionGrid.uniform_circle(256)
SEED = 55  # Philox key of this file's draws


def random_fiber(rng, grid=GRID):
    return RadialSet(grid, rng.uniform(0.5, 2.0, grid.count))


def toric(fiber, label=""):
    return SplitToricDomain(2, fiber, label)


class TestRescaleCover:
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

    def test_a_new_fiber_starts_a_new_chain(self):
        rng = item_rng(SEED, 19)
        u = toric(random_fiber(rng))
        fiber = random_fiber(rng)
        swapped = dataclasses.replace(rescale_cover(u, 3), fiber=fiber)
        assert swapped.cover == 3
        # rescaled from the new fiber, not from the chain's start u.fiber / 6
        rescaled = rescale_cover(swapped, 2)
        assert np.array_equal(rescaled.fiber.radii, scale(fiber, 1.0 / 2.0).radii)
        assert rescaled.cover == 6
        chained = rescale_cover(rescaled, 5)
        assert np.array_equal(chained.fiber.radii, scale(fiber, 1.0 / 10.0).radii)

    def test_a_cover_past_the_float_range_is_invalid_input(self):
        u = toric(ball(1.0, GRID))
        with pytest.raises(InvalidInputError, match="scale factor"):
            rescale_cover(u, 10**400)
        # a chain past 10^308 rescales by the correctly rounded 1/cover, a
        # subnormal at 10^310, and rejects the factor once it rounds to 0
        chain = rescale_cover(rescale_cover(u, 10**300), 10**10)
        assert chain.cover == 10**310
        assert np.all(chain.fiber.radii == 1 / 10**310) and 0.0 < 1 / 10**310 < 1e-308
        with pytest.raises(InvalidInputError, match="scale factor"):
            rescale_cover(chain, 10**90)

    def test_base_dim_must_equal_the_fiber_dimension(self):
        for base_dim in (0, -1, 3):
            with pytest.raises(InvalidInputError, match="base dimension must equal the fiber dimension"):
                SplitToricDomain(base_dim, ball(1.0, GRID))


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
        grid_p = DirectionGrid(GRID.directions[perm])
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
        with pytest.raises(InvalidInputError, match="different direction grids"):
            dcbm_toric(u, SplitToricDomain(3, ball(1.0, DirectionGrid.sphere(64, 3))))


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
        doubled = hamiltonian_to_domain(2.0 * h)
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
        d2 = hamiltonian_to_domain(h2)
        assert np.all(d2.fiber.radii <= d1.fiber.radii)

    def test_positivity_required(self):
        # the array rule's positivity, an input error, exits 2 as the precondition did
        message = "^hamiltonian samples must be a 1-D array of finite numbers > 0$"
        with pytest.raises(InvalidInputError, match=message):
            hamiltonian_to_domain(np.zeros(64))
        bad = np.ones(64)
        bad[5] = -0.25
        with pytest.raises(InvalidInputError, match=message):
            hamiltonian_to_domain(bad)

    def test_a_sample_whose_radius_overflows_is_named(self):
        # each sample is finite and positive, but its radius 1/h overflows below the least
        # double with a finite reciprocal; the message names that sample, not the radii
        least = 5.56268464626801e-309
        assert 1.0 / least < math.inf == 1.0 / math.nextafter(least, 0.0)
        assert hamiltonian_to_domain(np.full(64, least)).fiber.radii[0] == 1.0 / least
        message = "^hamiltonian samples must be large enough that 1/h is finite, got "
        for sample in (5e-324, math.nextafter(least, 0.0)):
            with pytest.raises(InvalidInputError, match=message + re.escape(repr(sample)) + "$"):
                hamiltonian_to_domain(np.r_[np.ones(63), sample])


class TestRgrVsCbm:
    def test_equal_generators(self):
        h = np.full(64, 1.5)
        report = rgr_vs_cbm(h, h, l_max=200)
        assert report.d_order == 0.0
        assert report.d_cbm == 0.0
        assert report.gap == 0.0

    def test_constant_doubling(self):
        report = rgr_vs_cbm(np.ones(64), np.full(64, 2.0), l_max=400)
        assert report.d_order == math.log(2.0)
        assert abs(report.d_cbm - math.log(2.0)) <= 1e-12
        assert report.gap <= 3.0 / 400

    def test_a_generator_whose_radius_overflows_is_named(self):
        tiny = np.r_[np.ones(63), 5e-324]
        for name, pair in (("h1", (tiny, np.ones(64))), ("h2", (np.ones(64), tiny))):
            message = f"^{name} must be large enough that 1/h is finite, got 5e-324$"
            with pytest.raises(InvalidInputError, match=message):
                rgr_vs_cbm(*pair)

    def test_both_fibers_share_one_grid(self, monkeypatch):
        # delta then finds the grids equal by identity, not entry by entry
        built, uniform_circle = [], DirectionGrid.uniform_circle
        monkeypatch.setattr(DirectionGrid, "uniform_circle", lambda count: built.append(count) or uniform_circle(count))
        rgr_vs_cbm(np.ones(64), np.full(64, 2.0), l_max=400)
        assert built == [64]

    def test_random_pairs_equality_within_tolerance(self):
        rng = item_rng(SEED, 18)
        for _ in range(20):
            h1 = rng.integers(round(0.5 / QUANTUM), round(2.5 / QUANTUM), 64) * QUANTUM
            h2 = rng.integers(round(0.5 / QUANTUM), round(2.5 / QUANTUM), 64) * QUANTUM
            report = rgr_vs_cbm(h1, h2, l_max=500)
            assert report.gap <= 3.0 / 500

    def test_the_radii_path_may_round_above_the_order_distance(self):
        # the ratio 1.3804397583007812 / 0.9808387756347656 is exactly 38/27,
        # the upper end of the order bracket, but d_cbm reads the radii 1/h,
        # which round above the correctly rounded ratio; the bracket's gamma_9
        # rounding bound lets this valid pair through
        report = rgr_vs_cbm(np.full(64, 0.9808387756347656), np.full(64, 1.3804397583007812))
        assert report.d_order == math.log(38 / 27)
        assert report.d_cbm > report.d_order

    def test_subnormal_radii_stay_within_the_rounding_bound(self):
        # the ratio is exactly 38/27 again, but both radii 1/h are subnormal:
        # delta lands 112/19 units of 2^-53 above 38/27, past a normal-range
        # bound of 3 ulps and within the bridge's gamma_9
        h1, h2 = np.full(64, 1.0133338895882406e308), np.full(64, 1.4261736223834497e308)
        assert Fraction(h2[0]) / Fraction(h1[0]) == Fraction(38, 27)
        excess = Fraction(delta(*(hamiltonian_to_domain(h).fiber for h in (h1, h2)))) / Fraction(38, 27) - 1
        assert 3 * Fraction(1, 2**53) < excess <= Fraction(rounding_bound(9))
        report = rgr_vs_cbm(h1, h2)
        assert report.d_order == math.log(38 / 27)
        assert report.d_cbm > report.d_order

    def test_the_order_bracket_is_widened_by_gamma_9_and_no_more(self, monkeypatch):
        # a domain ratio substituted at the last double inside [lo (1 - w), hi (1 + w)],
        # w = gamma_9, passes, and the next double out is a violation, at either end
        h1, h2 = np.ones(64), np.full(64, 2.0)
        model = OrderedModel.additive(64, OrderVariant.STRICT_POSITIVE)
        (top, low), (top_m, low_m) = growth_brackets(model, model.element(h1), model.element(h2), 400)
        hi, lo = max(Fraction(*top), Fraction(*top_m)), max(Fraction(*low), Fraction(*low_m))
        w = Fraction(rounding_bound(9))
        for end, out in ((hi * (1 + w), math.inf), (lo * (1 - w), -math.inf)):
            inside = float(end)
            if (Fraction(inside) - end) * out > 0:
                inside = math.nextafter(inside, -out)
            monkeypatch.setattr(domains, "delta", lambda *fibers: inside)
            assert rgr_vs_cbm(h1, h2, l_max=400).d_cbm == math.log(inside)
            monkeypatch.setattr(domains, "delta", lambda *fibers: math.nextafter(inside, out))
            with pytest.raises(InvariantViolation, match=r"widened by gamma_9 misses the domain ratio"):
                rgr_vs_cbm(h1, h2, l_max=400)

    def test_acceptance_pairs_match_the_order_and_domain_layers_bit_for_bit(self):
        # item 10's pairs at seed 7: the bridge reads the order distance and
        # the domain distance as growth_distance and dcbm_toric give them
        rng = item_rng(7, 10)
        model = OrderedModel.additive(64, OrderVariant.STRICT_POSITIVE)
        for _ in range(50):
            h1, h2 = quantized(rng, 0.5, 2.5, 64), quantized(rng, 0.5, 2.5, 64)
            report = rgr_vs_cbm(h1, h2, l_max=1000)
            order = growth_distance(model, model.element(h1), model.element(h2), 1000, Method.PAIR_INFIMUM)
            u, v = (SplitToricDomain(2, hamiltonian_to_domain(h).fiber) for h in (h1, h2))
            assert report.d_order == order.distance
            assert report.d_cbm == dcbm_toric(u, v).upper

    def test_site_mismatch(self):
        with pytest.raises(InvalidInputError):
            rgr_vs_cbm(np.ones(64), np.ones(128))
        with pytest.raises(InvalidInputError):
            rgr_vs_cbm(1.0, 2.0)

    def test_too_few_samples_name_h1(self):
        with pytest.raises(InvalidInputError, match=r"^h1 sample count must be an integer in \[64, 1000000\], got 8$"):
            rgr_vs_cbm(np.ones(8), np.ones(8))

    def test_too_many_samples_are_named_before_any_grid_is_built(self):
        h = np.ones(starshape.MAX_GRID_COUNT + 1)
        bound = r"must be an integer in \[64, 1000000\], got 1000001$"
        with pytest.raises(InvalidInputError, match="^hamiltonian sample count " + bound):
            hamiltonian_to_domain(h)
        with pytest.raises(InvalidInputError, match="^h1 sample count " + bound):
            rgr_vs_cbm(h, h)

    def test_l_max_is_checked_before_the_domains_are_built(self):
        # radii 1/h past the float range would fail the domain's own check
        h = np.full(4, 1e-310)
        with pytest.raises(InvalidInputError, match="^l_max must be an integer >= 1, got 0$"):
            rgr_vs_cbm(h, h, l_max=0)

    @pytest.mark.parametrize("bad", [0.0, -0.25, math.inf])
    def test_a_generator_off_the_positive_isotopies_is_rejected_by_its_contract(self, bad):
        # each generator's own array contract decides, not the order oracle's or the element's
        h = np.full(64, 1.5)
        weak = h.copy()
        weak[3] = bad
        for h1, h2, name in ((weak, h, "h1"), (h, weak, "h2")):
            with pytest.raises(InvalidInputError, match=f"^{name} must be a 1-D array of finite numbers > 0$"):
                rgr_vs_cbm(h1, h2)

    @pytest.mark.parametrize("factor", [1 + 1e-4, 1 - 1e-4], ids=["above", "below"])
    def test_a_domain_ratio_off_the_order_bracket_is_a_violation(self, factor, monkeypatch):
        # the double 38 / 27 lies just above 38/27, so at l_max 1000 the order
        # bracket is 38/27 < 1399/994, 2.6e-5 wide, and a substituted delta
        # 1e-4 off on either side misses it, where 3 / l_max let it through
        real = starshape._radial_delta
        monkeypatch.setattr(starshape, "_radial_delta", lambda ra, rb: real(ra, rb) * factor)
        with pytest.raises(InvariantViolation, match=r"^order bracket \[38/27, 1399/994\] widened by gamma_9 misses"):
            rgr_vs_cbm(np.full(64, 1.0), np.full(64, 38 / 27))


def test_crossed_bounds_are_a_violation():
    with pytest.raises(InvariantViolation, match="crossed"):
        BoundInterval(1.0, 0.0, "", "")


def test_bounds_crossed_by_one_ulp_are_a_violation():
    x = math.log(2.0)
    assert BoundInterval(x, x, "", "").lower == x
    with pytest.raises(InvariantViolation, match="crossed"):
        BoundInterval(math.nextafter(x, math.inf), x, "", "")
