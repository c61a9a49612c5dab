import functools
import importlib
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab import norms, ordered
from cbmlab.acceptance import QUANTUM, growth_pair_corpus, item_rng, quantized, run_acceptance
from cbmlab.domains import SplitToricDomain, rescale_cover
from cbmlab.errors import CbmlabError, InvalidInputError, InvariantViolation
from cbmlab.forms import SampledManifold
from cbmlab.ordered import (
    Element,
    Method,
    ModelKind,
    OrderedModel,
    OrderVariant,
    growth_distance,
    min_power,
    rho_plus,
    rho_plus_primes,
)
from cbmlab.primes import PrimeTable, prime_table
from cbmlab.starshape import DirectionGrid, ball

SEED = 1234  # Philox key of this file's draws
BENCH = Path(__file__).resolve().parents[1] / "bench"
# the message of a least exponent past the search bound, an InvalidInputError
SEARCH_BOUND = f"^exponent search exceeded bound {ordered._SEARCH_BOUND}$"


def from_log(log_value):
    """The multiplicative element of an exact natural log, its one site."""
    return Element([float(log_value)])


def oracle_min_power(model, a, b, l, lo=-60, hi=60):
    """Independent brute-force scan of the raw order oracle."""
    for k in range(lo, hi + 1):
        if model.ge(model.power(a, k), model.power(b, l)):
            return k
    raise AssertionError("oracle scan window too small")


def oracle_prime_infimum(model, a, b, bound):
    """Brute force over all prime ordering pairs (p, q) with p, q <= bound.

    Uses only the raw oracle plus monotonicity of the least witness in q,
    which holds because b is dominant.
    """
    primes = [int(p) for p in PrimeTable(bound).primes]
    best = None
    idx = 0
    for q in primes:
        while idx < len(primes) and not model.ge(
            model.power(a, primes[idx]), model.power(b, q)
        ):
            idx += 1
        if idx == len(primes):
            break
        ratio = primes[idx] / q
        if best is None or ratio < best:
            best = ratio
    return best


def reference_oracle(model, a, b):
    """The per-site oracle on Python ints: the stored floats over one
    power-of-two denominator, and k*A_i >= l*B_i tested at every site."""
    ratios = [v.as_integer_ratio() for v in np.append(a.data, b.data).tolist()]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    sites = list(zip(ints[: len(ints) // 2], ints[len(ints) // 2 :]))
    if model.order_variant is OrderVariant.NON_STRICT:
        return lambda k, l: all(k * x >= l * y for x, y in sites)
    return lambda k, l: all(k * x > l * y for x, y in sites) or all(k * x == l * y for x, y in sites)


class StubOracle:
    """A threshold (N, D, strict) for _bracket's descent and a predicate for its calls."""

    def __init__(self, threshold, holds):
        self.threshold, self.holds = threshold, holds

    def __call__(self, k, l):
        return self.holds(k, l)


def threshold_oracle(num, den, strict):
    """The exact oracle of a threshold, as _bracket reads a dominant base:
    (k, l) holds when k*D >= l*N, or k*D > l*N if strict."""
    if strict:
        return StubOracle((num, den, strict), lambda k, l: k * den > l * num)
    return StubOracle((num, den, strict), lambda k, l: k * den >= l * num)


def reference_run(step_holds, cap):
    """Greatest j in [0, cap] with step_holds true at 1..j, for a predicate
    true on a prefix: doubling (clamped at cap) brackets j, bisection pins it."""
    lo, hi = 0, 1  # step_holds is true at 1..lo; hi is the next probe
    while lo < cap and step_holds(hi):
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:  # now step_holds fails at hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if step_holds(mid) else (lo, mid)
    return lo


def reference_bracket(holds, n):
    """The Farey bracket searched through the oracle alone: the integer part by
    one reference_run from 1, then one reference_run per Stern-Brocot stretch."""
    bound = ordered._SEARCH_BOUND
    cap = bound + 2  # far enough to see -bound - 1 below 1 and bound + 1 above it
    if holds(1, 1):
        k = 1 - reference_run(lambda j: holds(1 - j, 1), cap)
    else:
        k = 2 + reference_run(lambda j: not holds(1 + j, 1), cap)
    if abs(k) > bound:
        raise InvalidInputError(f"exponent search exceeded bound {bound}")
    (p_lo, q_lo), (p, q) = (k - 1, 1), (k, 1)
    while q + q_lo <= n:
        j = reference_run(lambda j: holds(p + j * p_lo, q + j * q_lo), (n - q) // q_lo)
        p, q = p + j * p_lo, q + j * q_lo
        i = reference_run(lambda i: not holds(p_lo + i * p, q_lo + i * q), (n - q_lo) // q)
        p_lo, q_lo = p_lo + i * p, q_lo + i * q
    if not (holds(p, q) and not holds(p_lo, q_lo) and p * q_lo - p_lo * q == 1 and q + q_lo > n):
        raise InvariantViolation(f"Farey bracket {p_lo}/{q_lo} < {p}/{q} fails its certificate at n={n}")
    if abs(-(-n * p // q)) > bound:
        raise InvalidInputError(f"exponent search exceeded bound {bound}")
    return (p, q), (p_lo, q_lo)


# zeros of both signs, subnormals, huge and quantized entries, and any finite float
ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 3e-310, 1e300, -1e300, 1.0, -2.0]),
    st.integers(-8, 8).map(lambda n: n * QUANTUM),
    st.floats(allow_nan=False, allow_infinity=False),
)
# a positive x from subnormal to huge, and an x <= 0 of either zero and any size
POSITIVE_X = st.one_of(
    st.sampled_from([5e-324, 3e-310, 2.0**-1022, 1.0, 1e300]), st.floats(min_value=5e-324, max_value=1e300)
)
NON_POSITIVE_X = st.one_of(
    st.sampled_from([0.0, -0.0, -5e-324, -1e300]), st.floats(max_value=0.0, allow_infinity=False)
)
# b = scale * a keeps one ratio at every site unless the product rounds
SCALE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 2.0**-40, 3.0 * QUANTUM])
EXPONENT = st.one_of(st.integers(-10, 10), st.integers(-(10**13), 10**13))
PROBES = st.lists(st.tuples(EXPONENT, EXPONENT.map(lambda l: abs(l) + 1)), max_size=20)  # l >= 1


def draw_pair(data, base):
    """A model of either kind and variant and a pair a, b. The base a is
    "dominant" (every site positive), "any", or "non-dominant" (some site <= 0);
    b is free, a multiple of a (one ratio at every site unless the product
    rounds), or zero."""
    kind = data.draw(st.sampled_from(list(ModelKind)))
    variant = data.draw(st.sampled_from(list(OrderVariant)))
    sites = 1 if kind is ModelKind.MULTIPLICATIVE_REALS else data.draw(st.integers(1, 6))
    xs = data.draw(st.lists(POSITIVE_X if base == "dominant" else ENTRY, min_size=sites, max_size=sites))
    if base == "non-dominant":
        xs[data.draw(st.integers(0, sites - 1))] = data.draw(NON_POSITIVE_X)
    pairing = data.draw(st.sampled_from(["free", "scaled", "zero"]))
    if pairing == "free":
        ys = data.draw(st.lists(ENTRY, min_size=sites, max_size=sites))
    elif pairing == "scaled":
        scale = data.draw(SCALE)
        ys = [scale * x for x in xs]
    else:
        ys = data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=sites, max_size=sites))
    if kind is ModelKind.MULTIPLICATIVE_REALS:
        m = OrderedModel.multiplicative(variant)
    else:
        m = OrderedModel.additive(sites, variant)
    # Element directly: entries past the grid bound still reach the oracle as powers
    return m, xs, ys, Element(xs), Element(ys)


class TestOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_reduced_oracle_matches_the_per_site_reference(self, data):
        # every base here is dominant, from subnormal to huge entries; b may be any
        m, xs, ys, a, b = draw_pair(data, "dominant")
        reduced, reference = ordered._oracles(m, a, b, True)[0], reference_oracle(m, a, b)
        ratios = [Fraction(y) / Fraction(x) for x, y in zip(xs, ys)]
        # the threshold is the exact largest ratio, strict unless every site shares it
        num, den, strict = reduced.threshold
        assert Fraction(num, den) == max(ratios)
        assert strict == (m.order_variant is OrderVariant.STRICT_POSITIVE and len(set(ratios)) > 1)
        probes = data.draw(PROBES) + [(1, 1), (0, 1), (-1, 1)]
        # each site's ratio and its neighbours, where the threshold or its strictness decides
        for t in ratios:
            if t.denominator <= 10**13:
                probes += [(t.numerator + step, t.denominator) for step in (-1, 0, 1)]
        for k, l in probes:
            assert reduced(k, l) == reference(k, l), (k, l)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_ge_matches_the_per_site_reference(self, data):
        # dominant or not: bases with zeros and entries of either sign and any size
        m, _, _, a, b = draw_pair(data, "any")
        assert m.ge(a, b) == reference_oracle(m, a, b)(1, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_oracle_rejects_a_base_with_a_site_at_most_zero(self, data):
        m, _, _, a, b = draw_pair(data, "non-dominant")
        with pytest.raises(InvalidInputError, match="dominant base"):
            ordered._oracles(m, a, b, False)[0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_threshold_is_in_lowest_terms(self, data):
        m, _, _, a, b = draw_pair(data, "dominant")
        num, den, _ = ordered._oracles(m, a, b, True)[0].threshold
        assert den > 0 and math.gcd(num, den) == 1

    def test_float_ratio_ties_are_broken_exactly(self):
        # 1/3 and fl(1/3)/1 round to one float ratio; the exact largest is 1/3, where
        # the non-strict order holds and the strict one fails at the first site
        for variant, holds in ((OrderVariant.NON_STRICT, True), (OrderVariant.STRICT_POSITIVE, False)):
            m = OrderedModel.additive(2, variant)
            for order in (slice(None), slice(None, None, -1)):
                a = m.element([3.0, 1.0][order])
                b = m.element([1.0, 1 / 3][order])
                assert ordered._oracles(m, a, b, False)[0](1, 3) is holds is reference_oracle(m, a, b)(1, 3)

    def test_non_finite_element_is_rejected(self):
        for bad in ([math.inf, 1.0], [1.0, math.nan], [[1.0, 2.0]]):
            with pytest.raises(InvalidInputError, match="^an element must be a 1-D array of finite numbers$"):
                Element(np.array(bad))

    def test_an_element_owns_a_read_only_copy(self):
        x = np.array([1.0, 2.0])
        e = Element(x[:])
        x[0] = 5.0
        assert e.data.tolist() == [1.0, 2.0] and not e.data.flags.writeable

    def test_a_power_past_the_float_range_is_one_input_error(self):
        m = OrderedModel.additive(1)
        a = m.element([1e10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(InvalidInputError, match="^an element must be a 1-D array of finite numbers$"):
                m.power(a, 10**300)

    def test_an_exponent_past_the_float_range_is_one_input_error(self):
        # k * a.data would convert k to a double and raise a bare OverflowError
        m = OrderedModel.additive(1)
        a = m.element([1.0])
        for k in (10**400, -(10**400)):
            with pytest.raises(InvalidInputError, match=r"^k must be an integer in \[-"):
                m.power(a, k)

    def test_a_sum_past_the_float_range_is_one_input_error(self):
        m = OrderedModel.additive(2)
        a = m.element([1e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(InvalidInputError, match="^an element must be a 1-D array of finite numbers$"):
                m.compose(a, a)

    def test_constant_comparison(self):
        m = OrderedModel.additive(3)
        assert m.ge(m.element([2, 2, 2]), m.element([1, 1, 1]))

    def test_fails_at_second_site(self):
        m = OrderedModel.additive(2)
        assert not m.ge(m.element([1, 1]), m.element([0.5, 1.5]))

    def test_multiplicative_reflexive(self):
        m = OrderedModel.multiplicative()
        a = m.element(3.0)
        assert m.ge(a, a)

    def test_strict_positive_reflexive_by_equality_clause(self):
        m = OrderedModel.additive(2, OrderVariant.STRICT_POSITIVE)
        a = m.element([1.0, 2.0])
        assert m.ge(a, a)
        assert m.ge(m.element([1.5, 2.5]), a)
        assert not m.ge(m.element([1.5, 2.0]), a)  # not strict at second site

    def test_site_count_mismatch(self):
        m = OrderedModel.additive(2)
        other = OrderedModel.additive(3)
        with pytest.raises(InvalidInputError):
            m.ge(m.element([1, 1]), other.element([1, 1, 1]))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_a_model_without_sites_is_rejected(self, kind):
        # with no sites the oracle would take the min of an empty sequence
        with pytest.raises(InvalidInputError, match="site_count must be an integer >= 1"):
            OrderedModel(kind, 0)
        with pytest.raises(InvalidInputError, match="site_count must be an integer >= 1"):
            OrderedModel.additive(-1)

    def test_enum_parameters_are_members_or_rejected(self):
        # a value string is no member: the oracle builder read "strict-positive"
        # as non-strict while ge read it as strict, and growth_distance computed
        # the pair infimum under the label "prime-pairs"
        with pytest.raises(InvalidInputError, match="^kind must be a member of ModelKind, got 'multiplicative-reals'$"):
            OrderedModel("multiplicative-reals", 1)
        with pytest.raises(InvalidInputError, match="^order_variant must be a member of OrderVariant, got "):
            OrderedModel.additive(2, "strict-positive")
        m = OrderedModel.additive(2, OrderVariant.STRICT_POSITIVE)
        a, b = m.element([2, 1]), m.element([2, 0.5])
        assert not m.ge(a, b) and min_power(m, a, b, 1) == 2
        with pytest.raises(InvalidInputError, match="^method must be a member of Method, got 'prime-pairs'$"):
            growth_distance(m, a, m.element([1, 0.7]), method="prime-pairs")

    def test_bi_invariance_on_random_triples(self):
        # quantized samples keep all sums exact, so the check is bitwise
        rng = item_rng(SEED, 0)
        for variant in OrderVariant:
            m = OrderedModel.additive(6, variant)
            for _ in range(100):
                a, b, c = (m.element(quantized(rng, -2, 2, 6)) for _ in range(3))
                left = m.ge(a, b)
                assert left == m.ge(m.compose(a, c), m.compose(b, c))
                assert left == m.ge(m.compose(c, a), m.compose(c, b))


class TestDominance:
    def test_small_positive_constant_is_dominant(self):
        m = OrderedModel.additive(4)
        a = m.element([0.1] * 4)
        assert min_power(m, a, m.element([5, 7, 1, 3]), 1) == 70
        assert min_power(m, a, m.element([100, 0, 0, 0]), 1) == 1000

    def test_zero_site_blocks_dominance(self):
        m = OrderedModel.additive(3)
        a = m.element([1.0, 0.0, 1.0])
        with pytest.raises(InvalidInputError, match="dominant base; its smallest site is 0.0"):
            min_power(m, a, m.element([1.0, 1.0, 1.0]), 1)

    def test_multiplicative_below_one(self):
        m = OrderedModel.multiplicative()
        a = m.element(0.5)
        with pytest.raises(InvalidInputError, match="dominant base; its smallest site is -0.69"):
            min_power(m, a, m.element(2.0), 1)

    def test_probe_past_the_search_bound_raises(self):
        # the least power of a probe of ratio 2e12 passes the bound 10^12
        m = OrderedModel.additive(2)
        one = m.element([1.0, 1.0])
        assert min_power(m, one, m.element([5e11, 1.0]), 1) == 5 * 10**11
        with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
            min_power(m, one, m.element([2e12, 1.0]), 1)


class TestMinPower:
    def test_additive_example(self):
        m = OrderedModel.additive(3)
        a, b = m.element([1.0] * 3), m.element([2.5] * 3)
        assert oracle_min_power(m, a, b, 2, 1, 10) == 5
        assert min_power(m, a, b, 2) == 5

    def test_equal_elements(self):
        m = OrderedModel.additive(2)
        a = m.element([1.0, 1.0])
        assert min_power(m, a, a, 7) == 7 == oracle_min_power(m, a, a, 7)

    def test_multiplicative_example(self):
        m = OrderedModel.multiplicative()
        a, b = from_log(1.0), from_log(2.0)
        assert oracle_min_power(m, a, b, 3) == 6
        assert min_power(m, a, b, 3) == 6

    def test_negative_exponent(self):
        m = OrderedModel.additive(2)
        a, b = m.element([1.0, 1.0]), m.element([-2.5, -2.5])
        assert min_power(m, a, b, 2) == -5 == oracle_min_power(m, a, b, 2)

    def test_non_dominant_base_rejected(self):
        m = OrderedModel.additive(2)
        with pytest.raises(InvalidInputError, match="dominant base"):
            min_power(m, m.element([0.0, 1.0]), m.element([1.0, 1.0]), 1)

    def test_every_least_integer_inside_the_bound_is_found(self):
        # the integer part runs from 1 down or up to the bound, so each side of the
        # bound is probed; at row n the least exponent is least * n
        bound = ordered._SEARCH_BOUND
        leasts = [c + d for c in (-bound, 0, bound) for d in range(-2, 3)]
        for n in (1, 7):
            for least in leasts:
                holds = threshold_oracle(least, 1, False)
                if abs(least * n) <= bound:
                    assert ordered._bracket(holds, n)[0] == (least, 1)
                else:
                    with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
                        ordered._bracket(holds, n)

    def test_run_is_the_longest_prefix_up_to_the_cap(self):
        for cap in range(0, 40):
            for longest in range(0, 45):
                assert reference_run(lambda j, longest=longest: j <= longest, cap) == min(longest, cap)

    def test_search_bound_carried_in_error(self):
        m = OrderedModel.additive(2)
        a, b = m.element([1.0, 1.0]), m.element([2.5e12, 2.5e12])
        # the least exponent of (a, a, l) is l, so an l past the bound passes it too
        assert min_power(m, a, a, 10**12) == 10**12
        for other, l in ((b, 1), (a, 2 * 10**12)):
            with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
                min_power(m, a, other, l)


class TestRhoPlus:
    def test_multiplicative_closed_form_exact(self):
        m = OrderedModel.multiplicative()
        a, b = from_log(1.0), from_log(2.0)
        for l_max in (10, 100, 400):
            est = rho_plus(m, a, b, l_max)
            assert est.pair_infimum == 2.0
            assert est.limit_estimate == 2.0

    def test_equal_elements_give_one(self):
        m = OrderedModel.additive(3)
        a = m.element([1.5, 0.5, 1.0])
        est = rho_plus(m, a, a, 200)
        assert est.pair_infimum == 1.0
        assert est.limit_estimate == 1.0

    def test_additive_sup_ratio(self):
        m = OrderedModel.additive(4)
        a = m.element([1.0] * 4)
        b = m.element([2.0, 3.5, 1.0, 0.5])
        est = rho_plus(m, a, b, 1000)
        assert 3.5 <= est.pair_infimum <= est.limit_estimate <= 3.5 + 1.0 / 1000

    def test_both_forms_agree_within_inverse_l_max(self):
        rng = item_rng(SEED, 1)
        m = OrderedModel.additive(5)
        for _ in range(25):
            a = m.element(quantized(rng, 0.5, 2.0, 5))
            b = m.element(quantized(rng, 0.5, 2.0, 5))
            est = rho_plus(m, a, b, 300)
            assert est.pair_infimum <= est.limit_estimate <= est.pair_infimum + 1.0 / 300
            oracle = float(np.max(b.data / a.data))
            assert oracle <= est.pair_infimum <= oracle + 1.0 / 300

    @pytest.mark.filterwarnings("error")
    def test_a_site_ratio_overflowing_to_minus_infinity_is_quiet(self):
        # -1 / 5e-324 is -inf in floats; the closed-form check takes the max over sites
        m = OrderedModel.additive(2)
        est = rho_plus(m, m.element([5e-324, 1.0]), m.element([-1.0, 1.0]), 10)
        assert est.pair_infimum == est.limit_estimate == 1.0


def reference_row_holds(model, a, b, k, l):
    """The float row oracle a^k >= b^l that the block search evaluated."""
    ka, lb = float(k) * a.data, float(l) * b.data
    if model.order_variant is OrderVariant.NON_STRICT:
        return bool(np.all(ka >= lb))
    return bool(np.all(ka > lb) or np.all(ka == lb))


def reference_least_true(pred, guess, bound):
    """The exponential-then-binary search of the block search's scalar fallback."""
    if pred(guess):
        hi = guess
        lo = guess - 1
        step = 1
        while pred(lo):
            hi = lo
            lo -= step
            step *= 2
            if lo < -bound:
                if pred(-bound):
                    raise InvalidInputError(f"exponent search exceeded bound {bound}")
                lo = -bound
                break
    else:
        lo = guess
        hi = guess + 1
        step = 1
        while not pred(hi):
            lo = hi
            hi += step
            step *= 2
            if hi > bound:
                raise InvalidInputError(f"exponent search exceeded bound {bound}")
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reference_rows(model, a, b, ls):
    """Reference: the least k of each row l, searched row by row from k = l."""
    return [
        reference_least_true(
            lambda k: reference_row_holds(model, a, b, k, l), l, ordered._SEARCH_BOUND
        )
        for l in ls
    ]


def implied_rows(model, a, b, n, ls):
    """The least k of each row l <= n, read off one Farey bracket at n."""
    (p, q), _ = ordered._bracket(ordered._oracles(model, a, b, True)[0], n)
    return [-(-l * p // q) for l in ls]


def count_oracle_calls(monkeypatch):
    """Count the calls into every oracle built from here on in [0], and the
    builds in [1]: a site pass that builds a pair's two oracles is one build."""
    calls = [0, 0]
    build = ordered._oracles

    def counted(holds):
        def call(k, l):
            calls[0] += 1
            return holds(k, l)

        return StubOracle(holds.threshold, call) if isinstance(holds, ordered._Oracle) else holds

    def counting(model, a, b, negated):
        calls[1] += 1
        return tuple(map(counted, build(model, a, b, negated)))

    monkeypatch.setattr(ordered, "_oracles", counting)
    return calls


def run_order_stream_pool(monkeypatch):
    """One seed-7 pass over the benchmark's order-stream pool."""
    monkeypatch.syspath_prepend(str(BENCH))
    stream = importlib.import_module("order_stream")
    shared = stream.shared_objects(7)
    for index, spec in enumerate(stream.pool_specs(7)):
        stream.run_op(stream.make_entry(7, index, spec, shared), shared)


# thresholds N/D: small fractions, integers around the search bound, and the
# unreduced exact y/x of floats, whose D reaches 2^1074 for a subnormal x
THRESHOLD = st.one_of(
    st.tuples(st.integers(-50, 50), st.integers(1, 50)),
    st.tuples(st.integers(-(10**12) - 3, 10**12 + 3), st.integers(1, 3)),
    st.tuples(POSITIVE_X, st.one_of(st.floats(-1, 1), st.floats(-1e6, 1e6))).map(
        lambda xr: ordered._ratio(xr[0], xr[0] * xr[1])
    ),
    st.tuples(POSITIVE_X, ENTRY).map(lambda xy: ordered._ratio(*xy)),
)

# small numerators make exact ratios, where the strict order fails at the ratio itself
POSITIVE_Q = st.one_of(st.integers(1, 8), st.integers(1, 2**21))
SIGNED_Q = st.one_of(st.integers(-8, 8), st.integers(-(2**21), 2**21))


class TestBatchedSearch:
    """Every least exponent k_l, l <= l_max, comes from one Farey bracket."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["multiplicative", "additive"]),
        st.sampled_from(list(OrderVariant)),
        st.lists(POSITIVE_Q, min_size=4, max_size=4),
        st.lists(SIGNED_Q, min_size=4, max_size=4),
        # k stays below bound / 4, so the reference's doubling never overshoots the bound
        st.lists(st.integers(1, 10**5), min_size=1, max_size=40),
        st.integers(1, 40),
    )
    def test_block_certified_exponents_equal_the_scalar_search(
        self, kind, variant, a_q, b_q, ls, l_max
    ):
        # the rows ceil(l*p/q) of the certified bracket against the row-by-row search
        if kind == "multiplicative":
            m = OrderedModel.multiplicative(variant)
            a, b = from_log(a_q[0] * QUANTUM), from_log(b_q[0] * QUANTUM)
        else:
            m = OrderedModel.additive(4, variant)
            a, b = m.element(np.asarray(a_q) * QUANTUM), m.element(np.asarray(b_q) * QUANTUM)
        assert implied_rows(m, a, b, max(ls), ls) == reference_rows(m, a, b, ls)
        ks = reference_rows(m, a, b, range(1, l_max + 1))
        est = rho_plus(m, a, b, l_max)
        assert est.pair_infimum == min(k / l for l, k in enumerate(ks, start=1))
        assert est.limit_estimate == ks[-1] / l_max

    def test_l_max_spanning_several_blocks(self):
        # 549 rows, so the bracket's denominator search runs through several steps
        rng = item_rng(SEED, 6)
        l_max = 549
        for variant in OrderVariant:
            m = OrderedModel.additive(6, variant)
            a = m.element(quantized(rng, 0.5, 2.0, 6))
            b = m.element(quantized(rng, 0.5, 2.0, 6))
            ks = [min_power(m, a, b, l) for l in range(1, l_max + 1)]
            assert reference_rows(m, a, b, range(1, l_max + 1)) == ks
            est = rho_plus(m, a, b, l_max)
            assert est.limit_estimate == ks[-1] / l_max
            assert est.pair_infimum == min(k / l for l, k in enumerate(ks, start=1))

    def test_strict_exact_ratio_is_left_out(self):
        # 2l * 1 == l * 2 at the first site only, so k = 2l fails and 2l + 1 holds
        m = OrderedModel.additive(2, OrderVariant.STRICT_POSITIVE)
        a, b = m.element([1.0, 1.0]), m.element([2.0, 1.0])
        assert reference_rows(m, a, b, range(1, 51)) == [2 * l + 1 for l in range(1, 51)]
        for n in (1, 7, 50, 10**5, 10**11):
            assert implied_rows(m, a, b, n, [1, n]) == [3, 2 * n + 1]
            est = rho_plus(m, a, b, n)
            assert est.pair_infimum == est.limit_estimate == (2 * n + 1) / n

    def test_each_bracket_makes_two_oracle_calls(self, monkeypatch):
        # the descent runs on the threshold; only the certificate asks the oracle
        model, pairs = growth_pair_corpus(7)
        calls = count_oracle_calls(monkeypatch)
        for a, b in pairs[:20]:
            for search in (rho_plus, min_power):
                for n in (1, 10**3, 10**11):
                    calls[:] = [0, 0]
                    search(model, a, b, n)
                    assert calls == [2, 1], (search.__name__, n)

    def test_order_stream_pool_oracle_counts_are_pinned(self, monkeypatch):
        # the counts follow from the descent alone, so they hold on every machine
        counts = count_oracle_calls(monkeypatch)
        run_order_stream_pool(monkeypatch)
        assert counts == [232, 66]

    def test_order_stream_pool_prime_windows_are_pinned(self, monkeypatch):
        # the least exponents the prime pass looks up: a machine-free count of
        # the prime-pair work, which keeps only the primes whose least exponent
        # is at most the largest prime below the bound
        seen = captured_prime_lookups(monkeypatch)
        run_order_stream_pool(monkeypatch)
        assert sum(len(k_min) for k_min, _ in seen) == 13_807

    def test_bracket_is_exact_where_float_products_round(self):
        # at n = 10^11 the products k * a of quantized sites pass 2^53, so a float
        # oracle misplaces the bracket; the certificate is rechecked here in Fractions
        model, pairs = growth_pair_corpus(7)
        n = 10**11
        for a, b in pairs[:10]:
            rate = max(Fraction(y) / Fraction(x) for x, y in zip(a.data.tolist(), b.data.tolist()))
            (p, q), (p_lo, q_lo) = ordered._bracket(ordered._oracles(model, a, b, False)[0], n)
            assert Fraction(p_lo, q_lo) < rate <= Fraction(p, q)
            assert q <= n < q + q_lo and p * q_lo - p_lo * q == 1

    def test_peak_memory_does_not_grow_with_l_max(self):
        rng = item_rng(SEED, 7)
        m = OrderedModel.additive(64)
        a = m.element(quantized(rng, 0.5, 2.0, 64))
        b = m.element(quantized(rng, 0.5, 2.0, 64))
        peaks = []
        for l_max in (10**3, 10**9):
            tracemalloc.start()
            try:
                rho_plus(m, a, b, l_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_closed_form_outside_the_bracket_is_a_violation(self, monkeypatch):
        m = OrderedModel.additive(2)
        a, b = m.element([1.0, 1.0]), m.element([2.0, 1.0])
        exact = ordered._oracles
        # an oracle for b + b certifies its own bracket around 4, which max(b/a) = 2 misses
        monkeypatch.setattr(
            ordered, "_oracles", lambda model, x, y, negated: exact(model, x, model.compose(y, y), negated)
        )
        with pytest.raises(InvariantViolation, match="closed-form rate"):
            rho_plus(m, a, b, 100)

    def test_an_oracle_disagreeing_with_its_threshold_fails_the_certificate(self):
        # the threshold 3/7 steers the descent to 2/5 < 3/7 at n = 10; each call
        # below answers otherwise at one end of that bracket
        calls = [
            lambda k, l: not 7 * k >= 3 * l,  # negated
            lambda k, l: 7 * k > 3 * l,  # strict, so it fails at 3/7 itself
            lambda k, l: 5 * k >= 2 * l,  # the threshold 2/5, so it holds at 2/5
        ]
        for call in calls:
            with pytest.raises(InvariantViolation, match="certificate"):
                ordered._bracket(StubOracle((3, 7, False), call), 10)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-50, 50), st.integers(1, 50), st.booleans(), st.integers(1, 60))
    def test_bracket_is_the_least_fraction_with_a_small_denominator(self, num, den, strict, n):
        holds = threshold_oracle(num, den, strict)
        (p, q), (p_lo, q_lo) = ordered._bracket(holds, n)
        # the least k of row l lies within 2 of l*num/den
        brute = min(
            Fraction(next(k for k in range(l * num // den - 2, l * num // den + 3) if holds(k, l)), l)
            for l in range(1, n + 1)
        )
        assert Fraction(p, q) == brute and q <= n
        assert not holds(p_lo, q_lo) and p * q_lo - p_lo * q == 1 and q + q_lo > n

    @settings(max_examples=300, deadline=None)
    @given(THRESHOLD, st.booleans(), st.one_of(st.integers(1, 60), st.integers(1, 10**12), st.just(10**12)))
    def test_division_bracket_matches_the_oracle_search(self, threshold, strict, n):
        # the descent by division against the parent's galloping search through the oracle
        oracle = threshold_oracle(*threshold, strict)
        try:
            expected = reference_bracket(oracle, n)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
                ordered._bracket(oracle, n)
            return
        assert ordered._bracket(oracle, n) == expected

    @settings(max_examples=300, deadline=None)
    @given(THRESHOLD, st.booleans(), st.integers(1, 2**64), st.one_of(st.integers(1, 60), st.integers(1, 10**12)))
    def test_bracket_does_not_depend_on_the_threshold_terms(self, threshold, strict, g, n):
        # _oracles hands _bracket N/D in lowest terms; g*N over g*D gives the same bracket
        num, den = threshold
        outcomes = [outcome(ordered._bracket, threshold_oracle(c * num, c * den, strict), n) for c in (1, g)]
        assert outcomes[0] == outcomes[1]

    def test_search_bound_is_exact_on_the_extreme_exponents(self):
        m = OrderedModel.additive(1)
        one = m.element([1.0])
        bound = ordered._SEARCH_BOUND
        cases = [  # (b, l_max, max |k_l| over l <= l_max)
            (4.0, bound // 4, bound),
            (4.0, bound // 4 + 1, bound + 4),
            (-4.0, bound // 4, bound),
            (-4.0, bound // 4 + 1, bound + 4),
            (float(bound), 1, bound),
            (float(bound + 1), 1, bound + 1),
            (1.5 * bound, 1, 1.5 * bound),  # found by the integer-part search, past the bound
        ]
        for value, l_max, extreme in cases:
            b = m.element([value])
            if extreme > bound:
                with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
                    rho_plus(m, one, b, l_max)
            else:
                est = rho_plus(m, one, b, l_max)
                assert abs(est.limit_estimate * l_max) == extreme

    def test_non_finite_seed_raises_search_bound(self):
        m = OrderedModel.additive(2)
        with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
            rho_plus(m, m.element([1e-300, 1.0]), m.element([1.0, 1.0]), 10)

    @pytest.mark.filterwarnings("error")
    def test_seed_beyond_the_bound_raises_search_bound(self):
        m = OrderedModel.multiplicative()
        with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
            rho_plus(m, from_log(1e-300), from_log(1.0), 10)
        with pytest.raises(InvalidInputError, match=SEARCH_BOUND):  # l * log b overflows to inf
            rho_plus(m, from_log(1e-10), from_log(1e308), 10)


def reference_rho_plus_primes(model, a, b, prime_bound):
    """The earlier definition, one prime at a time on Python ints behind the
    same bracket: each witness is the first prime in the window
    [k, k + floor(k^0.6)] above the least exponent k, capped at the bound."""
    table = PrimeTable(prime_bound)
    (num, den), _ = ordered._bracket(ordered._oracles(model, a, b, False)[0], prime_bound)
    ratios = []
    for q in table.primes.tolist():
        k = -(-q * num // den)
        p = table.first_prime_in(k, min(k + int(k**ordered.PRIME_WINDOW_EXPONENT) if k > 0 else 2, prime_bound))
        if p is not None:
            ratios.append(p / q)
    if not ratios:
        raise InvalidInputError(f"no prime ordering pair found with entries <= {prime_bound}")
    return min(ratios)


class PrimeLookups(np.ndarray):
    """A table's primes that record each array lookup as (k, the first prime
    at or after each k) in ``seen``."""

    seen: list = []

    def searchsorted(self, v, side="left", sorter=None):
        found = super().searchsorted(v, side, sorter)
        if np.ndim(v):
            self.seen.append((np.array(v), self.view(np.ndarray)[found]))
        return found


def captured_prime_lookups(monkeypatch):
    """Record the least exponents the prime pass looks up, and the primes it
    finds, in every PrimeTable built from here on."""
    seen = []
    monkeypatch.setattr(PrimeLookups, "seen", seen)
    build = PrimeTable.__init__

    def spied(table, bound):
        build(table, bound)
        table.primes = table.primes.view(PrimeLookups)

    monkeypatch.setattr(PrimeTable, "__init__", spied)
    monkeypatch.setattr(ordered, "prime_table", functools.lru_cache(maxsize=1)(PrimeTable))
    return seen


def first_primes_at_or_after(table, ks):
    return [table.first_prime_in(k, table.bound) for k in ks]


class TestRhoPlusPrimes:
    def test_multiplicative_matches_brute_force(self):
        m = OrderedModel.multiplicative()
        a, b = from_log(1.0), from_log(2.0)
        value = rho_plus_primes(m, a, b, 10_000)
        assert value == oracle_prime_infimum(m, a, b, 10_000)
        assert 2.0 <= value <= 2.05

    def test_equal_constants_give_one(self):
        m = OrderedModel.additive(2)
        a = m.element([1.25, 1.25])
        assert rho_plus_primes(m, a, a, 100) == 1.0  # pairs (p, p)

    def test_additive_sup_ratio_within_band(self):
        m = OrderedModel.additive(4)
        a = m.element([1.0] * 4)
        b = m.element([2.0, 3.5, 1.0, 0.5])
        value = rho_plus_primes(m, a, b, 10_000)
        assert value == oracle_prime_infimum(m, a, b, 10_000)
        assert abs(value - 3.5) <= 0.05

    def test_prime_pairs_dominate_all_pairs(self):
        # prime ordering pairs are a subset of all ordering pairs
        rng = item_rng(SEED, 2)
        m = OrderedModel.additive(4)
        for _ in range(5):
            a = m.element(quantized(rng, 0.5, 2.0, 4))
            b = m.element(quantized(rng, 0.5, 2.0, 4))
            bound = 2000
            prime_value = rho_plus_primes(m, a, b, bound)
            all_pairs = rho_plus(m, a, b, bound).pair_infimum
            assert prime_value >= all_pairs - 1e-12

    def test_requires_dominant_inputs(self, monkeypatch):
        # a bad a or b fails before any sieve
        def no_sieve(bound):
            raise AssertionError(f"prime_table({bound}) was called")

        monkeypatch.setattr(ordered, "prime_table", no_sieve)
        m = OrderedModel.additive(2)
        for a, b, smallest in (([0, 1], [1, 1], "0.0"), ([1, 1], [-1, -1], "-1.0")):
            with pytest.raises(InvalidInputError, match=f"dominant base; its smallest site is {smallest}$"):
                rho_plus_primes(m, m.element(a), m.element(b), 100)

    def test_result_does_not_depend_on_table_size(self):
        m = OrderedModel.multiplicative()
        a, b = m.element(3.0), m.element(2.0)
        expected = oracle_prime_infimum(m, a, b, 100)
        assert expected == 7 / 11
        assert rho_plus_primes(m, a, b, 100) == expected
        for size in (100, 101, 100_000):
            assert rho_plus_primes(m, a, b, 100, table=PrimeTable(size)) == expected

    def test_no_pair_below_the_bound_raises(self):
        m = OrderedModel.multiplicative()
        with pytest.raises(InvalidInputError, match="^no prime ordering pair found"):
            rho_plus_primes(m, m.element(2.0), m.element(1000.0), 3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["multiplicative", "additive"]),
        st.sampled_from(list(OrderVariant)),
        st.integers(1, 64),
        st.integers(2, 10**4),
        st.sampled_from([0, 0, 1, 30, 10**4]),
        st.lists(POSITIVE_Q, min_size=2, max_size=2),
        st.integers(0, 2**32),
    )
    def test_array_pass_matches_the_per_prime_lists(self, kind, variant, sites, bound, extra, logs, key):
        # the pass matches the windowed definition bit for bit, also on a
        # caller's table that reaches past the bound
        if kind == "multiplicative":
            m = OrderedModel.multiplicative(variant)
            a, b = from_log(logs[0] * QUANTUM), from_log(logs[1] * QUANTUM)
        else:
            rng = item_rng(key, 3)
            m = OrderedModel.additive(sites, variant)
            # rates from about 1/200 to 200: b's scale is drawn apart from a's
            scale = float(rng.choice([0.005, 0.1, 1.0, 10.0, 100.0]))
            a = m.element(quantized(rng, 0.5, 2.0, sites))
            steps = np.round(quantized(rng, 0.5, 2.0, sites) * scale / QUANTUM)
            b = m.element(np.maximum(steps, 1) * QUANTUM)
        with pytest.MonkeyPatch.context() as patch:
            seen = captured_prime_lookups(patch)
            table = PrimeTable(bound + extra)
            try:
                expected = reference_rho_plus_primes(m, a, b, bound)
            except InvalidInputError:
                with pytest.raises(InvalidInputError, match="^no prime ordering pair found"):
                    rho_plus_primes(m, a, b, bound, table=table)
                assert seen == []  # no prime survives the cut: no lookup
                return
            assert rho_plus_primes(m, a, b, bound, table=table).hex() == expected.hex()
        (k_min, ps), = seen
        top = PrimeTable(bound).primes[-1]
        assert k_min.max() <= top  # no lookup passes the largest prime below the bound
        assert ps.tolist() == first_primes_at_or_after(PrimeTable(bound), k_min.tolist())

    def test_least_exponents_do_not_overflow_int64(self, monkeypatch):
        m = OrderedModel.additive(1)
        a, b = m.element([1.0]), m.element([99923.5584980821])
        bound = 10**7
        num, den = 942316028430, 9430369
        assert ordered._bracket(ordered._oracles(m, a, b, False)[0], bound)[0] == (num, den)
        seen = captured_prime_lookups(monkeypatch)
        table = PrimeTable(bound)
        qs = table.primes.tolist()
        top = qs[-1]
        assert top == 9_999_991
        assert qs[-1] * num > np.iinfo(np.int64).max  # the product of an uncut prime would wrap
        rho_plus_primes(m, a, b, bound, table=table)
        (k_min, ps), = seen
        kept = [q for q in qs if q * num <= top * den]
        assert len(kept) == len(k_min) < len(qs)
        assert k_min.tolist() == [-(-q * num // den) for q in kept]
        assert max(k_min.tolist()) <= top
        assert all(-(-q * num // den) > top for q in qs[len(kept) :])
        assert ps.tolist() == first_primes_at_or_after(table, k_min.tolist())

    def test_numpy_window_powers_match_python_floats(self):
        # every k up to 10^6, and the k up to 10^8 whose 0.6-th power lies
        # within rounding of an integer, where a floor could flip
        near = np.arange(1, math.floor((10**8) ** 0.6) + 1) ** (5 / 3)
        ks = np.concatenate([
            np.arange(1, 10**6 + 1),
            (np.round(near)[:, None] + np.arange(-2, 3)).ravel().astype(np.int64),
        ])
        ks = ks[(ks >= 1) & (ks <= 10**8)]
        fast = np.floor(ks.astype(np.float64) ** ordered.PRIME_WINDOW_EXPONENT).astype(np.int64)
        assert fast.tolist() == [int(k**ordered.PRIME_WINDOW_EXPONENT) for k in ks.tolist()]

    def test_every_start_up_to_ten_million_finds_its_prime_in_the_window(self):
        # the finite check behind the window-free pass: the first prime at or
        # after every m in [1, 10^7] lies in [m, m + floor(m^0.6)]. Over the
        # starts whose first prime is the one p_(i+1), the window's end grows
        # with m, so the hardest is the least, p_i + 1, or 1 before 2
        primes = PrimeTable(10**7 + 100).primes  # 10000019, after the last start, is in it
        starts = np.concatenate([[1], primes[:-1] + 1])
        firsts = primes[starts <= 10**7]
        starts = starts[starts <= 10**7]
        assert firsts[-1] > 10**7  # the last gap covers 10^7
        ends = starts + np.floor(starts.astype(np.float64) ** ordered.PRIME_WINDOW_EXPONENT).astype(np.int64)
        assert (firsts <= ends).all()
        assert (ends - firsts).min() == 0  # tight, at m = 1 and m = 8


def substitute_rate_pairs(monkeypatch, pairs):
    """Make every method of growth_distance read its two rates off ``pairs``:
    the brackets' upper ends, and the prime pairs in the order they are asked for."""
    monkeypatch.setattr(ordered, "growth_brackets", lambda *args: tuple((pair, (0, 1)) for pair in pairs))
    rest = iter(pairs)
    monkeypatch.setattr(ordered, "_prime_pair", lambda *args: next(rest))


class TestGrowthDistance:
    def test_self_distance_zero(self):
        m = OrderedModel.additive(3)
        a = m.element([0.5, 1.5, 1.0])
        assert growth_distance(m, a, a, 200).distance == 0.0

    def test_multiplicative_anchor(self):
        m = OrderedModel.multiplicative()
        report = growth_distance(m, from_log(1.0), from_log(2.0), 100)
        assert report.rho_plus == 2.0
        assert report.rho_minus == 0.5
        assert report.gamma == 2.0
        assert report.distance == math.log(2.0)

    def test_product_inequality_on_random_dominants(self):
        rng = item_rng(SEED, 3)
        m = OrderedModel.additive(6)
        for _ in range(20):
            a = m.element(quantized(rng, 0.5, 2.0, 6))
            b = m.element(quantized(rng, 0.5, 2.0, 6))
            report = growth_distance(m, a, b, 300)
            assert report.rho_plus * report.rho_minus >= 1.0 - 2.0 / 300

    def test_prime_pairs_method(self):
        m = OrderedModel.multiplicative()
        report = growth_distance(
            m, from_log(1.0), from_log(2.0), method=Method.PRIME_PAIRS
        )
        assert abs(report.gamma - 2.0) <= 0.05

    def test_requires_dominants(self):
        # the oracle builder rejects either bad element with one message under every method
        m = OrderedModel.additive(2)
        good, weak = m.element([1, 1]), m.element([0, 1])
        for method in Method:
            for a, b in ((weak, good), (good, weak)):
                with pytest.raises(InvalidInputError, match="dominant base; its smallest site is 0.0$"):
                    growth_distance(m, a, b, 100, method, prime_bound=100)

    @pytest.mark.parametrize("method", list(Method))
    def test_a_non_dominant_b_precedes_a_ratio_past_the_search_bound(self, method):
        # the site -1 of b is rejected before any bracket meets the ratio 2e12
        m = OrderedModel.additive(2)
        a, b = m.element([1.0, 1.0]), m.element([-1.0, 2e12])
        with pytest.raises(InvalidInputError, match="dominant base; its smallest site is -1.0$"):
            growth_distance(m, a, b, 100, method, prime_bound=100)

    def test_prime_pairs_distances_at_one_bound_sieve_once(self, monkeypatch):
        builds = []
        init = PrimeTable.__init__
        monkeypatch.setattr(PrimeTable, "__init__", lambda table, bound: builds.append(bound) or init(table, bound))
        prime_table.cache_clear()
        m = OrderedModel.multiplicative()
        a, b = from_log(1.0), from_log(2.0)
        reports = [growth_distance(m, a, b, method=Method.PRIME_PAIRS, prime_bound=5000) for _ in range(2)]
        assert builds == [5000]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("method", list(Method))
    def test_rates_below_the_product_inequality_are_a_violation(self, method, monkeypatch):
        # rates of 1/2 each way give the product 1/4, far below 1; at l_max = 4
        # the rates 1 and 1/2 give exactly 1 - 2/l_max, which a float check
        # with that tolerance would pass. Under the limit sequence the brackets
        # give ceil(l_max*p/q)/l_max, the same rates
        for l_max, pairs in ((100, ((1, 2), (1, 2))), (4, ((1, 1), (1, 2)))):
            substitute_rate_pairs(monkeypatch, pairs)
            m = OrderedModel.additive(2)
            a = m.element([1.0, 1.0])
            with pytest.raises(InvariantViolation, match="product inequality"):
                growth_distance(m, a, a, l_max, method)

    @pytest.mark.parametrize("method", list(Method))
    def test_rates_at_the_product_inequality_bound_hold(self, method, monkeypatch):
        # the pairs 2/1 and 1/2 give the integer product 2 * 1 = 1 * 2 exactly, which holds
        substitute_rate_pairs(monkeypatch, ((2, 1), (1, 2)))
        m = OrderedModel.additive(2)
        a = m.element([1.0, 1.0])
        report = growth_distance(m, a, a, 4, method)
        assert (report.rho_plus, report.rho_minus, report.gamma) == (2.0, 0.5, 2.0)

    def test_l_max_at_the_largest_double_is_accepted(self):
        # no double is derived from l_max, so it has no float cap: under prime
        # pairs it is only reported, and under the brackets a large one meets
        # the search bound
        m = OrderedModel.additive(2)
        a, b = m.element([1.0, 1.0]), m.element([2.0, 1.0])
        rates = vars(growth_distance(m, a, b, 1000, Method.PRIME_PAIRS, prime_bound=100))
        for l_max in (int(sys.float_info.max), int(sys.float_info.max) + 1, 10**400):
            report = growth_distance(m, a, b, l_max, Method.PRIME_PAIRS, prime_bound=100)
            assert vars(report) == dict(rates, l_max=l_max)
        for method in (Method.PAIR_INFIMUM, Method.LIMIT_SEQUENCE):
            with pytest.raises(InvalidInputError, match=SEARCH_BOUND):
                growth_distance(m, a, b, 10**400, method)


def outcome(call, *args):
    """A call's result, or its package error's type and message."""
    try:
        return call(*args)
    except CbmlabError as exc:
        return type(exc), str(exc)


# positive reals below and above 1, so bases of either sign of ln v
POSITIVE_V = st.one_of(
    st.sampled_from([5e-324, 0.5, 1.0, 1.0 + 2**-52, 2.0, math.e, 1e300]),
    st.floats(min_value=5e-324, max_value=1e300),
)


class TestLogIsomorphism:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(OrderVariant)),
        st.sampled_from(list(Method)),
        POSITIVE_V,
        POSITIVE_V,
        st.integers(1, 10**4),
        st.integers(2, 2000),
        st.integers(1, 10**6),
    )
    def test_multiplicative_reals_are_the_one_site_model_in_logs(
        self, variant, method, va, vb, l_max, bound, l
    ):
        # ln is an order isomorphism from (R>0, *) onto (R, +), so every answer
        # on v equals the one on [ln v], errors included
        mult, grid = OrderedModel.multiplicative(variant), OrderedModel.additive(1, variant)
        a, b = mult.element(va), mult.element(vb)
        la, lb = grid.element([math.log(va)]), grid.element([math.log(vb)])
        assert outcome(growth_distance, mult, a, b, l_max, method, bound) == outcome(
            growth_distance, grid, la, lb, l_max, method, bound
        )
        assert outcome(min_power, mult, a, b, l) == outcome(min_power, grid, la, lb, l)

    @settings(max_examples=200, deadline=None)
    @given(POSITIVE_V, POSITIVE_V, st.integers(1, 10**4))
    def test_norms_of_multiplicative_reals_are_the_one_site_norms_in_logs(self, vb, va, l_max):
        mult, grid = OrderedModel.multiplicative(), OrderedModel.additive(1)
        base, arg = mult.element(vb), mult.element(va)
        lbase, larg = grid.element([math.log(vb)]), grid.element([math.log(va)])

        def norm_outcome(base, arg):
            answer = outcome(norms.norm, base, arg)
            return answer.to_json_dict() if isinstance(answer, norms.NormReport) else answer

        assert norm_outcome(base, arg) == norm_outcome(lbase, larg)
        assert outcome(norms.stabilization, base, arg, l_max) == outcome(
            norms.stabilization, lbase, larg, l_max
        )


class TestPseudoMetricAxioms:
    def test_axioms_on_randomized_triples(self):
        rng = item_rng(SEED, 4)
        m = OrderedModel.additive(5)
        l_max = 200
        tol = 3.0 / l_max
        for _ in range(100):
            a, b, c = (m.element(quantized(rng, 0.5, 2.0, 5)) for _ in range(3))
            dab = growth_distance(m, a, b, l_max).distance
            dba = growth_distance(m, b, a, l_max).distance
            dbc = growth_distance(m, b, c, l_max).distance
            dac = growth_distance(m, a, c, l_max).distance
            assert growth_distance(m, a, a, l_max).distance == 0.0
            assert dab == dba
            assert dac <= dab + dbc + tol

    def test_order_variant_monotonicity(self):
        # the strict order refines the non-strict one, so distances only grow
        rng = item_rng(SEED, 5)
        l_max = 200
        loose = OrderedModel.additive(5, OrderVariant.NON_STRICT)
        strict = OrderedModel.additive(5, OrderVariant.STRICT_POSITIVE)
        for _ in range(30):
            values = [quantized(rng, 0.5, 2.0, 5) for _ in range(2)]
            d_loose = growth_distance(
                loose, loose.element(values[0]), loose.element(values[1]), l_max
            ).distance
            d_strict = growth_distance(
                strict, strict.element(values[0]), strict.element(values[1]), l_max
            ).distance
            assert d_strict >= d_loose - 2.0 / l_max


def test_a_non_integer_bound_is_rejected_at_every_entry_point(monkeypatch):
    # a float bound ran the integer Farey descent in floats: min_power(..., 2.5)
    # gave 4.0; a bool, numpy bool, integral float or string is no integer either
    m = OrderedModel.additive(3)
    a, b = m.element([1.0] * 3), m.element([2.5] * 3)
    domain = SplitToricDomain(2, ball(1.0, DirectionGrid.uniform_circle(64)))
    entries = [
        lambda n: min_power(m, a, b, n),
        lambda n: rho_plus(m, a, b, n),
        lambda n: rho_plus_primes(m, a, b, n),
        lambda n: norms.stabilization(a, b, n),
        lambda n: growth_distance(m, a, b, 100, Method.PRIME_PAIRS, n),
        *(lambda n, method=method: growth_distance(m, a, b, n, method) for method in Method),
        lambda n: m.power(a, n),
        OrderedModel.additive,
        lambda n: rescale_cover(domain, n),
        lambda n: SplitToricDomain(n, domain.fiber),
        lambda n: SplitToricDomain(2, domain.fiber, cover=n),
        lambda n: SampledManifold(np.ones(4), half_dim=n),
        PrimeTable,
        lambda n: run_acceptance(seed=n),
    ]
    # each is rejected before the work it drives: no norm, no sieve
    monkeypatch.setattr(norms, "norm", lambda *args: pytest.fail("norm ran"))
    misses = prime_table.cache_info().misses
    for value in (2.5, 100.5, True, np.True_, np.float64(3.0), "3"):
        for entry in entries:
            with pytest.raises(InvalidInputError, match="integer"):
                entry(value)
    assert prime_table.cache_info().misses == misses
    monkeypatch.undo()
    assert min_power(m, a, b, np.int64(2)) == 5
    # a numpy bound is read as a Python int: no fixed-width overflow in the oracle
    one = OrderedModel.additive(1)
    x, y = one.element([1.0]), one.element([1.2345678912345])
    expected = rho_plus(one, x, y, 10**6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound in (np.int64(10**6), np.int32(10**6)):
            estimate = rho_plus(one, x, y, bound)
            assert [type(v) for v in vars(estimate).values()] == [float, float]
            assert estimate == expected


def test_an_integer_too_long_to_print_is_one_input_error():
    # repr refuses an int past the interpreter's digit limit with a ValueError
    m = OrderedModel.additive(1)
    a = m.element([1.0])
    big = 10**5000
    calls = [
        (lambda: run_acceptance(seed=big), "a 16610-bit int"),
        (lambda: run_acceptance(seed=-big), "a negative 16610-bit int"),
        (lambda: rho_plus(m, a, a, -big), "a negative 16610-bit int"),
        (lambda: min_power(m, a, a, -big), "a negative 16610-bit int"),
    ]
    for call, shown in calls:
        with pytest.raises(InvalidInputError, match=f"got {shown}$") as info:
            call()
        assert len(str(info.value)) < 100


def parent_bracket(oracle, n):
    """_bracket as it stood before its steps kept the slack and deficit up to
    date: each step recomputes both from p/q and p_lo/q_lo and caps with min()."""
    num, den, strict = oracle.threshold
    k = num // den + 1 if strict else -(-num // den)
    if abs(k) > ordered._SEARCH_BOUND:
        raise InvalidInputError(f"exponent search exceeded bound {ordered._SEARCH_BOUND}")
    (p_lo, q_lo), (p, q) = (k - 1, 1), (k, 1)
    while q + q_lo <= n:
        cap, t = (n - q) // q_lo, q_lo * num - p_lo * den
        j = min(cap, (p * den - q * num - strict) // t) if t else cap
        p, q = p + j * p_lo, q + j * q_lo
        cap, s = (n - q_lo) // q, p * den - q * num
        i = min(cap, (t - (not strict)) // s) if s else cap
        p_lo, q_lo = p_lo + i * p, q_lo + i * q
    if not (oracle(p, q) and not oracle(p_lo, q_lo) and p * q_lo - p_lo * q == 1 and q + q_lo > n):
        raise InvariantViolation(f"Farey bracket {p_lo}/{q_lo} < {p}/{q} fails its certificate at n={n}")
    if abs(-(-n * p // q)) > ordered._SEARCH_BOUND:
        raise InvalidInputError(f"exponent search exceeded bound {ordered._SEARCH_BOUND}")
    return (p, q), (p_lo, q_lo)


def separate_partner(model, a, b, negated):
    """The partner's threshold as the first oracle of the swapped pair, (b, a),
    or of (a, b^-1) if negated: the one loop's bottom extreme checked against
    its top extreme."""
    if negated:
        return ordered._oracles(model, a, model.inverse(b), True)[0].threshold
    return ordered._oracles(model, b, a, True)[0].threshold


class TestOneSitePass:
    """_oracles builds a pair's oracle and its partner's from one site pass."""

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.booleans())
    def test_partners_equal_separate_builds(self, data, dominant_b):
        # both kinds and variants, ties, one ratio at every site, subnormal and huge sites
        m, xs, _, a, b = draw_pair(data, "dominant")
        if dominant_b:  # so the swapped partner exists
            b = Element(data.draw(st.lists(POSITIVE_X, min_size=len(xs), max_size=len(xs))))
        for negated in (False, True):
            if not negated and (smallest := min(b.data.tolist())) <= 0:  # (b, a) has no oracle
                with pytest.raises(InvalidInputError, match="dominant base") as err:
                    ordered._oracles(m, a, b, negated)
                assert str(err.value).endswith(f"its smallest site is {smallest!r}")
                assert not dominant_b
                continue
            oracle, partner = ordered._oracles(m, a, b, negated)
            assert oracle.threshold == ordered._oracles(m, a, b, True)[0].threshold
            assert partner.threshold == separate_partner(m, a, b, negated)

    @pytest.mark.parametrize("variant", list(OrderVariant))
    @pytest.mark.parametrize(
        "xs, ys",
        [
            ([3.0, 1.0, 3.0, 1.0], [1.0, 1 / 3, 3.0, 1.0]),  # fl(1/3) and 1/3 tie at the bottom, 1 and 1 at the top
            ([1.0, 2.0, 0.5], [2.0, 4.0, 1.0]),  # one ratio at every site
            ([5e-324, 1e300, 3e-310], [1e300, 5e-324, 3e-310]),  # ratios overflow and underflow
            ([1.0, 3.0], [1 / 3, 1.0]),  # one float ratio, two exact ones
            ([2.0], [7.0]),
        ],
    )
    def test_ties_and_extreme_sites(self, variant, xs, ys):
        m = OrderedModel.additive(len(xs), variant)
        a, b = Element(xs), Element(ys)
        for negated in (False, True):
            oracle, partner = ordered._oracles(m, a, b, negated)
            assert oracle.threshold == ordered._oracles(m, a, b, not negated)[0].threshold
            assert partner.threshold == separate_partner(m, a, b, negated)

    @settings(max_examples=300, deadline=None)
    @given(THRESHOLD, st.booleans(), st.sampled_from([1, 7, 10**3, 10**4, 10**11]))
    def test_bracket_steps_match_the_parent_loop(self, threshold, strict, n):
        oracle = threshold_oracle(*threshold, strict)
        assert outcome(ordered._bracket, oracle, n) == outcome(parent_bracket, oracle, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(list(Method)), st.integers(1, 10**4))
    def test_growth_distance_gives_the_two_separate_rates(self, data, method, l_max):
        # answers and errors (type, message and order) of one rate call each way,
        # for a dominant b; any other b is rejected before any bracket or sieve
        m, _, ys, a, b = draw_pair(data, "dominant")
        if (smallest := min(ys)) <= 0:
            with pytest.raises(InvalidInputError, match="dominant base") as err:
                growth_distance(m, a, b, l_max, method, 200)
            assert str(err.value).endswith(f"its smallest site is {smallest!r}")
            return

        def separate():
            if method is Method.PRIME_PAIRS:
                return rho_plus_primes(m, a, b, 200), rho_plus_primes(m, b, a, 200)
            forward, backward = rho_plus(m, a, b, l_max), rho_plus(m, b, a, l_max)
            if method is Method.LIMIT_SEQUENCE:
                return forward.limit_estimate, backward.limit_estimate
            return forward.pair_infimum, backward.pair_infimum

        report = outcome(growth_distance, m, a, b, l_max, method, 200)
        if isinstance(report, ordered.GrowthRateReport):
            report = report.rho_plus, report.rho_minus
        assert report == outcome(separate)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_norm_gives_the_two_separate_least_exponents(self, data):
        m, xs, _, a, b = draw_pair(data, "dominant")
        report = outcome(norms.norm, a, b)
        if isinstance(report, norms.NormReport):
            report = report.nu_plus, report.nu_minus
        model = OrderedModel.additive(len(xs))
        separate = outcome(lambda: (min_power(model, a, b, 1), -min_power(model, a, model.inverse(b), 1)))
        assert report == separate
