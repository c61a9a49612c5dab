import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab import ordered
from cbmlab.acceptance import QUANTUM, item_rng, quantized
from cbmlab.errors import (
    InvalidInputError,
    PreconditionError,
    PrimePairError,
    SearchBoundError,
)
from cbmlab.ordered import (
    Method,
    OrderedModel,
    OrderVariant,
    ge,
    growth_distance,
    is_dominant,
    min_power,
    rho_plus,
    rho_plus_primes,
)
from cbmlab.primes import PrimeTable

SEED = 1234  # Philox key of this file's draws


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


class TestOracle:
    def test_constant_comparison(self):
        m = OrderedModel.additive(3)
        assert ge(m, m.element([2, 2, 2]), m.element([1, 1, 1]))

    def test_fails_at_second_site(self):
        m = OrderedModel.additive(2)
        assert not ge(m, m.element([1, 1]), m.element([0.5, 1.5]))

    def test_multiplicative_reflexive(self):
        m = OrderedModel.multiplicative()
        a = m.element(3.0)
        assert ge(m, a, a)

    def test_strict_positive_reflexive_by_equality_clause(self):
        m = OrderedModel.additive(2, OrderVariant.STRICT_POSITIVE)
        a = m.element([1.0, 2.0])
        assert ge(m, a, a)
        assert ge(m, m.element([1.5, 2.5]), a)
        assert not ge(m, m.element([1.5, 2.0]), a)  # not strict at second site

    def test_site_count_mismatch(self):
        m = OrderedModel.additive(2)
        other = OrderedModel.additive(3)
        with pytest.raises(InvalidInputError):
            ge(m, m.element([1, 1]), other.element([1, 1, 1]))

    def test_bi_invariance_on_random_triples(self):
        # quantized samples keep all sums exact, so the check is bitwise
        rng = item_rng(SEED, 0)
        for variant in OrderVariant:
            m = OrderedModel.additive(6, variant)
            for _ in range(100):
                a, b, c = (m.element(quantized(rng, -2, 2, 6)) for _ in range(3))
                left = ge(m, a, b)
                assert left == ge(m, m.compose(a, c), m.compose(b, c))
                assert left == ge(m, m.compose(c, a), m.compose(c, b))


class TestDominance:
    def test_small_positive_constant_is_dominant(self):
        m = OrderedModel.additive(4)
        probes = [m.element([5, 7, 1, 3]), m.element([100, 0, 0, 0])]
        assert is_dominant(m, m.element([0.1] * 4), probes)

    def test_zero_site_blocks_dominance(self):
        m = OrderedModel.additive(3)
        assert not is_dominant(m, m.element([1.0, 0.0, 1.0]))

    def test_multiplicative_below_one(self):
        m = OrderedModel.multiplicative()
        assert not is_dominant(m, m.element(0.5))


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
        a, b = m.element_from_log(1.0), m.element_from_log(2.0)
        assert oracle_min_power(m, a, b, 3) == 6
        assert min_power(m, a, b, 3) == 6

    def test_negative_exponent(self):
        m = OrderedModel.additive(2)
        a, b = m.element([1.0, 1.0]), m.element([-2.5, -2.5])
        assert min_power(m, a, b, 2) == -5 == oracle_min_power(m, a, b, 2)

    def test_non_dominant_base_rejected(self):
        m = OrderedModel.additive(2)
        with pytest.raises(PreconditionError):
            min_power(m, m.element([0.0, 1.0]), m.element([1.0, 1.0]), 1)

    def test_search_bound_carried_in_error(self):
        m = OrderedModel.additive(2)
        a, b = m.element([1.0, 1.0]), m.element([2.5, 2.5])
        with pytest.raises(SearchBoundError) as err:
            min_power(m, a, b, 2, max_abs_k=4)
        assert err.value.bound == 4

    def test_hint_does_not_change_result(self):
        m = OrderedModel.additive(2)
        a, b = m.element([0.75, 1.25]), m.element([1.5, 0.5])
        for hint in (-20, 0, 3, 50):
            assert min_power(m, a, b, 5, hint=hint) == oracle_min_power(m, a, b, 5)


class TestRhoPlus:
    def test_multiplicative_closed_form_exact(self):
        m = OrderedModel.multiplicative()
        a, b = m.element_from_log(1.0), m.element_from_log(2.0)
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


def scalar_least_exponents(model, a, b, ls):
    """Reference: one scalar search per row, started at l."""
    return [
        ordered._least_true(ordered._row_pred(model, a, b, l), l, ordered._SEARCH_BOUND)
        for l in ls
    ]


def count_scalar_searches(monkeypatch):
    calls = []
    scalar = ordered._least_true

    def counting(pred, guess, bound):
        calls.append(guess)
        return scalar(pred, guess, bound)

    monkeypatch.setattr(ordered, "_least_true", counting)
    return calls


# small numerators make exact ratios, where the strict order's seed fails
POSITIVE_Q = st.one_of(st.integers(1, 8), st.integers(1, 2**21))
SIGNED_Q = st.one_of(st.integers(-8, 8), st.integers(-(2**21), 2**21))


class TestBatchedSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["multiplicative", "additive"]),
        st.sampled_from(list(OrderVariant)),
        st.lists(POSITIVE_Q, min_size=4, max_size=4),
        st.lists(SIGNED_Q, min_size=4, max_size=4),
        # k stays below bound / 4, so the reference's doubling never overshoots the bound
        st.lists(st.integers(1, 10**5), min_size=1, max_size=40),
    )
    def test_block_certified_exponents_equal_the_scalar_search(
        self, kind, variant, a_q, b_q, ls
    ):
        if kind == "multiplicative":
            m = OrderedModel.multiplicative(variant)
            a, b = m.element_from_log(a_q[0] * QUANTUM), m.element_from_log(b_q[0] * QUANTUM)
        else:
            m = OrderedModel.additive(4, variant)
            a, b = m.element(np.asarray(a_q) * QUANTUM), m.element(np.asarray(b_q) * QUANTUM)
        batched = ordered._least_exponents(m, a, b, np.asarray(ls))
        assert batched.tolist() == scalar_least_exponents(m, a, b, ls)

    def test_strict_exact_ratio_takes_the_fallback(self, monkeypatch):
        # the seed 2l has 2l*1 == l*2 at the first site only, so it fails
        m = OrderedModel.additive(2, OrderVariant.STRICT_POSITIVE)
        a, b = m.element([1.0, 1.0]), m.element([2.0, 1.0])
        ls = np.arange(1, 51)
        calls = count_scalar_searches(monkeypatch)
        ks = ordered._least_exponents(m, a, b, ls)
        assert ks.tolist() == (2 * ls + 1).tolist()
        assert calls == (2 * ls).tolist()
        est = rho_plus(m, a, b, 50)
        assert est.pair_infimum == est.limit_estimate == 101 / 50

    def test_non_strict_seed_is_certified_without_fallback(self, monkeypatch):
        m = OrderedModel.additive(2, OrderVariant.NON_STRICT)
        a, b = m.element([1.0, 1.0]), m.element([2.0, 1.0])
        calls = count_scalar_searches(monkeypatch)
        est = rho_plus(m, a, b, 300)
        assert calls == []
        assert est.pair_infimum == est.limit_estimate == 2.0

    def test_l_max_spanning_several_blocks(self):
        rng = item_rng(SEED, 6)
        l_max = 2 * ordered._BLOCK_ROWS + 37
        for variant in OrderVariant:
            m = OrderedModel.additive(6, variant)
            a = m.element(quantized(rng, 0.5, 2.0, 6))
            b = m.element(quantized(rng, 0.5, 2.0, 6))
            ks = [min_power(m, a, b, l) for l in range(1, l_max + 1)]
            est = rho_plus(m, a, b, l_max)
            assert est.limit_estimate == ks[-1] / l_max
            assert est.pair_infimum == min(k / l for l, k in enumerate(ks, start=1))

    def test_peak_memory_does_not_grow_with_l_max(self):
        rng = item_rng(SEED, 7)
        m = OrderedModel.additive(64)
        a = m.element(quantized(rng, 0.5, 2.0, 64))
        b = m.element(quantized(rng, 0.5, 2.0, 64))
        peaks = []
        for l_max in (ordered._BLOCK_ROWS, 16 * ordered._BLOCK_ROWS):
            tracemalloc.start()
            try:
                rho_plus(m, a, b, l_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_non_finite_seed_raises_search_bound(self):
        m = OrderedModel.additive(2)
        with pytest.raises(SearchBoundError):
            rho_plus(m, m.element([1e-300, 1.0]), m.element([1.0, 1.0]), 10)

    @pytest.mark.filterwarnings("error")
    def test_seed_beyond_the_bound_raises_search_bound(self):
        m = OrderedModel.multiplicative()
        with pytest.raises(SearchBoundError):
            rho_plus(m, m.element_from_log(1e-300), m.element_from_log(1.0), 10)
        with pytest.raises(SearchBoundError):  # l * log b overflows to inf
            rho_plus(m, m.element_from_log(1e-10), m.element_from_log(1e308), 10)


class TestRhoPlusPrimes:
    def test_multiplicative_matches_brute_force(self):
        m = OrderedModel.multiplicative()
        a, b = m.element_from_log(1.0), m.element_from_log(2.0)
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

    def test_requires_dominant_inputs(self):
        m = OrderedModel.additive(2)
        with pytest.raises(PreconditionError):
            rho_plus_primes(m, m.element([1, 1]), m.element([-1, -1]), 100)

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
        with pytest.raises(PrimePairError):
            rho_plus_primes(m, m.element(2.0), m.element(1000.0), 3)


class TestGrowthDistance:
    def test_self_distance_zero(self):
        m = OrderedModel.additive(3)
        a = m.element([0.5, 1.5, 1.0])
        assert growth_distance(m, a, a, 200).distance == 0.0

    def test_multiplicative_anchor(self):
        m = OrderedModel.multiplicative()
        report = growth_distance(m, m.element_from_log(1.0), m.element_from_log(2.0), 100)
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
            m, m.element_from_log(1.0), m.element_from_log(2.0), method=Method.PRIME_PAIRS
        )
        assert abs(report.gamma - 2.0) <= 0.05

    def test_requires_dominants(self):
        m = OrderedModel.additive(2)
        with pytest.raises(PreconditionError):
            growth_distance(m, m.element([1, 1]), m.element([0, 1]), 100)


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
