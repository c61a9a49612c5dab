import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab.acceptance import QUANTUM, item_rng, quantized
from cbmlab import norms, ordered
from cbmlab.errors import InvalidInputError, InvariantViolation
from cbmlab.norms import norm, stabilization
from cbmlab.ordered import OrderedModel

SEED = 777  # Philox key of this file's draws


def model_and(base_vals, arg_vals):
    m = OrderedModel.additive(len(base_vals))
    return m, m.element(base_vals), m.element(arg_vals)


def test_constant_example():
    _, base, arg = model_and([1.0] * 4, [2.5] * 4)
    report = norm(base, arg)
    assert (report.nu_plus, report.nu_minus, report.nu) == (3, 2, 3)


def test_identity_is_the_unique_null_vector():
    _, base, arg = model_and([1.0] * 3, [0.0] * 3)
    report = norm(base, arg)
    assert (report.nu_plus, report.nu_minus, report.nu) == (0, 0, 0)


def test_negated_argument():
    m, base, arg = model_and([1.0] * 4, [-2.5] * 4)
    report = norm(base, arg)
    assert (report.nu_plus, report.nu_minus, report.nu) == (-2, -3, 3)
    assert report.nu == norm(base, m.element([2.5] * 4)).nu


def test_non_dominant_base_rejected():
    m = OrderedModel.additive(2)
    with pytest.raises(InvalidInputError, match="dominant base"):
        norm(m.element([0.0, 1.0]), m.element([1.0, 1.0]))


def test_site_count_mismatch_rejected_before_dominance():
    m = OrderedModel.additive(2)
    for base in ([1.0, 1.0], [0.0, 1.0]):
        with pytest.raises(InvalidInputError, match="site count mismatch"):
            norm(m.element(base), OrderedModel.additive(3).element([1.0] * 3))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2**21), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-2**21, max_value=2**21), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-2**21, max_value=2**21), min_size=3, max_size=3),
)
def test_norm_axioms(base_q, arg1_q, arg2_q):
    m = OrderedModel.additive(3)
    base = m.element(np.asarray(base_q) * QUANTUM)
    arg1 = m.element(np.asarray(arg1_q) * QUANTUM)
    arg2 = m.element(np.asarray(arg2_q) * QUANTUM)
    r1, r2 = norm(base, arg1), norm(base, arg2)
    assert r1.nu >= 0
    assert (r1.nu == 0) == bool(np.all(arg1.data == 0))
    assert norm(base, m.inverse(arg1)).nu == r1.nu
    assert norm(base, m.compose(arg1, arg2)).nu <= r1.nu + r2.nu


def test_conjugation_is_exact_in_the_abelian_model():
    # quantized entries keep b + a - b bitwise equal to a
    rng = item_rng(SEED, 0)
    m = OrderedModel.additive(5)
    for _ in range(100):
        base = m.element(quantized(rng, 0.5, 2.0, 5))
        a = m.element(quantized(rng, -2.0, 2.0, 5))
        b = m.element(quantized(rng, -2.0, 2.0, 5))
        conj = m.compose(m.compose(b, a), m.inverse(b))
        assert np.array_equal(conj.data, a.data)
        assert norm(base, conj).nu == norm(base, a).nu


def test_stabilization_constant_example():
    m = OrderedModel.additive(3)
    assert stabilization(m.element([1.0] * 3), m.element([2.5] * 3), 1000) == 2.5


def test_stabilization_of_identity():
    m = OrderedModel.additive(3)
    assert stabilization(m.element([1.0] * 3), m.element([0.0] * 3), 500) == 0.0


def test_stabilization_rejects_a_bad_l_max_before_any_norm(monkeypatch):
    _, base, arg = model_and([1.0] * 3, [2.5] * 3)
    monkeypatch.setattr(norms, "norm", lambda *args: pytest.fail("norm ran"))
    for l_max in (0, -3):
        with pytest.raises(InvalidInputError, match="l_max"):
            stabilization(base, arg, l_max)


def test_stabilization_rejects_an_exponent_past_the_float_range():
    _, base, arg = model_and([1.0], [1.0])
    with pytest.raises(InvalidInputError, match=r"^k must be an integer in \[-"):
        stabilization(base, arg, 10**400)


def exact_norm(base, arg, l):
    """The norm of l*arg from the exact ratios r = arg/base: max(ceil(l max r), -floor(l min r))."""
    ratios = [Fraction(y) / Fraction(x) for x, y in zip(base.data.tolist(), arg.data.tolist())]
    return max(math.ceil(l * max(ratios)), -math.floor(l * min(ratios)))


def test_stabilization_matches_closed_form():
    # quantized entries keep l_max*arg exact, so the norm is the closed form's
    rng = item_rng(SEED, 1)
    m = OrderedModel.additive(6)
    l_max = 500
    for _ in range(50):
        base = m.element(quantized(rng, 0.5, 2.0, 6))
        arg = m.element(quantized(rng, -2.0, 2.0, 6))
        assert stabilization(base, arg, l_max) == exact_norm(base, arg, l_max) / l_max


def test_large_ratio_in_memory_independent_of_magnitude():
    # sup|arg/base| = 2^21: O(log ratio) oracle calls over 3 sites each
    _, base, arg = model_and([QUANTUM] * 3, [2.0, -2.0, 1.0])
    tracemalloc.start()
    try:
        report = norm(base, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.nu_plus, report.nu_minus, report.nu) == (2**21, -(2**21), 2**21)
    assert peak < 64 * 1024


def test_ratio_beyond_the_search_bound_raises():
    _, base, arg = model_and([1e-300, 1.0], [1.0, 1.0])
    with pytest.raises(InvalidInputError, match="^exponent search exceeded bound"):
        norm(base, arg)


def test_oracle_disagreeing_with_the_closed_form_is_a_violation(monkeypatch):
    m, base, arg = model_and([1.0] * 2, [2.5] * 2)
    exact = ordered._oracles
    # the oracles of arg + arg bracket nu_plus at 5, where the ratio 2.5 admits
    # only 3: growth_brackets checks the bracket against the float ratio
    monkeypatch.setattr(
        ordered, "_oracles", lambda model, x, y, negated: exact(model, x, model.compose(y, y), negated)
    )
    with pytest.raises(InvariantViolation, match=r"closed-form rate 2\.5 lies outside \[4/1, 5/1\]"):
        norm(base, arg)


def test_a_bad_nu_minus_bracket_is_a_violation(monkeypatch):
    m, base, arg = model_and([1.0] * 2, [2.5] * 2)
    exact = ordered._oracles
    # only the negated oracle is that of arg + arg: -nu_minus bracketed at -5,
    # where the ratio -2.5 admits only -2
    monkeypatch.setattr(
        ordered,
        "_oracles",
        lambda model, x, y, negated: (exact(model, x, y, negated)[0], exact(model, x, model.compose(y, y), negated)[1]),
    )
    with pytest.raises(InvariantViolation, match=r"closed-form rate -2\.5 lies outside \[-6/1, -5/1\]"):
        norm(base, arg)


def test_stabilization_disagreeing_with_the_growth_rates_is_a_violation(monkeypatch):
    m, base, arg = model_and([1.0] * 2, [2.5] * 2)
    # the norm of 100*arg is 250; brackets at a growth rate of 3 put it at 300, more than 1 off
    exact = ordered.growth_brackets
    monkeypatch.setattr(
        norms,
        "growth_brackets",
        lambda model, x, y, n, **kw: exact(model, x, y, n, **kw) if n == 1 else (((3, 1), (2, 1)),) * 2,
    )
    with pytest.raises(InvariantViolation, match="stabilization"):
        stabilization(base, arg, 100)


def shifted_norm(shift):
    """norm, with nu moved by shift."""
    exact = norms.norm

    def shifted(base, arg):
        report = exact(base, arg)
        return dataclasses.replace(report, nu=report.nu + shift)

    return shifted


@pytest.mark.parametrize("shift", [2, -2, 3])
def test_a_norm_two_off_the_exact_one_is_a_violation(monkeypatch, shift):
    # the norm of 4*arg is 10; a float tolerance of 2/l_max would pass 12/4 and 8/4,
    # each 2/l_max off the growth rate 2.5
    _, base, arg = model_and([1.0] * 2, [2.5] * 2)
    monkeypatch.setattr(norms, "norm", shifted_norm(shift))
    with pytest.raises(InvariantViolation, match="^stabilization norm"):
        stabilization(base, arg, 4)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_norm_one_off_the_exact_one_is_within_the_rounding_margin(monkeypatch, shift):
    _, base, arg = model_and([1.0] * 2, [2.5] * 2)
    monkeypatch.setattr(norms, "norm", shifted_norm(shift))
    assert stabilization(base, arg, 4) == (10 + shift) / 4


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(2**-8, 2**10), st.floats(-(2**10), 2**10)), min_size=1, max_size=6),
    st.sampled_from([1, 7, 1000, 123_457, 10**6]),
)
def test_the_float_power_moves_the_norm_by_at_most_one(sites, l):
    m = OrderedModel.additive(len(sites))
    base, arg = (m.element([site[i] for site in sites]) for i in (0, 1))
    nu = norm(base, m.power(arg, l)).nu
    assert abs(nu - exact_norm(base, arg, l)) <= 1
    assert stabilization(base, arg, l) == nu / l


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 2**21), st.integers(-(2**21), 2**21)), min_size=1, max_size=6),
    st.integers(1, 2**18),
)
def test_the_norm_is_exact_on_quantized_powers(sites, l):
    # every l*arg is exact in double precision, so the norm is the exact one
    m = OrderedModel.additive(len(sites))
    base, arg = (m.element([site[i] * QUANTUM for site in sites]) for i in (0, 1))
    nu = exact_norm(base, arg, l)
    assert norm(base, m.power(arg, l)).nu == nu
    assert stabilization(base, arg, l) == nu / l


def near_integer_site(base, n, ulps):
    """(base, arg) with arg a few ulps off the float n*base, whose exact ratio
    to base may round onto the integer n or just off it."""
    arg = n * base
    for _ in range(abs(ulps)):
        arg = math.nextafter(arg, math.copysign(math.inf, ulps))
    return base, arg


NEAR_INTEGER_SITE = st.builds(
    near_integer_site, st.floats(1e-6, 1e6), st.integers(-10**6, 10**6), st.integers(-2, 2)
) | st.tuples(
    # the least subnormal over a base above 2 underflows to -0.0 or 0.0
    st.floats(2.0, 1e6), st.sampled_from([-5e-324, 5e-324])
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NEAR_INTEGER_SITE, min_size=1, max_size=3))
def test_norm_is_exact_on_near_integer_ratios(sites):
    m = OrderedModel.additive(len(sites))
    base, arg = (m.element([site[i] for site in sites]) for i in (0, 1))
    ratios = [Fraction(y) / Fraction(x) for x, y in sites]
    report = norm(base, arg)
    assert (report.nu_plus, report.nu_minus) == (math.ceil(max(ratios)), math.floor(min(ratios)))
