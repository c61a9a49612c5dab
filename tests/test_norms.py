import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab.errors import PreconditionError, SearchBoundError
from cbmlab.norms import norm, stabilization
from cbmlab.ordered import OrderedModel

QUANTUM = 2.0**-20


def rng_for(stream):
    return np.random.Generator(np.random.Philox(key=[777, stream]))


def quantized(rng, lo, hi, size):
    return rng.integers(round(lo / QUANTUM), round(hi / QUANTUM), size=size, endpoint=True) * QUANTUM


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
    with pytest.raises(PreconditionError):
        norm(m.element([0.0, 1.0]), m.element([1.0, 1.0]))


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
    rng = rng_for(0)
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
    value = stabilization(m.element([1.0] * 3), m.element([2.5] * 3), 1000)
    assert abs(value - 2.5) <= 0.002


def test_stabilization_of_identity():
    m = OrderedModel.additive(3)
    assert stabilization(m.element([1.0] * 3), m.element([0.0] * 3), 500) == 0.0


def test_stabilization_matches_closed_form():
    rng = rng_for(1)
    m = OrderedModel.additive(6)
    l_max = 500
    for _ in range(50):
        base = m.element(quantized(rng, 0.5, 2.0, 6))
        arg = m.element(quantized(rng, -2.0, 2.0, 6))
        ratio = arg.data / base.data
        closed = max(abs(float(np.max(ratio))), abs(float(np.min(ratio))))
        assert abs(stabilization(base, arg, l_max) - closed) <= 2.0 / l_max


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
    with pytest.raises(SearchBoundError):
        norm(base, arg)
