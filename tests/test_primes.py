import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab.errors import InvalidInputError
from cbmlab.primes import MAX_PRIME_BOUND, PrimeTable, sieve_upto


def naive_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def test_sieve_matches_naive():
    assert sieve_upto(200).tolist() == naive_primes(200)
    assert sieve_upto(1).size == 0


def test_prime_table_lookups():
    table = PrimeTable(10_000)
    assert table.is_prime(9973)
    assert not table.is_prime(9999)
    assert table.first_prime_in(9948, 10_000) == 9949
    assert table.first_prime_in(9974, 10_006) is None  # next prime is 10007, beyond bound
    assert table.first_prime_in(0, 2) == 2
    assert np.array_equal(table.primes, sieve_upto(10_000))


def test_table_bound_past_the_cap_is_rejected_before_allocation():
    for bound in (-2, MAX_PRIME_BOUND + 1, 10**20):
        with pytest.raises(InvalidInputError, match="prime bound"):
            PrimeTable(bound)


@settings(max_examples=200, deadline=None)
@given(
    bound=st.integers(0, 300),
    windows=st.lists(st.tuples(st.integers(-50, 350), st.integers(-50, 350)), min_size=1, max_size=20),
)
def test_block_lookup_matches_one_window_at_a_time(bound, windows):
    table = PrimeTable(bound)
    lo, hi = zip(*windows)
    expected = [table.first_prime_in(a, b) or 0 for a, b in windows]
    assert table.first_primes_in(lo, hi).tolist() == expected
