import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab.errors import InvalidInputError
from cbmlab.primes import MAX_PRIME_BOUND, PrimeTable, prime_table


def naive_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def test_sieve_matches_naive():
    for n in (0, 1, 2, 200):
        table = PrimeTable(n)
        assert table.primes.tolist() == naive_primes(n)
        assert [m for m in range(-3, n + 4) if table.first_prime_in(m, m) == m] == naive_primes(n)


def test_prime_table_lookups():
    table = PrimeTable(10_000)
    assert table.first_prime_in(9973, 9973) == 9973
    assert table.first_prime_in(9999, 9999) is None
    assert table.first_prime_in(9948, 10_000) == 9949
    assert table.first_prime_in(9974, 10_006) is None  # next prime is 10007, beyond bound
    assert table.first_prime_in(0, 2) == 2
    assert table.primes.tolist() == naive_primes(10_000)


def test_table_bound_past_the_cap_is_rejected_before_allocation():
    for bound in (-2, MAX_PRIME_BOUND + 1, 10**20):
        with pytest.raises(InvalidInputError, match="prime bound"):
            PrimeTable(bound)


@settings(max_examples=200, deadline=None)
@given(
    bound=st.integers(0, 300),
    windows=st.lists(st.tuples(st.integers(-50, 350), st.integers(-50, 350)), min_size=1, max_size=20),
)
def test_first_prime_in_matches_a_scan_of_the_primes(bound, windows):
    table = PrimeTable(bound)
    primes = naive_primes(bound)
    assert [table.first_prime_in(a, b) for a, b in windows] == [
        next((p for p in primes if a <= p <= b), None) for a, b in windows
    ]


def test_built_table_keeps_eight_bytes_per_prime():
    # the sieve's mask, one byte per integer, is freed once the primes are read off it
    tracemalloc.start()
    try:
        table = PrimeTable(10**6)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.primes.size == 78_498
    assert 8 * table.primes.size <= kept <= 8 * (table.primes.size + 1) + 4_096


def test_tables_are_shared_per_bound_and_read_only():
    prime_table.cache_clear()
    table = prime_table(1000)
    assert prime_table(1000) is table
    assert prime_table(2000) is not table and prime_table(2000).bound == 2000
    with pytest.raises(ValueError):
        table.primes[0] = 4
