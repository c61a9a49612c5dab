import numpy as np

from cbmlab.primes import PrimeTable, sieve_upto


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
