"""Prime sieve and the bounded primality table behind the prime-pair growth rate."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import checked_int

# largest table bound: its sieve takes one byte per integer, 100 MB, while the table is built
MAX_PRIME_BOUND = 10**8


def _sieve_mask(limit: int) -> np.ndarray:
    """Boolean primality mask of 0..limit, for limit >= 0."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


class PrimeTable:
    """Primality lookups below a fixed bound, backed by the sorted primes.

    The boolean sieve, one byte per integer, lives only while the table is
    built; the table keeps the primes, 8 bytes each, and answers every
    lookup by binary search.
    """

    def __init__(self, bound: int):
        self.bound = checked_int(bound, "prime bound", 0, MAX_PRIME_BOUND)
        self.primes = np.flatnonzero(_sieve_mask(self.bound)).astype(np.int64, copy=False)
        self.primes.flags.writeable = False  # tables are shared by prime_table

    def first_prime_in(self, lo: int, hi: int) -> int | None:
        """Smallest prime in [lo, hi] capped at the table bound, or None."""
        lo = max(int(lo), 2)
        hi = min(int(hi), self.bound)
        if hi < lo:
            return None
        index = int(np.searchsorted(self.primes, lo))
        if index < self.primes.size and (found := int(self.primes[index])) <= hi:
            return found
        return None


@functools.lru_cache(maxsize=1)
def prime_table(bound: int) -> PrimeTable:
    """The PrimeTable of a bound, sieved once and kept until another bound is asked for."""
    return PrimeTable(bound)
