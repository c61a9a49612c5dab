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
        primes = np.flatnonzero(_sieve_mask(self.bound)).astype(np.int64, copy=False)
        # built once: the primes, then the sentinel bound + 1, which exceeds every capped hi
        self._primes_and_sentinel = np.append(primes, self.bound + 1)
        self._primes_and_sentinel.flags.writeable = False  # tables are shared by prime_table
        self.primes = self._primes_and_sentinel[:-1]

    def first_prime_in(self, lo: int, hi: int) -> int | None:
        """Smallest prime in [lo, hi] capped at the table bound, or None."""
        lo = max(int(lo), 2)
        hi = min(int(hi), self.bound)
        if hi < lo:
            return None
        found = int(self._primes_and_sentinel[np.searchsorted(self.primes, lo)])
        return found if found <= hi else None

    def first_primes_in(self, lo, hi) -> np.ndarray:
        """``first_prime_in`` over many windows [lo_i, hi_i] at once, with one
        binary search of the primes; 0 marks a window without a prime."""
        hi = np.minimum(np.asarray(hi, dtype=np.int64), self.bound)
        found = self._primes_and_sentinel[np.searchsorted(self.primes, lo)]
        return np.where(found <= hi, found, 0)


@functools.lru_cache(maxsize=1)
def prime_table(bound: int) -> PrimeTable:
    """The PrimeTable of a bound, sieved once and kept until another bound is asked for."""
    return PrimeTable(bound)
