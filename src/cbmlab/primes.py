"""Prime sieve and the bounded primality table behind the prime-pair growth rate."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

# largest table bound: its primality mask takes one byte per integer, 100 MB
MAX_PRIME_BOUND = 10**8


def _sieve_mask(limit: int) -> np.ndarray:
    """Boolean primality mask of 0..limit, for limit >= 0."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def sieve_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending (int64 array)."""
    return np.flatnonzero(_sieve_mask(max(limit, 0))).astype(np.int64, copy=False)


class PrimeTable:
    """Primality lookups below a fixed bound, backed by one boolean sieve."""

    def __init__(self, bound: int):
        if not 0 <= bound <= MAX_PRIME_BOUND:
            raise InvalidInputError(f"prime bound must lie in [0, {MAX_PRIME_BOUND}], got {bound}")
        self.bound = int(bound)
        self._mask = _sieve_mask(self.bound)
        self.primes = np.flatnonzero(self._mask).astype(np.int64, copy=False)

    def is_prime(self, n: int) -> bool:
        return 0 <= n <= self.bound and bool(self._mask[n])

    def first_prime_in(self, lo: int, hi: int) -> int | None:
        """Smallest prime in [lo, hi] capped at the table bound, or None."""
        lo = max(int(lo), 2)
        hi = min(int(hi), self.bound)
        if hi < lo:
            return None
        window = self._mask[lo : hi + 1]
        idx = int(np.argmax(window))
        if not window[idx]:
            return None
        return lo + idx

    def first_primes_in(self, lo, hi) -> np.ndarray:
        """``first_prime_in`` over many windows [lo_i, hi_i] at once, with one
        binary search of the primes; 0 marks a window without a prime."""
        lo = np.maximum(np.asarray(lo, dtype=np.int64), 2)
        hi = np.minimum(np.asarray(hi, dtype=np.int64), self.bound)
        # the sentinel bound + 1 exceeds every capped hi
        found = np.append(self.primes, self.bound + 1)[np.searchsorted(self.primes, lo)]
        return np.where(found <= hi, found, 0)
