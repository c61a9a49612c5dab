"""Prime sieve and the bounded primality table behind the prime-pair growth rate."""

from __future__ import annotations

import math

import numpy as np


def sieve_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending (int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


class PrimeTable:
    """Primality lookups below a fixed bound, backed by one boolean sieve."""

    def __init__(self, bound: int):
        self.bound = int(bound)
        self._mask = np.zeros(self.bound + 1, dtype=bool)
        self._mask[sieve_upto(self.bound)] = True
        self.primes = np.flatnonzero(self._mask).astype(np.int64)

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
