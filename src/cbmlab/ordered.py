"""Growth rates and order pseudo-metrics on bi-invariantly ordered semigroups.

Two concrete finite models are provided, each with the contract that the
predicate k |-> (a^k >= b^l) is upward-closed in k whenever a is a dominant:

* positive reals under multiplication (elements kept in log space so that
  large powers never overflow and both growth-rate formulations agree to
  the last bit), and
* real grid functions under pointwise addition, the commuting autonomous
  model where composing flows adds their generating functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .errors import (
    InvalidInputError,
    InvariantViolation,
    PreconditionError,
    PrimePairError,
    SearchBoundError,
)
from .primes import PrimeTable

DEFAULT_L_MAX = 1000
DEFAULT_PRIME_BOUND = 10_000
PRIME_WINDOW_EXPONENT = 0.6  # prime-gap window scale for the witness search
_SEARCH_BOUND = 10**12
_BLOCK_ROWS = 256  # exponent rows per batched oracle evaluation
# largest additive entry a with k*a finite for every |k| the searches try (a
# margin of 4 over the bound); an inf product would make inf >= inf hold
_MAX_ENTRY = sys.float_info.max / (4.0 * _SEARCH_BOUND)


class ModelKind(Enum):
    MULTIPLICATIVE_REALS = "multiplicative-reals"
    ADDITIVE_GRID = "additive-grid-functions"


class OrderVariant(Enum):
    NON_STRICT = "non-strict"
    STRICT_POSITIVE = "strict-positive"


class Method(Enum):
    LIMIT_SEQUENCE = "limit-sequence"
    PAIR_INFIMUM = "pair-infimum"
    PRIME_PAIRS = "prime-pairs"


@dataclass(frozen=True, eq=False)
class Element:
    """One semigroup element.

    ``data`` is the natural log of the value in the multiplicative model and
    the sample vector in the additive model.
    """

    kind: ModelKind
    data: float | np.ndarray

    @property
    def value(self):
        """User-facing value (exp of the stored log for multiplicative)."""
        if self.kind is ModelKind.MULTIPLICATIVE_REALS:
            return math.exp(self.data)
        return self.data


@dataclass(frozen=True)
class OrderedModel:
    """A semigroup with composition, an order oracle, and a dominance test."""

    kind: ModelKind
    site_count: int = 0
    order_variant: OrderVariant = OrderVariant.NON_STRICT

    @staticmethod
    def multiplicative(variant: OrderVariant = OrderVariant.NON_STRICT) -> "OrderedModel":
        return OrderedModel(ModelKind.MULTIPLICATIVE_REALS, 0, variant)

    @staticmethod
    def additive(site_count: int, variant: OrderVariant = OrderVariant.NON_STRICT) -> "OrderedModel":
        if site_count < 1:
            raise InvalidInputError("additive model needs at least one site")
        return OrderedModel(ModelKind.ADDITIVE_GRID, site_count, variant)

    # -- element construction -------------------------------------------------

    def element(self, value) -> Element:
        if self.kind is ModelKind.MULTIPLICATIVE_REALS:
            try:
                v = float(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidInputError(f"bad multiplicative element: {exc}") from exc
            if not (v > 0.0) or not math.isfinite(v):
                raise InvalidInputError("multiplicative elements must be finite positive reals")
            return Element(self.kind, math.log(v))
        arr = np.asarray(value, dtype=float)
        if arr.shape != (self.site_count,):
            raise InvalidInputError(
                f"grid element must have {self.site_count} sites, got shape {arr.shape}"
            )
        if not np.all(np.abs(arr) <= _MAX_ENTRY):
            raise InvalidInputError(
                f"grid element entries must be finite with magnitude <= {_MAX_ENTRY:.4g}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        return Element(self.kind, arr)

    def element_from_log(self, log_value: float) -> Element:
        """Multiplicative element specified by its exact natural log."""
        if self.kind is not ModelKind.MULTIPLICATIVE_REALS:
            raise InvalidInputError("element_from_log only applies to the multiplicative model")
        lv = float(log_value)
        if not math.isfinite(lv):
            raise InvalidInputError("log value must be finite")
        return Element(self.kind, lv)

    def identity(self) -> Element:
        if self.kind is ModelKind.MULTIPLICATIVE_REALS:
            return Element(self.kind, 0.0)
        return self.element(np.zeros(self.site_count))

    # -- semigroup structure ---------------------------------------------------

    def _check(self, *elems: Element) -> None:
        for e in elems:
            if e.kind is not self.kind:
                raise InvalidInputError("element does not belong to this model")
            if self.kind is ModelKind.ADDITIVE_GRID and e.data.shape != (self.site_count,):
                raise InvalidInputError(
                    f"site count mismatch: model has {self.site_count}, element has {e.data.shape[0]}"
                )

    def compose(self, a: Element, b: Element) -> Element:
        self._check(a, b)
        return Element(self.kind, a.data + b.data)

    def power(self, a: Element, k: int) -> Element:
        self._check(a)
        return Element(self.kind, k * a.data)

    def inverse(self, a: Element) -> Element:
        self._check(a)
        return Element(self.kind, -a.data)

    def ge(self, a: Element, b: Element) -> bool:
        """Order oracle a >= b under the model's order variant."""
        self._check(a, b)
        return bool(self.ge_powers(a, b, (1,), (1,))[0])

    def ge_powers(self, a: Element, b: Element, ks, ls) -> np.ndarray:
        """Order oracle a^k >= b^l for every row (k, l), as one block test.

        ``ks`` and ``ls`` are equal-length exponent vectors; the additive
        model evaluates a (rows x sites) block. The elements are not
        re-checked: callers validate them once with ``_check``.
        """
        ks = np.asarray(ks, dtype=float)
        ls = np.asarray(ls, dtype=float)
        if self.kind is ModelKind.MULTIPLICATIVE_REALS:
            # for scalars "equal, or strictly greater" coincides with >=;
            # a log-space product past the float range is +-inf, as in plain
            # float arithmetic, and compares correctly
            with np.errstate(over="ignore"):
                return ks * a.data >= ls * b.data
        ka = ks[:, None] * a.data
        lb = ls[:, None] * b.data
        if self.order_variant is OrderVariant.NON_STRICT:
            return np.all(ka >= lb, axis=1)
        return np.all(ka > lb, axis=1) | np.all(ka == lb, axis=1)

    def is_dominant_closed_form(self, a: Element) -> bool:
        self._check(a)
        if self.kind is ModelKind.MULTIPLICATIVE_REALS:
            return a.data > 0.0
        return bool(np.min(a.data) > 0.0)


def ge(model: OrderedModel, a: Element, b: Element) -> bool:
    return model.ge(a, b)


def is_dominant(model: OrderedModel, a: Element, probes: Iterable[Element] = ()) -> bool:
    """Dominance test: closed form, then a finite power found for each probe."""
    if not model.is_dominant_closed_form(a):
        return False
    for b in probes:
        k = 1
        while not model.ge(model.power(a, k), b):
            k *= 2
            if k > 2**60:
                return False
    return True


def _row_pred(model: OrderedModel, a: Element, b: Element, l: int) -> Callable[[int], bool]:
    """Predicate k |-> (a^k >= b^l): one row of the batched oracle."""
    ls = np.array([float(l)])
    return lambda k: bool(model.ge_powers(a, b, np.array([float(k)]), ls)[0])


def _least_true(pred: Callable[[int], bool], guess: int, bound: int) -> int:
    """Least integer where an upward-closed predicate holds.

    Exponential doubling from the guess brackets the boundary, then binary
    search pins it down.
    """
    if pred(guess):
        hi = guess
        lo = guess - 1
        step = 1
        while pred(lo):
            hi = lo
            lo -= step
            step *= 2
            if lo < -bound:
                if pred(-bound):
                    raise SearchBoundError(bound)
                lo = -bound
                break
    else:
        lo = guess
        hi = guess + 1
        step = 1
        while not pred(hi):
            lo = hi
            hi += step
            step *= 2
            if hi > bound:
                raise SearchBoundError(bound)
    while hi - lo > 1:
        mid = (hi + lo) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_power(
    model: OrderedModel,
    a: Element,
    b: Element,
    l: int,
    *,
    hint: int | None = None,
    max_abs_k: int = _SEARCH_BOUND,
) -> int:
    """Least k in Z with a^k >= b^l, for a dominant a.

    The search relies only on the order oracle and on upward-closedness of
    the predicate, which both concrete models guarantee.
    """
    if l < 1:
        raise InvalidInputError("l must be a positive integer")
    if not model.is_dominant_closed_form(a):
        raise PreconditionError("min_power requires a dominant base element")
    model._check(a, b)
    return _least_true(_row_pred(model, a, b, l), hint if hint is not None else l, max_abs_k)


def _least_exponents(model: OrderedModel, a: Element, b: Element, ls: np.ndarray) -> np.ndarray:
    """Least k with a^k >= b^l for each l in one block ``ls``, for a dominant a.

    The closed form ceil(l * max(b/a)) only proposes each k; the oracle
    certifies it (k holds and k - 1 fails) in one block evaluation. Rows that
    fail, or whose proposal is not finite or lies outside the search bound,
    are settled by the scalar search, which also raises SearchBoundError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rate = np.max(b.data / a.data) if model.kind is ModelKind.ADDITIVE_GRID else b.data / a.data
        seeds = np.ceil(ls * rate)
    inside = np.isfinite(seeds) & (seeds > -_SEARCH_BOUND) & (seeds <= _SEARCH_BOUND)
    ks = np.where(inside, seeds, 0.0)
    rows = len(ls)
    verdict = model.ge_powers(a, b, np.concatenate((ks, ks - 1.0)), np.concatenate((ls, ls)))
    certified = inside & verdict[:rows] & ~verdict[rows:]
    out = ks.astype(np.int64)
    for i in np.flatnonzero(~certified):
        l = int(ls[i])
        guess = int(ks[i]) if inside[i] else l
        out[i] = _least_true(_row_pred(model, a, b, l), guess, _SEARCH_BOUND)
    return out


@dataclass(frozen=True)
class RhoEstimate:
    """The two formulations of the upper relative growth rate.

    ``limit_estimate`` truncates the limit sequence at l_max;
    ``pair_infimum`` minimizes k/l over all ordering pairs with l <= l_max.
    For the concrete models the two agree within 1/l_max.
    """

    limit_estimate: float
    pair_infimum: float
    l_max: int

    @property
    def value(self) -> float:
        return self.pair_infimum


def rho_plus(model: OrderedModel, a: Element, b: Element, l_max: int = DEFAULT_L_MAX) -> RhoEstimate:
    """Upper relative growth rate of b against the dominant a."""
    if l_max < 1:
        raise InvalidInputError("l_max must be a positive integer")
    if not model.is_dominant_closed_form(a):
        raise PreconditionError("rho_plus requires a dominant base element")
    model._check(a, b)
    best = math.inf
    for start in range(1, l_max + 1, _BLOCK_ROWS):
        ls = np.arange(start, min(start + _BLOCK_ROWS, l_max + 1))
        ks = _least_exponents(model, a, b, ls)
        best = min(best, float(np.min(ks / ls)))
    limit = int(ks[-1]) / l_max
    if best > limit + 1e-12 or limit - best > 1.0 / l_max + 1e-12:
        raise InvariantViolation(
            f"growth-rate formulations disagree: limit={limit}, pair infimum={best}"
        )
    return RhoEstimate(limit_estimate=limit, pair_infimum=best, l_max=l_max)


def rho_plus_primes(
    model: OrderedModel,
    a: Element,
    b: Element,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    table: PrimeTable | None = None,
) -> float:
    """Infimum of p/q over prime ordering pairs with p, q <= prime_bound.

    For each prime q the witness exponent is sought in the prime-gap window
    [m, m + m^0.6] above m = min_power(q); the window is truncated at the
    bound so every returned ratio comes from a genuine pair below it.
    """
    if prime_bound < 2:
        raise InvalidInputError("prime_bound must be at least 2")
    for name, e in (("a", a), ("b", b)):
        if not model.is_dominant_closed_form(e):
            raise PreconditionError(f"rho_plus_primes requires dominant inputs; {name} is not")
    if table is None or table.bound < prime_bound:
        table = PrimeTable(prime_bound)
    model._check(a, b)
    primes = table.primes[: np.searchsorted(table.primes, prime_bound, side="right")]
    best = None
    for start in range(0, len(primes), _BLOCK_ROWS):
        qs = primes[start : start + _BLOCK_ROWS]
        k_min = _least_exponents(model, a, b, qs)
        window_hi = [k + int(k**PRIME_WINDOW_EXPONENT) if k > 0 else 2 for k in k_min.tolist()]
        # a window starting above the bound is empty once hi is capped there
        ps = table.first_primes_in(k_min, np.minimum(window_hi, prime_bound))
        found = ps > 0
        if found.any():
            ratio = float(np.min(ps[found] / qs[found]))
            best = ratio if best is None else min(best, ratio)
    if best is None:
        raise PrimePairError(prime_bound)
    return best


@dataclass(frozen=True)
class GrowthRateReport:
    """Growth rates, their max, and the induced distance (natural-log scale)."""

    rho_plus: float
    rho_minus: float
    gamma: float
    distance: float
    l_max: int
    method: Method

    def to_json_dict(self) -> dict:
        return {
            "rho_plus": self.rho_plus,
            "rho_minus": self.rho_minus,
            "gamma": self.gamma,
            "distance": self.distance,
            "l_max": self.l_max,
            "method": self.method.value,
        }


def growth_distance(
    model: OrderedModel,
    a: Element,
    b: Element,
    l_max: int = DEFAULT_L_MAX,
    method: Method = Method.PAIR_INFIMUM,
    prime_bound: int = DEFAULT_PRIME_BOUND,
) -> GrowthRateReport:
    """Distance between two dominants: ln of the larger relative growth rate."""
    for name, e in (("a", a), ("b", b)):
        if not model.is_dominant_closed_form(e):
            raise PreconditionError(f"growth_distance requires dominant inputs; {name} is not")
    if method is Method.PRIME_PAIRS:
        table = PrimeTable(prime_bound)
        rp = rho_plus_primes(model, a, b, prime_bound, table=table)
        rm = rho_plus_primes(model, b, a, prime_bound, table=table)
    else:
        est_p = rho_plus(model, a, b, l_max)
        est_m = rho_plus(model, b, a, l_max)
        if method is Method.LIMIT_SEQUENCE:
            rp, rm = est_p.limit_estimate, est_m.limit_estimate
        else:
            rp, rm = est_p.pair_infimum, est_m.pair_infimum
    if rp * rm < 1.0 - 2.0 / l_max:
        raise InvariantViolation(
            f"growth-rate product inequality failed: {rp} * {rm} < 1 - 2/{l_max}"
        )
    gamma = max(abs(rp), abs(rm))
    return GrowthRateReport(
        rho_plus=rp,
        rho_minus=rm,
        gamma=gamma,
        distance=math.log(gamma),
        l_max=l_max,
        method=method,
    )
