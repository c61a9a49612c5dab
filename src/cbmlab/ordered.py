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
# largest additive entry a whose float powers k*a (OrderedModel.power, which stabilization
# takes) stay finite for every |k| up to the search bound, with a margin of 4
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
        return _oracle(self, a, b)(1, 1)

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
        holds = _oracle(model, a, b)
        k = 1
        while not holds(k, 1):
            k *= 2
            if k > 2**60:
                return False
    return True


def _oracle(model: OrderedModel, a: Element, b: Element) -> Callable[[int, int], bool]:
    """Exact order oracle (k, l) |-> (a^k >= b^l), built once per pair: the
    stored floats go over one power-of-two denominator, and k*A_i >= l*B_i
    is tested on Python ints, so for l >= 1 it depends on k/l only."""
    model._check(a, b)
    try:
        ratios = [v.as_integer_ratio() for v in np.append(a.data, b.data).tolist()]
    except (OverflowError, ValueError) as exc:
        raise InvalidInputError("the order oracle needs finite elements") from exc
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    sites = list(zip(ints[: len(ints) // 2], ints[len(ints) // 2 :]))
    if model.order_variant is OrderVariant.NON_STRICT:
        return lambda k, l: all(k * x >= l * y for x, y in sites)
    # strictly greater at every site, or equal; at one site this is >=
    return lambda k, l: all(k * x > l * y for x, y in sites) or all(k * x == l * y for x, y in sites)


def _row_pred(model: OrderedModel, a: Element, b: Element, l: int) -> Callable[[int], bool]:
    """Predicate k |-> (a^k >= b^l): one row of the oracle."""
    holds = _oracle(model, a, b)
    return lambda k: holds(k, l)


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
    return _least_true(_row_pred(model, a, b, l), hint if hint is not None else l, max_abs_k)


def _bracket(holds: Callable[[int, int], bool], n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Least p/q with q <= n where a homogeneous, upward-closed oracle holds,
    and the p_lo/q_lo below it where it fails.

    A Stern-Brocot descent from the integer part (Graham, Knuth and
    Patashnik, Concrete Mathematics, 4.5), with one exponential-then-binary
    search per run of equal steps: O(log n) oracle calls. The integer
    certificate (holds at p/q, fails at p_lo/q_lo, p*q_lo - p_lo*q = 1,
    q + q_lo > n) leaves no fraction with denominator <= n between them, so
    the least exponent of every l <= n is ceil(l*p/q). SearchBoundError is
    raised when ceil(p/q) or ceil(n*p/q) passes the search bound.
    """

    def run(step_holds: Callable[[int], bool], cap: int) -> int:
        # the longest run of equal steps: the least j in 1..cap+1 that fails, minus 1
        return _least_true(lambda j: j > cap or (j > 0 and not step_holds(j)), 1, 2 * cap + 2) - 1

    # twice the bound, so the doubling never stops short of an integer part inside it
    k = _least_true(lambda k: holds(k, 1), 1, 2 * _SEARCH_BOUND)
    (p_lo, q_lo), (p, q) = (k - 1, 1), (k, 1)
    while q + q_lo <= n:
        j = run(lambda j: holds(p + j * p_lo, q + j * q_lo), (n - q) // q_lo)
        p, q = p + j * p_lo, q + j * q_lo
        i = run(lambda i: not holds(p_lo + i * p, q_lo + i * q), (n - q_lo) // q)
        p_lo, q_lo = p_lo + i * p, q_lo + i * q
    if not (holds(p, q) and not holds(p_lo, q_lo) and p * q_lo - p_lo * q == 1 and q + q_lo > n):
        raise InvariantViolation(f"Farey bracket {p_lo}/{q_lo} < {p}/{q} fails its certificate at n={n}")
    if max(abs(k), abs(-(-n * p // q))) > _SEARCH_BOUND:
        raise SearchBoundError(_SEARCH_BOUND)
    return (p, q), (p_lo, q_lo)


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
    """Upper relative growth rate of b against the dominant a.

    The pair infimum is the p/q of one Farey bracket at l_max, and the limit
    estimate ceil(l_max*p/q)/l_max. The closed form max(b/a) must lie in the
    bracket, in floats and without tolerance (rounded division is monotone).
    """
    if l_max < 1:
        raise InvalidInputError("l_max must be a positive integer")
    if not model.is_dominant_closed_form(a):
        raise PreconditionError("rho_plus requires a dominant base element")
    (p, q), (p_lo, q_lo) = _bracket(_oracle(model, a, b), l_max)
    with np.errstate(over="ignore"):  # a site whose ratio overflows to -inf leaves the max alone
        rate = float(np.max(np.divide(b.data, a.data)))
    if not p_lo / q_lo <= rate <= p / q:
        raise InvariantViolation(f"closed-form rate {rate} lies outside [{p_lo}/{q_lo}, {p}/{q}]")
    return RhoEstimate(limit_estimate=-(-l_max * p // q) / l_max, pair_infimum=p / q, l_max=l_max)


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
    [m, m + m^0.6] above m = min_power(q), which one Farey bracket at
    prime_bound gives for every q; the window is truncated at the bound so
    every returned ratio comes from a genuine pair below it.
    """
    if prime_bound < 2:
        raise InvalidInputError("prime_bound must be at least 2")
    for name, e in (("a", a), ("b", b)):
        if not model.is_dominant_closed_form(e):
            raise PreconditionError(f"rho_plus_primes requires dominant inputs; {name} is not")
    if table is None or table.bound < prime_bound:
        table = PrimeTable(prime_bound)
    (num, den), _ = _bracket(_oracle(model, a, b), prime_bound)
    qs = table.primes[: np.searchsorted(table.primes, prime_bound, side="right")]
    k_min = [-(-q * num // den) for q in qs.tolist()]
    # a window starting above the bound is empty once hi is capped there
    window_hi = [min(k + int(k**PRIME_WINDOW_EXPONENT) if k > 0 else 2, prime_bound) for k in k_min]
    ps = table.first_primes_in(k_min, window_hi)
    found = ps > 0
    if not found.any():
        raise PrimePairError(prime_bound)
    return float(np.min(ps[found] / qs[found]))


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
    if l_max < 1:  # the product check's tolerance 2/l_max needs it under every method
        raise InvalidInputError("l_max must be a positive integer")
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
