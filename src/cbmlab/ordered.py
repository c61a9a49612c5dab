"""Growth rates and order pseudo-metrics on bi-invariantly ordered semigroups.

Two concrete finite models are provided, each with the contract that the
predicate k |-> (a^k >= b^l) is upward-closed in k whenever a is a dominant:

* real grid functions under pointwise addition, the commuting autonomous
  model where composing flows adds their generating functions, and
* positive reals under multiplication, which ln maps order-isomorphically
  onto the one-site grid model; an element is stored as that one site, so
  large powers never overflow and one code path serves both models.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidInputError,
    InvariantViolation,
    PreconditionError,
    PrimePairError,
    SearchBoundError,
    checked_int,
)
from .primes import PrimeTable, prime_table

DEFAULT_L_MAX = 1000
DEFAULT_PRIME_BOUND = 10_000
PRIME_WINDOW_EXPONENT = 0.6  # prime-gap window scale for the witness search
_SEARCH_BOUND = 10**12


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
    """One semigroup element: ``data`` is its 1-D float64 array of finite site
    values, the sample vector in the additive model and the one site [ln v] of
    the value v in the multiplicative model. Construction takes a read-only
    copy and rejects any other array, so every element is finite.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.array(self.data, dtype=float)
        if data.ndim != 1 or not np.isfinite(data).all():
            raise InvalidInputError("an element is a 1-D array of finite site values")
        object.__setattr__(self, "data", data)
        data.flags.writeable = False


@dataclass(frozen=True)
class OrderedModel:
    """A semigroup with composition, an order oracle, and a dominance test."""

    kind: ModelKind
    site_count: int
    order_variant: OrderVariant = OrderVariant.NON_STRICT

    def __post_init__(self):
        object.__setattr__(self, "site_count", checked_int(self.site_count, "site_count", least=1))

    @staticmethod
    def multiplicative(variant: OrderVariant = OrderVariant.NON_STRICT) -> "OrderedModel":
        return OrderedModel(ModelKind.MULTIPLICATIVE_REALS, 1, variant)

    @staticmethod
    def additive(site_count: int, variant: OrderVariant = OrderVariant.NON_STRICT) -> "OrderedModel":
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
            value = [math.log(v)]
        arr = np.asarray(value, dtype=float)
        if arr.shape != (self.site_count,):
            raise InvalidInputError(
                f"grid element must have {self.site_count} sites, got shape {arr.shape}"
            )
        return Element(arr)

    # -- semigroup structure ---------------------------------------------------

    def _check(self, *elems: Element) -> None:
        for e in elems:
            if e.data.shape != (self.site_count,):
                raise InvalidInputError(
                    f"site count mismatch: model has {self.site_count}, element has {e.data.shape[0]}"
                )

    def compose(self, a: Element, b: Element) -> Element:
        self._check(a, b)
        with np.errstate(over="ignore"):  # a sum past the float range fails the element's own check
            data = a.data + b.data
        return Element(data)

    def power(self, a: Element, k: int) -> Element:
        self._check(a)
        k = checked_int(k, "k")
        if abs(k) > sys.float_info.max:  # k * a.data converts k to a double
            raise InvalidInputError("a power's exponent must be representable as a double")
        with np.errstate(over="ignore"):  # a product past the float range fails the element's own check
            data = k * a.data
        return Element(data)

    def inverse(self, a: Element) -> Element:
        self._check(a)
        return Element(-a.data)

    def ge(self, a: Element, b: Element) -> bool:
        """Order oracle a >= b under the model's order variant, pointwise on
        the stored floats, whose comparisons are exact."""
        self._check(a, b)
        x, y = a.data, b.data
        if self.order_variant is OrderVariant.NON_STRICT:
            return bool(np.all(x >= y))
        return bool(np.all(x > y) or np.all(x == y))


def _ratio(x: float, y: float) -> tuple[int, int]:
    """The exact y/x of a finite x > 0 as (n, d) with d > 0."""
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    return yn * xd, xn * yd


@dataclass(frozen=True, slots=True)
class _Oracle:
    """The exact order oracle of one pair over a dominant base, as the
    threshold (N, D, strict) in lowest terms that _oracle finds: (k, l) holds
    exactly when k*D >= l*N, or k*D > l*N if strict.
    """

    threshold: tuple[int, int, bool]

    def __call__(self, k: int, l: int) -> bool:
        """a^k >= b^l, for l >= 1: one integer cross-multiplication."""
        num, den, strict = self.threshold
        return k * den > l * num if strict else k * den >= l * num


def _oracle(model: OrderedModel, a: Element, b: Element) -> _Oracle:
    """Exact order oracle (k, l) |-> (a^k >= b^l) for l >= 1 and a dominant a,
    built once per pair, and the order layer's one check of dominance.

    Every caller passes l >= 1: _bracket probes only q >= 1. With every site
    x of a positive, k*x >= l*y at every site (y of b) holds exactly when
    k/l >= N/D, the largest exact ratio y/x. Rounded division is monotone, so
    that ratio lies among the sites whose float y/x equals the float maximum;
    only those go through as_integer_ratio. The strict-positive order needs
    k/l > N/D, unless every site has the one ratio N/D, where equality at
    every site holds too; the non-strict order is never strict.
    """
    model._check(a, b)
    xs, ys = a.data.tolist(), b.data.tolist()
    if not (smallest := min(xs)) > 0:
        raise PreconditionError(f"the order oracle needs a dominant base; its smallest site is {smallest!r}")
    top, tops = -math.inf, []  # the float max of y/x, and the sites at it
    for x, y in zip(xs, ys):
        r = y / x
        if r > top:
            top, tops = r, [(x, y)]
        elif r == top:
            tops.append((x, y))
    ratios = [_ratio(x, y) for x, y in tops]
    num, den = ratios[0]
    for n, d in ratios:
        if n * den > num * d:
            num, den = n, d
    strict = model.order_variant is OrderVariant.STRICT_POSITIVE and (
        len(tops) < len(xs) or any(n * den != num * d for n, d in ratios)
    )
    g = math.gcd(num, den)  # lowest terms keep _bracket's integers short
    return _Oracle((num // g, den // g, strict))


def min_power(model: OrderedModel, a: Element, b: Element, l: int) -> int:
    """Least k in Z with a^k >= b^l, for a dominant a.

    It is ceil(l*p/q) off the certified Farey bracket at n = l: two oracle
    calls and O(log l) integer steps. It relies only on the exact oracle's
    threshold and on upward-closedness of the predicate, which both concrete
    models guarantee, and raises SearchBoundError exactly when |k| passes
    the search bound. The oracle raises PreconditionError for a base that is
    not dominant.
    """
    l = checked_int(l, "l", least=1)
    (p, q), _ = _bracket(_oracle(model, a, b), l)
    return -(-l * p // q)


def _bracket(oracle: _Oracle, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Least p/q with q <= n where the oracle holds, and the p_lo/q_lo below
    it where it fails; the package's one exponent search.

    The oracle of a dominant base is its threshold (N, D, strict): (k, l)
    holds exactly when k/l >= N/D, or k/l > N/D if strict, so p/q is the best
    upper rational approximation of N/D with denominator <= n (Khinchin,
    Continued Fractions). The integer part k is ceil(N/D), or N//D + 1 if
    strict. A Stern-Brocot descent from k-1/1 < k/1 (Graham, Knuth and
    Patashnik, Concrete Mathematics, 4.5) takes each stretch of equal steps
    in one integer division: with the slack s = p*D - q*N at p/q and the
    deficit t = q_lo*N - p_lo*D at p_lo/q_lo, the mediants p + j*p_lo over
    q + j*q_lo hold while j*t <= s (< s if strict), and the mediants p_lo + i*p
    over q_lo + i*q fail while i*s < t (<= t if strict), each capped to keep
    the denominator <= n; a zero divisor leaves the whole cap. That is
    O(log n) integer steps and no oracle call. The integer certificate,
    evaluated through the oracle (holds at p/q, fails at p_lo/q_lo,
    p*q_lo - p_lo*q = 1, q + q_lo > n), cross-checks the descent against the
    cross-multiplication in two calls and leaves no fraction with denominator
    <= n between them, so the least exponent of every l <= n is ceil(l*p/q).
    SearchBoundError is raised when |k| or |ceil(n*p/q)| passes the search
    bound, that is when some least exponent of an l <= n does.
    """
    num, den, strict = oracle.threshold
    k = num // den + 1 if strict else -(-num // den)
    if abs(k) > _SEARCH_BOUND:
        raise SearchBoundError(_SEARCH_BOUND)
    (p_lo, q_lo), (p, q) = (k - 1, 1), (k, 1)
    while q + q_lo <= n:
        cap, t = (n - q) // q_lo, q_lo * num - p_lo * den  # t > 0, or t >= 0 if strict
        j = min(cap, (p * den - q * num - strict) // t) if t else cap
        p, q = p + j * p_lo, q + j * q_lo
        cap, s = (n - q_lo) // q, p * den - q * num  # s >= 0, or s > 0 if strict
        i = min(cap, (t - (not strict)) // s) if s else cap
        p_lo, q_lo = p_lo + i * p, q_lo + i * q
    if not (oracle(p, q) and not oracle(p_lo, q_lo) and p * q_lo - p_lo * q == 1 and q + q_lo > n):
        raise InvariantViolation(f"Farey bracket {p_lo}/{q_lo} < {p}/{q} fails its certificate at n={n}")
    if abs(-(-n * p // q)) > _SEARCH_BOUND:  # |k_l| never shrinks as l grows, and k_1 = k
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


def rho_plus(model: OrderedModel, a: Element, b: Element, l_max: int = DEFAULT_L_MAX) -> RhoEstimate:
    """Upper relative growth rate of b against the dominant a.

    The pair infimum is the p/q of one Farey bracket at l_max, and the limit
    estimate ceil(l_max*p/q)/l_max. The closed form max(b/a) must lie in the
    bracket, in floats and without tolerance (rounded division is monotone).
    The oracle raises PreconditionError for a base that is not dominant.
    """
    l_max = checked_int(l_max, "l_max", least=1)
    (p, q), (p_lo, q_lo) = _bracket(_oracle(model, a, b), l_max)
    with np.errstate(over="ignore"):  # a site whose ratio overflows to -inf leaves the max alone
        rate = float(np.divide(b.data, a.data).max())
    if not p_lo / q_lo <= rate <= p / q:
        raise InvariantViolation(f"closed-form rate {rate} lies outside [{p_lo}/{q_lo}, {p}/{q}]")
    return RhoEstimate(limit_estimate=-(-l_max * p // q) / l_max, pair_infimum=p / q)


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
    [m, m + m^0.6] above m = min_power(q) = ceil(q*num/den), num/den the one
    Farey bracket at prime_bound; windows are capped at the bound, so every
    ratio comes from a genuine pair below it. Only the primes with q*num <=
    prime_bound*den start a window there, and as den <= prime_bound their
    q*num fit int64: one int64 array pass forms every window. Primes come
    from ``table`` if it reaches prime_bound, else from prime_table.
    """
    prime_bound = checked_int(prime_bound, "prime_bound", least=2)
    oracle = _oracle(model, a, b)
    if not b.data.min() > 0:  # the window pass needs num >= 1; checked before any sieve
        raise PreconditionError("rho_plus_primes requires dominant inputs; b is not")
    if table is None or table.bound < prime_bound:
        table = prime_table(prime_bound)
    (num, den), _ = _bracket(oracle, prime_bound)
    last_q = min(prime_bound, prime_bound * den // num)  # num >= 1, as b is dominant
    qs = table.primes[: np.searchsorted(table.primes, last_q, side="right")]
    k_min = -(-(qs * num) // den)
    reach = np.floor(k_min**PRIME_WINDOW_EXPONENT).astype(np.int64)
    window_hi = np.minimum(k_min + reach, prime_bound)
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
    # the product check's tolerance 2/l_max needs it under every method
    l_max = checked_int(l_max, "l_max", least=1)
    if l_max > sys.float_info.max:
        raise InvalidInputError("l_max must be representable as a double")
    if method is Method.PRIME_PAIRS:
        rp = rho_plus_primes(model, a, b, prime_bound)
        rm = rho_plus_primes(model, b, a, prime_bound)
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
