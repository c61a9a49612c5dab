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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DOUBLE_MAX,
    InvalidInputError,
    InvariantViolation,
    checked_array,
    checked_int,
    checked_number,
)
from .primes import MAX_PRIME_BOUND, PrimeTable, prime_table

DEFAULT_L_MAX = 1000
DEFAULT_PRIME_BOUND = 10_000
# the prime-gap window [m, m + floor(m^0.6)] of the earlier witness search, which the
# benchmark's reference and the finite check in the tests still use; the pass forms none
PRIME_WINDOW_EXPONENT = 0.6
_SEARCH_BOUND = 10**12
_Bracket = tuple[tuple[int, int], tuple[int, int]]  # ((p, q), (p_lo, q_lo)), as _bracket returns it


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
        object.__setattr__(self, "data", checked_array(self.data, "an element", ndim=1, finite=True))


@dataclass(frozen=True)
class OrderedModel:
    """A semigroup with composition, an order oracle, and a dominance test."""

    kind: ModelKind
    site_count: int
    order_variant: OrderVariant = OrderVariant.NON_STRICT

    def __post_init__(self):
        for name, enum in (("kind", ModelKind), ("order_variant", OrderVariant)):
            if not isinstance(value := getattr(self, name), enum):
                raise InvalidInputError(f"{name} must be a member of {enum.__name__}, got {value!r}")
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
            value = np.array([math.log(checked_number(value, "a multiplicative element", above=0))])
        e = Element(value)
        self._check(e)
        return e

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
        k = checked_int(k, "k", -DOUBLE_MAX, DOUBLE_MAX)  # k * a.data converts k to a double
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
    threshold (N, D, strict) in lowest terms that _oracles finds:
    (k, l) holds exactly when k*D >= l*N, or k*D > l*N if strict.
    """

    threshold: tuple[int, int, bool]

    def __call__(self, k: int, l: int) -> bool:
        """a^k >= b^l, for l >= 1: one integer cross-multiplication."""
        num, den, strict = self.threshold
        return k * den > l * num if strict else k * den >= l * num


def _not_dominant(smallest: float) -> InvalidInputError:
    return InvalidInputError(f"the order oracle needs a dominant base; its smallest site is {smallest!r}")


def _extreme(sites: list, least: bool) -> tuple[int, int]:
    """The largest exact y/x over the sites (x, y), or the least if ``least``,
    as (n, d) in lowest terms with d > 0."""
    ratios = [_ratio(x, y) for x, y in sites]
    num, den = ratios[0]
    for n, d in ratios:
        if (n * den < num * d) if least else (n * den > num * d):
            num, den = n, d
    g = math.gcd(num, den)  # lowest terms keep _bracket's integers short
    return num // g, den // g


def _oracles(model: OrderedModel, a: Element, b: Element, negated: bool) -> tuple[_Oracle, _Oracle]:
    """Exact order oracle (k, l) |-> (a^k >= b^l) for l >= 1 and a dominant a,
    and that of its partner, (b, a), or (a, b^-1) if negated, from one pass
    over the sites; the order layer's one oracle builder and its one check
    of dominance.

    Every caller passes l >= 1: _bracket probes only q >= 1. With every site
    x of a positive, k*x >= l*y at every site (y of b) holds exactly when
    k/l >= N/D, the largest exact ratio y/x. Rounded division is monotone, so
    that ratio lies among the sites whose float y/x equals the float maximum,
    and the least exact ratio n/d among those at the float minimum; only
    those go through as_integer_ratio. The partner's threshold is d/n for
    (b, a), the largest exact x/y, and -n/d for (a, b^-1). The strict-positive
    order needs k/l > N/D, unless every site has the one ratio N/D = n/d,
    where equality at every site holds too; the non-strict order is never
    strict. Either order has one ratio at every site exactly when (a, b)
    does, so the two share ``strict``. The first oracle does not depend on
    ``negated``. The partner (a, b^-1) needs nothing of b, but (b, a) has b
    for its base, so unless negated a b that is not dominant is rejected
    here, with the message a gets, before the caller does any work.
    """
    model._check(a, b)
    xs, ys = a.data.tolist(), b.data.tolist()
    if not (smallest := min(xs)) > 0:
        raise _not_dominant(smallest)
    top, tops, bottom, bottoms = -math.inf, [], math.inf, []
    for x, y in zip(xs, ys):
        r = y / x
        if r > top:
            top, tops = r, [(x, y)]
        elif r == top:
            tops.append((x, y))
        if r < bottom:
            bottom, bottoms = r, [(x, y)]
        elif r == bottom:
            bottoms.append((x, y))
    high, (n, d) = _extreme(tops, False), _extreme(bottoms, True)
    strict = model.order_variant is OrderVariant.STRICT_POSITIVE and (len(tops) < len(xs) or high != (n, d))
    oracle = _Oracle((*high, strict))
    if negated:
        return oracle, _Oracle((-n, d, strict))
    if n <= 0:  # some y <= 0, as every x > 0
        raise _not_dominant(min(ys))
    return oracle, _Oracle((d, n, strict))


def min_power(model: OrderedModel, a: Element, b: Element, l: int) -> int:
    """Least k in Z with a^k >= b^l, for a dominant a.

    It is ceil(l*p/q) off the certified Farey bracket at n = l: two oracle
    calls and O(log l) integer steps. It relies only on the exact oracle's
    threshold and on upward-closedness of the predicate, which both concrete
    models guarantee, and raises InvalidInputError exactly when |k| passes
    the search bound. The oracle raises InvalidInputError for a base that is
    not dominant.
    """
    l = checked_int(l, "l", least=1)
    (p, q), _ = _bracket(_oracles(model, a, b, negated=True)[0], l)
    return -(-l * p // q)


def _bracket(oracle: _Oracle, n: int) -> _Bracket:
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
    the denominator <= n; a zero divisor leaves the whole cap. A stretch of j
    steps leaves the slack s - j*t, and one of i steps the deficit t - i*s,
    so both are kept up to date without a product of N or D. That is
    O(log n) integer steps and no oracle call. The integer certificate,
    evaluated through the oracle (holds at p/q, fails at p_lo/q_lo,
    p*q_lo - p_lo*q = 1, q + q_lo > n), cross-checks the descent against the
    cross-multiplication in two calls and leaves no fraction with denominator
    <= n between them, so the least exponent of every l <= n is ceil(l*p/q).
    InvalidInputError is raised when |ceil(n*p/q)| passes the search bound,
    that is when some least exponent of an l <= n does.
    """
    num, den, strict = oracle.threshold
    k = num // den + 1 if strict else -(-num // den)
    p_lo, q_lo, p, q = k - 1, 1, k, 1
    s, t, loose = k * den - num, num - (k - 1) * den, not strict  # s >= 0 (> 0 if strict), t > 0 (>= 0)
    while q + q_lo <= n:
        j = (n - q) // q_lo
        if t and (run := (s - strict) // t) < j:
            j = run
        p += j * p_lo
        q += j * q_lo
        s -= j * t
        i = (n - q_lo) // q
        if s and (run := (t - loose) // s) < i:
            i = run
        p_lo += i * p
        q_lo += i * q
        t -= i * s
    if not (oracle(p, q) and not oracle(p_lo, q_lo) and p * q_lo - p_lo * q == 1 and q + q_lo > n):
        raise InvariantViolation(f"Farey bracket {p_lo}/{q_lo} < {p}/{q} fails its certificate at n={n}")
    if abs(-(-n * p // q)) > _SEARCH_BOUND:  # |k_l| never shrinks as l grows, and k_1 = k
        raise InvalidInputError(f"exponent search exceeded bound {_SEARCH_BOUND}")
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


def _rate_bracket(oracle: _Oracle, n: int, rate: float) -> _Bracket:
    """_bracket(oracle, n), checked to hold ``rate``, the float closed form of
    its growth rate, in floats and without tolerance (rounded division is
    monotone)."""
    (p, q), (p_lo, q_lo) = bracket = _bracket(oracle, n)
    if not p_lo / q_lo <= rate <= p / q:
        raise InvariantViolation(f"closed-form rate {rate} lies outside [{p_lo}/{q_lo}, {p}/{q}]")
    return bracket


def rho_plus(model: OrderedModel, a: Element, b: Element, l_max: int = DEFAULT_L_MAX) -> RhoEstimate:
    """Upper relative growth rate of b against the dominant a.

    The pair infimum is the p/q of one Farey bracket at l_max, and the limit
    estimate ceil(l_max*p/q)/l_max. The closed form max(b/a) must lie in the
    bracket. The oracle raises InvalidInputError for a base that is not
    dominant.
    """
    l_max = checked_int(l_max, "l_max", least=1)
    oracle = _oracles(model, a, b, negated=True)[0]
    with np.errstate(over="ignore"):  # a site whose ratio overflows to -inf leaves the max alone
        rate = float(np.divide(b.data, a.data).max())
    (p, q), _ = _rate_bracket(oracle, l_max, rate)
    return RhoEstimate(limit_estimate=-(-l_max * p // q) / l_max, pair_infimum=p / q)


def growth_brackets(
    model: OrderedModel, a: Element, b: Element, n: int, *, negated: bool = False
) -> tuple[_Bracket, _Bracket]:
    """The Farey brackets ((p, q), (p_lo, q_lo)) at n of the growth rate of b
    against the dominant a and of its partner's, a against b, or b^-1 against
    a if negated, from one site pass.

    Each is the bracket rho_plus reads, checked as rho_plus checks it against
    its closed form, max(a/b) or -min(b/a) for the partner; the least
    exponent of an l <= n is ceil(l*p/q). The oracle builder rejects a base
    that is not dominant, a, and b unless negated, before either bracket.
    """
    n = checked_int(n, "n", least=1)
    oracle, partner = _oracles(model, a, b, negated)
    with np.errstate(over="ignore"):  # a site whose ratio overflows to -inf leaves the max alone
        ratio = np.divide(b.data, a.data)
        rate = -float(ratio.min()) if negated else float(np.divide(a.data, b.data).max())
    return _rate_bracket(oracle, n, float(ratio.max())), _rate_bracket(partner, n, rate)


def _prime_pair(oracle: _Oracle, prime_bound: int, table: PrimeTable | None) -> tuple[int, int]:
    """rho_plus_primes's least prime pair (p, q) off one oracle of a pair of dominants."""
    if table is None or table.bound < prime_bound:
        table = prime_table(prime_bound)
    primes = table.primes
    top = int(primes[primes.searchsorted(prime_bound, side="right") - 1])  # prime_bound >= 2
    (num, den), _ = _bracket(oracle, prime_bound)
    last_q = min(top, top * den // num)  # num >= 1, as b is dominant
    qs = primes[: primes.searchsorted(last_q, side="right")]
    if not qs.size:
        raise InvalidInputError(f"no prime ordering pair found with entries <= {prime_bound}")
    k_min = qs * num
    np.floor_divide(k_min, -den, out=k_min)  # -ceil(q*num/den)
    np.negative(k_min, out=k_min)
    ps = primes[primes.searchsorted(k_min)]  # k_min <= top: a prime <= prime_bound
    least = np.divide(ps, qs).argmin()
    return int(ps[least]), int(qs[least])


def rho_plus_primes(
    model: OrderedModel,
    a: Element,
    b: Element,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    *,
    table: PrimeTable | None = None,
) -> float:
    """Least p/q over the prime ordering pairs (p, q) with p, q <= prime_bound.

    Off the one Farey bracket num/den at prime_bound, the least exponent of
    a prime q is k = ceil(q*num/den), and the least prime p of q is the first
    prime at or after k. With top the largest prime <= prime_bound, that p
    is <= prime_bound exactly when k <= top, that is when q*num <= top*den;
    only those primes are kept, and as den <= prime_bound each q*num is at
    most prime_bound^2, exact in int64. One int64 array pass forms every k
    and one binary search every p. The rate is exactly the least p/q, and
    it equals the earlier witness search in [k, k + floor(k^0.6)], since a
    finite check finds the first prime at or after every start up to 10^8
    in that window. Primes come from ``table`` if it reaches prime_bound,
    else from prime_table. The pass needs num >= 1, so the oracle builder
    checks that b is dominant, as it checks a.
    """
    prime_bound = checked_int(prime_bound, "prime_bound", 2, MAX_PRIME_BOUND)
    p, q = _prime_pair(_oracles(model, a, b, negated=False)[0], prime_bound, table)
    return p / q


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
    """Distance between two dominants: ln of the larger relative growth rate.

    Both rates, of b against a and of a against b, are extremes of the one
    site-ratio array b/a: its maximum and the reciprocal of its minimum. So
    every method builds both oracles from one site pass. Each rate is
    rho_plus's, or rho_plus_primes's, bit for bit: the p/q of an integer
    pair at least its threshold, max(b/a) or max(a/b), whose product is at
    least 1, so p*p' >= q*q' is checked exactly. The oracle builder checks
    that a and b are both dominant before any bracket or sieve.
    """
    if not isinstance(method, Method):
        raise InvalidInputError(f"method must be a member of Method, got {method!r}")
    l_max = checked_int(l_max, "l_max", least=1)
    prime_bound = checked_int(prime_bound, "prime_bound", 2, MAX_PRIME_BOUND)  # one rule under every method
    if method is Method.PRIME_PAIRS:
        (p, q), (p_m, q_m) = (_prime_pair(o, prime_bound, None) for o in _oracles(model, a, b, negated=False))
    else:
        ((p, q), _), ((p_m, q_m), _) = growth_brackets(model, a, b, l_max)
        if method is Method.LIMIT_SEQUENCE:
            (p, q), (p_m, q_m) = (-(-l_max * p // q), l_max), (-(-l_max * p_m // q_m), l_max)
    if p * p_m < q * q_m:
        raise InvariantViolation(f"growth-rate product inequality failed: {p}/{q} * {p_m}/{q_m} < 1")
    rp, rm = p / q, p_m / q_m
    gamma = max(rp, rm)
    return GrowthRateReport(
        rho_plus=rp,
        rho_minus=rm,
        gamma=gamma,
        distance=math.log(gamma),
        l_max=l_max,
        method=method,
    )
