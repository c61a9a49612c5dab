"""order-stream: a seeded mix of growth-rate, exponent-search and norm queries.

It runs the same oracle and search layers as ``cbmlab accept`` but varies what
the acceptance corpus fixes: site count (12 and 64), order variant, model,
growth-rate method and base magnitude. Every answer is checked against a
closed form the benchmark recomputes from the raw integer samples:
additive samples are multiples of 2^-20, so k*a >= l*b holds exactly when
k*A >= l*B does for the integer numerators A and B.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from cbmlab import acceptance, norms, ordered
from cbmlab.ordered import Method, OrderedModel, OrderVariant
from cbmlab.primes import PrimeTable

from measure import expect

NAME = "order-stream"
L_MAX = 1000
PRIME_BOUND = 10_000
SITES = (12, 64)
NORM_SITES = 8
NORM_EXPONENTS = (2.0, 14.0)  # base magnitudes 2^-2 .. 2^-14; norm memory grows with 2^e
MIN_POWER_MAX_L = 10**6
STREAM = 20_000  # Philox streams clear of the acceptance suite's

# op kind -> entries per pool pass; the composition is fixed and only the
# sampled values depend on the seed, so every seed does comparable work
MIX = {
    "growth-additive": 24,  # 2 site counts x 2 variants x 3 methods x 2
    "growth-multiplicative": 6,  # 2 variants x 3 methods
    "prime-pairs": 4,  # 2 site counts x 2 variants, shared PrimeTable
    "min-power": 12,  # 2 site counts x 2 variants x 3, l log-uniform in 1..10^6
    "norm": 8,  # base magnitudes on a log-uniform grid from 2^-2 to 2^-14
    "stabilization": 6,
}
POOL_SIZE = sum(MIX.values())
VARIANTS = (OrderVariant.NON_STRICT, OrderVariant.STRICT_POSITIVE)


def shared_objects(seed: int) -> dict:
    return {"table": PrimeTable(PRIME_BOUND)}


def _numerators(values: np.ndarray) -> np.ndarray:
    return np.rint(values / acceptance.QUANTUM).astype(np.int64)


def _additive_entry(kind, rng, sites, variant, **extra) -> dict:
    model = OrderedModel.additive(sites, variant)
    a = acceptance.quantized(rng, 0.5, 2.0, sites)
    b = acceptance.quantized(rng, 0.5, 2.0, sites)
    return {
        "kind": kind,
        "model": model,
        "a": model.element(a),
        "b": model.element(b),
        "A": _numerators(a),
        "B": _numerators(b),
        "strict": variant is OrderVariant.STRICT_POSITIVE,
        **extra,
    }


def _specs() -> list[tuple]:
    """The pool composition as (kind, parameters, stratum index, strata)."""
    specs = []
    combos = [(s, v, m) for s in SITES for v in VARIANTS for m in Method]
    specs += [("growth-additive", c, 0, 1) for c in combos for _ in range(MIX["growth-additive"] // len(combos))]
    combos = [(v, m) for v in VARIANTS for m in Method]
    specs += [("growth-multiplicative", c, 0, 1) for c in combos for _ in range(MIX["growth-multiplicative"] // len(combos))]
    combos = [(s, v) for s in SITES for v in VARIANTS]
    per = MIX["prime-pairs"] // len(combos)
    specs += [("prime-pairs", c, 0, 1) for c in combos for _ in range(per)]
    per = MIX["min-power"] // len(combos)
    specs += [("min-power", c, i, per) for c in combos for i in range(per)]
    specs += [("norm", (), i, MIX["norm"]) for i in range(MIX["norm"])]
    specs += [("stabilization", (), 0, 1) for _ in range(MIX["stabilization"])]
    assert len(specs) == POOL_SIZE
    return specs


def make_entry(seed: int, index: int, spec: tuple, shared: dict) -> dict:
    kind, params, stratum, strata = spec
    rng = acceptance.item_rng(seed, STREAM + 1 + index)
    if kind == "growth-additive":
        sites, variant, method = params
        return _additive_entry(kind, rng, sites, variant, method=method)
    if kind == "growth-multiplicative":
        variant, method = params
        model = OrderedModel.multiplicative(variant)
        va, vb = (float(x) for x in acceptance.quantized(rng, 1.5, 8.0, 2))
        return {"kind": kind, "model": model, "a": model.element(va), "b": model.element(vb), "method": method}
    if kind == "prime-pairs":
        return _additive_entry(kind, rng, *params)
    if kind == "min-power":
        u = (stratum + rng.uniform()) / strata
        l = max(1, int(round(MIN_POWER_MAX_L**u)))
        return _additive_entry(kind, rng, *params, l=l)
    model = OrderedModel.additive(NORM_SITES, OrderVariant.NON_STRICT)
    lo, hi = NORM_EXPONENTS
    scale = 2.0 ** -(lo + (hi - lo) * stratum / (strata - 1)) if kind == "norm" else 1.0
    base = acceptance.quantized(rng, 0.5 * scale, 2.0 * scale, NORM_SITES)
    arg = acceptance.quantized(rng, -2.0, 2.0, NORM_SITES)
    # one site at the extreme ratio fixes sup|arg/base|, and with it the size
    # of norm's cross-check scan, so every seed allocates the same memory
    base[0] = acceptance.quantized(rng, 0.5 * scale, 0.5 * scale, 1)[0]
    arg[0] = 2.0 if rng.uniform() < 0.5 else -2.0
    return {
        "kind": kind,
        "base": model.element(base),
        "arg": model.element(arg),
        "Base": _numerators(base),
        "Arg": _numerators(arg),
    }


def pool_specs(seed: int) -> list[tuple]:
    """The pool composition in the seed's op order; spec[0] is the op kind."""
    specs = _specs()
    return [specs[j] for j in acceptance.item_rng(seed, STREAM).permutation(len(specs))]


def run_op(entry: dict, shared: dict):
    kind = entry["kind"]
    if kind in ("growth-additive", "growth-multiplicative"):
        return ordered.growth_distance(
            entry["model"], entry["a"], entry["b"], L_MAX, entry["method"], PRIME_BOUND
        )
    if kind == "prime-pairs":
        return ordered.rho_plus_primes(
            entry["model"], entry["a"], entry["b"], PRIME_BOUND, table=shared["table"]
        )
    if kind == "min-power":
        return ordered.min_power(entry["model"], entry["a"], entry["b"], entry["l"])
    if kind == "norm":
        return norms.norm(entry["base"], entry["arg"])
    return norms.stabilization(entry["base"], entry["arg"], L_MAX)


def _fields(entry: dict, result) -> list:
    kind = entry["kind"]
    if kind.startswith("growth"):
        return [result.rho_plus, result.rho_minus, result.gamma, result.distance]
    if kind == "norm":
        return [result.nu_plus, result.nu_minus, result.nu]
    return [result]


def render(entry: dict, result) -> str:
    """Canonical text of an answer, hashed into the run digest."""
    return json.dumps([entry["kind"], _fields(entry, result)])


# -- closed forms --------------------------------------------------------------


def least_k_additive(A: np.ndarray, B: np.ndarray, ls: np.ndarray, strict: bool) -> np.ndarray:
    """Least integer k with k*A >= l*B at every site, for each l in ls.

    The strict-positive order holds when k*A > l*B at every site or the two
    are equal.
    """
    q, r = np.divmod(ls[:, None] * B[None, :], A[None, :])
    if not strict:
        return (q + (r > 0)).max(axis=1)
    equal = (r == 0).all(axis=1) & (q == q[:, :1]).all(axis=1)
    return np.where(equal, q[:, 0], q.max(axis=1) + 1)


def least_k_multiplicative(la: float, lb: float, ls: np.ndarray) -> np.ndarray:
    """Least k with k*la >= l*lb in double precision, as the oracle evaluates it."""
    target = ls.astype(float) * lb
    k = np.ceil(target / la)
    while (low := k * la < target).any():
        k[low] += 1
    while (high := (k - 1) * la >= target).any():
        k[high] -= 1
    return k.astype(np.int64)


def _least_k(entry: dict, forward: bool, ls: np.ndarray) -> np.ndarray:
    if entry["model"].kind.name == "MULTIPLICATIVE_REALS":
        la, lb = entry["a"].data, entry["b"].data
        return least_k_multiplicative(la, lb, ls) if forward else least_k_multiplicative(lb, la, ls)
    A, B = entry["A"], entry["B"]
    return least_k_additive(A, B, ls, entry["strict"]) if forward else least_k_additive(B, A, ls, entry["strict"])


def rho_closed_form(entry: dict, forward: bool) -> tuple[float, float]:
    """(limit estimate, pair infimum) of the upper growth rate."""
    ls = np.arange(1, L_MAX + 1, dtype=np.int64)
    ks = _least_k(entry, forward, ls)
    return float(ks[-1] / L_MAX), float(np.min(ks / ls))


@functools.cache
def _primes() -> np.ndarray:
    mask = np.ones(PRIME_BOUND + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(PRIME_BOUND) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def prime_pairs_closed_form(entry: dict, forward: bool) -> float:
    """Least p/q over primes q, with p the first prime in the witness window."""
    primes = _primes()
    ks = _least_k(entry, forward, primes)
    best = math.inf
    for q, k in zip(primes.tolist(), ks.tolist()):
        if k > PRIME_BOUND:
            continue
        lo = max(k, 2)
        hi = min(k + int(k**ordered.PRIME_WINDOW_EXPONENT) if k > 0 else 2, PRIME_BOUND)
        idx = int(np.searchsorted(primes, lo))
        if idx < len(primes) and primes[idx] <= hi:
            best = min(best, int(primes[idx]) / q)
    return best


def _norm_closed_form(Base: np.ndarray, Arg: np.ndarray) -> tuple[int, int, int]:
    plus = int(np.max(-((-Arg) // Base)))
    minus = int(np.min(Arg // Base))
    return plus, minus, max(abs(plus), abs(minus))


def check(entry: dict, result, shared: dict) -> None:
    kind = entry["kind"]
    if kind.startswith("growth"):
        method = entry["method"]
        if method is Method.PRIME_PAIRS:
            rp, rm = prime_pairs_closed_form(entry, True), prime_pairs_closed_form(entry, False)
        else:
            pick = 0 if method is Method.LIMIT_SEQUENCE else 1
            rp, rm = rho_closed_form(entry, True)[pick], rho_closed_form(entry, False)[pick]
        gamma = max(abs(rp), abs(rm))
        expected = [rp, rm, gamma, math.log(gamma)]
        expect(_fields(entry, result) == expected, f"growth_distance {_fields(entry, result)} != {expected}")
        expect(rp * rm >= 1.0 - 2.0 / L_MAX, "growth-rate product inequality")
    elif kind == "prime-pairs":
        expected = prime_pairs_closed_form(entry, True)
        expect(result == expected, f"rho_plus_primes {result!r} != {expected!r}")
    elif kind == "min-power":
        # k must hold and k - 1 must fail: k is the least integer that holds
        least = least_k_additive(entry["A"], entry["B"], np.array([entry["l"]]), entry["strict"])[0]
        expect(isinstance(result, int) and result == least, f"min_power {result!r}: least k is {least}")
    elif kind == "norm":
        expected = list(_norm_closed_form(entry["Base"], entry["Arg"]))
        expect(_fields(entry, result) == expected, f"norm {_fields(entry, result)} != {expected}")
    else:
        nu = _norm_closed_form(entry["Base"], L_MAX * entry["Arg"])[2]
        expect(result == nu / L_MAX, f"stabilization {result!r} != {nu}/{L_MAX}")
