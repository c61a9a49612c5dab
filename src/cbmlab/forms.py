"""Contact 1-forms on a sampled manifold, written as e^f times a base form.

Distances between forms come as certified one-sided bounds: upper bounds by
minimizing the conformal sandwich width over finite candidate map families
(the identity always counts), lower bounds from the volumes of the subgraph
domains in the symplectization.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, InvariantViolation, checked_int


@dataclass(frozen=True, eq=False)
class SampledManifold:
    """Quadrature sites for the measure induced by the base contact form.

    ``half_dim`` is the half real dimension of the filled symplectization;
    it controls how volumes respond to Liouville scaling.
    """

    weights: np.ndarray
    half_dim: int

    def __post_init__(self):
        object.__setattr__(self, "half_dim", checked_int(self.half_dim, "half_dim", least=1))
        if self.half_dim > sys.float_info.max:  # volumes scale the exponents by it
            raise InvalidInputError("half dimension must be representable as a double")
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise InvalidInputError("weights must form a nonempty vector")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise InvalidInputError("site weights must be positive and finite")
        object.__setattr__(self, "weights", weights)
        weights.flags.writeable = False

    @property
    def sites(self) -> int:
        return self.weights.size

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        logw = np.log(self.weights)
        logw.flags.writeable = False
        return logw

    def matches(self, other: "SampledManifold") -> bool:
        return self is other or (
            self.half_dim == other.half_dim and np.array_equal(self.weights, other.weights)
        )


def _check_shared(m1: SampledManifold, m2: SampledManifold) -> None:
    if not m1.matches(m2):
        raise InvalidInputError("objects live on different sampled manifolds")


@dataclass(frozen=True, eq=False)
class ContactFormRep:
    """A contact form e^f alpha0, stored as the exponent samples f."""

    manifold: SampledManifold
    f: np.ndarray

    def __post_init__(self):
        f = np.array(self.f, dtype=float)
        if f.shape != (self.manifold.sites,):
            raise InvalidInputError("f must have one sample per site")
        if not np.all(np.isfinite(f)):
            raise InvalidInputError("f must be finite everywhere")
        object.__setattr__(self, "f", f)
        f.flags.writeable = False

    def rescaled(self, c: float) -> "ContactFormRep":
        """The form scaled by a positive constant: f + ln c."""
        if not (c > 0):
            raise InvalidInputError("rescaling constant must be positive")
        return ContactFormRep(self.manifold, self.f + math.log(c))


@dataclass(frozen=True, eq=False)
class ContactMapRep:
    """Candidate contactomorphism data: a site permutation phi. Its conformal
    exponent g = (ln w o phi - ln w) / half_dim is derived, the unique one that
    preserves the subgraph volume of every form, and pulling back e^f alpha0
    yields e^(f o phi + g) alpha0.
    """

    manifold: SampledManifold
    perm: np.ndarray
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        perm = np.array(self.perm, dtype=np.int64)
        n = self.manifold.sites
        # n entries in [0, n) that hit every site form a bijection; O(n), no sort
        in_range = perm.shape == (n,) and perm.min() >= 0 and perm.max() < n
        if not (in_range and np.bincount(perm, minlength=n).all()):
            raise InvalidInputError("phi must be a bijection on sites (a permutation)")
        logw = self.manifold.log_weights
        g = (logw[perm] - logw) / self.manifold.half_dim
        perm.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "g", g)


def pullback(alpha: ContactFormRep, m: ContactMapRep) -> ContactFormRep:
    """Pull the form back through the candidate map: f o phi + g."""
    _check_shared(alpha.manifold, m.manifold)
    return ContactFormRep(alpha.manifold, alpha.f[m.perm] + m.g)


def dcbm_forms_upper(
    f1: ContactFormRep,
    f2: ContactFormRep,
    candidates: Iterable[ContactMapRep] = (),
) -> float:
    """Upper bound for the form distance over a finite candidate family.

    Each candidate phi bounds the distance by the sup-norm of
    f1 - (f2 o phi + g); the identity candidate is always included.
    """
    _check_shared(f1.manifold, f2.manifold)
    # a derived |g| is below 1,455, so a pulled-back exponent stays finite; a
    # width that overflows to inf is rejected when the report is written
    with np.errstate(over="ignore"):
        best = float(np.max(np.abs(f1.f - f2.f)))  # identity candidate
        for m in candidates:  # pullback checks m against f2, which matches f1
            width = float(np.max(np.abs(f1.f - pullback(f2, m).f)))
            if width < best:
                best = width
    return best


def w_alpha_volume(alpha: ContactFormRep) -> float:
    """Volume of the subgraph domain {u < e^f} in the symplectization.

    Radially integrating u^(n'-1) du up to e^f against the site measure
    gives (1/n') * sum e^(n' f) w.
    """
    n = alpha.manifold.half_dim
    with np.errstate(over="ignore"):  # dcbm_forms_lower_volume rejects a volume that overflows
        return float(np.sum(np.exp(n * alpha.f) * alpha.manifold.weights) / n)


def dcbm_forms_lower_volume(f1: ContactFormRep, f2: ContactFormRep) -> float:
    """Volume lower bound for the form distance.

    A conformal sandwich of width ln C squeezes one subgraph domain between
    Liouville rescalings of the other, and rescaling by C multiplies the
    volume by C^(n'); hence ln C >= |ln(vol1/vol2)| / n'.
    """
    _check_shared(f1.manifold, f2.manifold)
    n = f1.manifold.half_dim
    vol1, vol2 = w_alpha_volume(f1), w_alpha_volume(f2)
    if not (vol2 > 0.0 and 0.0 < vol1 / vol2 < math.inf):
        raise InvalidInputError("subgraph volume ratio is not a positive finite double")
    return abs(math.log(vol1 / vol2)) / n


@dataclass(frozen=True)
class FormsDistanceReport:
    upper: float
    lower: float

    @property
    def pinched(self) -> bool:
        return abs(self.upper - self.lower) <= 1e-9

    def to_json_dict(self) -> dict:
        return {"upper": self.upper, "lower": self.lower, "pinched": self.pinched}


def dcbm_forms(
    f1: ContactFormRep,
    f2: ContactFormRep,
    candidates: Sequence[ContactMapRep] = (),
) -> FormsDistanceReport:
    """Both one-sided bounds at once; ``pinched`` marks a certified value.

    Every candidate preserves the subgraph volumes, so lower <= upper holds
    in exact arithmetic. In doubles, rounding n' f and f o phi + g moves each
    exponent by about eps (|f| + |ln w|), and each volume sum is off by
    about (sites + 2) eps relative, which the log and the division by n'
    turn into (sites + 2) eps / n'. So the check allows
    tol = 4 eps (max(|f1|, |f2|) + max |ln w|) + 2 (sites + 2) eps / n'.
    """
    upper = dcbm_forms_upper(f1, f2, candidates)
    lower = dcbm_forms_lower_volume(f1, f2)
    if lower > upper:  # only then is the rounding bound needed, and it costs a tenth of the call
        manifold, eps = f1.manifold, sys.float_info.epsilon
        magnitude = max(np.abs(f1.f).max(), np.abs(f2.f).max()) + np.abs(manifold.log_weights).max()
        tol = float(4 * eps * magnitude + 2 * (manifold.sites + 2) * eps / manifold.half_dim)
        if lower > upper + tol:
            raise InvariantViolation(f"forms bracket crossed: lower {lower!r} > upper {upper!r} + {tol!r}")
    return FormsDistanceReport(upper=upper, lower=lower)
