"""Split toric contact domains: covering rescales, toric shape invariants,
certified distance bounds, squeezability certificates, and the bridge from
positive autonomous Hamiltonians to fiberwise star-shaped domains."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidInputError,
    InvariantViolation,
    PreconditionError,
    UnsupportedDomainError,
)
from .ordered import DEFAULT_L_MAX, Method, OrderedModel, OrderVariant, growth_distance
from .starshape import DirectionGrid, RadialSet, log_delta, scale_pow

TORIC_WEIGHT = 1.0  # cotangent-fiber Liouville weight


@dataclass(frozen=True, eq=False)
class SplitToricDomain:
    """T^n x fiber x S^1 with a Liouville scaling weight.

    ``cover`` is bookkeeping for how many times the circle factor has been
    unrolled by covering rescales; for split domains it never affects
    containment.
    """

    base_dim: int
    fiber: RadialSet
    liouville_weight: float = TORIC_WEIGHT
    label: str = ""
    cover: int = 1

    def __post_init__(self):
        if self.base_dim < 1:
            raise InvalidInputError("base dimension must be >= 1")
        if not (0.0 < self.liouville_weight <= 1.0):
            raise InvalidInputError("liouville weight must lie in (0, 1]")
        if self.cover < 1:
            raise InvalidInputError("cover index must be a positive integer")

    @property
    def is_toric(self) -> bool:
        return self.liouville_weight == TORIC_WEIGHT


def rescale_cover(domain: SplitToricDomain, k: int) -> SplitToricDomain:
    """Covering rescale: fiber shrunk by k^(-weight), circle unrolled k times."""
    if k < 1:
        raise InvalidInputError("covering index k must be a positive integer")
    return replace(
        domain,
        fiber=scale_pow(domain.fiber, k, domain.liouville_weight),
        cover=domain.cover * k,
    )


def csh(domain: SplitToricDomain) -> RadialSet:
    """Toric contact shape invariant: exactly the fiber.

    Valid only for torus-based split domains, where exact Lagrangian tori
    realize every fiber point and nothing else.
    """
    if not domain.is_toric:
        raise UnsupportedDomainError(
            "shape invariant closed form requires a torus base (liouville weight 1)"
        )
    return domain.fiber


@dataclass(frozen=True)
class BoundInterval:
    """Certified [lower, upper] bracket for a distance value."""

    lower: float
    upper: float
    lower_certificate: str
    upper_certificate: str

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise InvariantViolation(
                f"certified bounds crossed: lower {self.lower} > upper {self.upper}"
            )

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_certificate": self.lower_certificate,
            "upper_certificate": self.upper_certificate,
        }


def _check_toric_pair(u: SplitToricDomain, v: SplitToricDomain) -> None:
    if u.base_dim != v.base_dim:
        raise InvalidInputError("base dimensions differ")
    if u.liouville_weight != v.liouville_weight:
        raise InvalidInputError("liouville weights differ")
    if not u.is_toric:
        raise UnsupportedDomainError("certified bounds require torus-based domains")


def dcbm_toric(u: SplitToricDomain, v: SplitToricDomain) -> BoundInterval:
    """Certified bracket for the covering-rescale distance of toric domains.

    Both ends are ln delta of the fibers, computed once: the shape-invariant
    obstruction from below, and from above the identity inclusions of covering
    rescales, since (1/k) A_U fits inside (1/l) A_V exactly when k/l >=
    sup(rU/rV) and rationals approach that supremum from above. No independent
    upper witness (an explicit pair (k, l) checked on the grid) is computed.
    """
    _check_toric_pair(u, v)
    value = log_delta(csh(u), csh(v))
    return BoundInterval(
        lower=value,
        upper=value,
        lower_certificate=(
            "shape-invariant obstruction: any isotopy squeezing one covering rescale "
            "into another preserves the fiber invariant, forcing the fiber containment "
            f"ratio; ln delta(fibers) = {value!r}"
        ),
        upper_certificate=(
            "identity inclusions: rational covering pairs (k, l) with k/l approaching "
            f"the extremal radial ratio realize the inclusions; ln sup-ratio = {value!r}"
        ),
    )


@dataclass(frozen=True)
class DcResult:
    """Coarse containment distance of two fibers with both certificates."""

    value: float
    lower_certificate: str
    upper_certificate: str

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "lower_certificate": self.lower_certificate,
            "upper_certificate": self.upper_certificate,
        }


def dc_toric(u_fiber: RadialSet, v_fiber: RadialSet) -> DcResult:
    """Coarse distance of torus-fiberwise domains: ln delta of the fibers."""
    value = log_delta(u_fiber, v_fiber)
    return DcResult(
        value=value,
        lower_certificate=(
            "shape-invariant chain: fiber containment obstructs any smaller scaling"
        ),
        upper_certificate=(
            "identity embeddings after Liouville scaling by the extremal radial ratio"
        ),
    )


@dataclass(frozen=True)
class SqueezabilityVerdict:
    squeezable: bool
    certificate: str

    def to_json_dict(self) -> dict:
        return {"squeezable": self.squeezable, "certificate": self.certificate}


def is_squeezable_toric(domain: SplitToricDomain) -> SqueezabilityVerdict:
    """Squeezability certificate for torus-based split domains: always no.

    Squeezing a coarser covering rescale into a finer one would shrink the
    fiber invariant into a strictly smaller scaling of itself, impossible
    for a bounded set with 0 in its interior.
    """
    if not domain.is_toric:
        raise UnsupportedDomainError(
            "squeezability certificate covers only torus-based domains"
        )
    r_min = float(np.min(domain.fiber.radii))
    r_max = float(np.max(domain.fiber.radii))
    certificate = (
        "non-squeezable: suppose an isotopy carried the k-th covering rescale into "
        "the l-th with k < l. Monotonicity of the fiber shape invariant under such "
        "inclusions would give (1/k)A inside (1/l)A, i.e. A inside (k/l)A with "
        f"k/l < 1. Since A is bounded (max radius {r_max!r}) and contains 0 in its "
        f"interior (min radius {r_min!r}), that containment forces l <= k, a "
        "contradiction."
    )
    return SqueezabilityVerdict(squeezable=False, certificate=certificate)


@dataclass(frozen=True)
class HamiltonianDomain:
    """Fiberwise star-shaped domain cut out by a positive autonomous generator.

    The slice at radial coordinate s keeps the directions where h < 1/s, so
    the fiber's radial profile is 1/h; slices are empty beyond 1/min(h) and
    full below 1/max(h).
    """

    fiber: RadialSet
    m_minus: float
    m_plus: float

    @property
    def s_empty(self) -> float:
        return 1.0 / self.m_minus

    @property
    def s_full(self) -> float:
        return 1.0 / self.m_plus

    def as_domain(self, label: str = "") -> SplitToricDomain:
        return SplitToricDomain(
            base_dim=self.fiber.grid.dimension,
            fiber=self.fiber,
            liouville_weight=TORIC_WEIGHT,
            label=label,
        )

    def to_json_dict(self) -> dict:
        return {
            "m_minus": self.m_minus,
            "m_plus": self.m_plus,
            "s_empty": self.s_empty,
            "s_full": self.s_full,
        }


def hamiltonian_to_domain(h, grid: DirectionGrid | None = None) -> HamiltonianDomain:
    """Domain of a positive autonomous contact Hamiltonian, a flat array of site samples."""
    values = np.asarray(h, dtype=float)
    if values.ndim != 1:
        raise InvalidInputError("hamiltonian samples must form a vector")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise PreconditionError(
            "hamiltonian must be strictly positive and finite at every site "
            "(positive contact isotopy)"
        )
    if grid is None:
        grid = DirectionGrid.uniform_circle(values.shape[0])
    elif grid.count != values.shape[0]:
        raise InvalidInputError("site count does not match the direction grid")
    with np.errstate(over="ignore"):  # RadialSet rejects a radius that overflows
        radii = 1.0 / values
    return HamiltonianDomain(
        fiber=RadialSet(grid, radii),
        m_minus=float(np.min(values)),
        m_plus=float(np.max(values)),
    )


@dataclass(frozen=True)
class RgrCbmReport:
    """Order distance vs domain distance for two commuting positive generators."""

    d_order: float
    d_cbm: float
    gap: float
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "d_order": self.d_order,
            "d_cbm": self.d_cbm,
            "gap": self.gap,
            "tol": self.tol,
        }


def rgr_vs_cbm(h1, h2, l_max: int = DEFAULT_L_MAX) -> RgrCbmReport:
    """Check that the order distance of two positive generators, flat arrays
    on one site set, dominates the distance of their domains, whose fibers
    share the uniform circle grid with one direction per site.

    In the commuting autonomous model the two sides agree: both reduce to
    the log of the extremal ratio of the generators.
    """
    v1 = np.asarray(h1, dtype=float)
    v2 = np.asarray(h2, dtype=float)
    if v1.ndim != 1 or v1.shape != v2.shape:
        raise InvalidInputError("generators must be flat arrays on one site set")
    model = OrderedModel.additive(v1.shape[0], OrderVariant.STRICT_POSITIVE)
    a, b = model.element(v1), model.element(v2)
    report = growth_distance(model, a, b, l_max=l_max, method=Method.PAIR_INFIMUM)

    dom1 = hamiltonian_to_domain(v1)
    dom2 = hamiltonian_to_domain(v2, dom1.fiber.grid)
    interval = dcbm_toric(dom1.as_domain("U(h1)"), dom2.as_domain("U(h2)"))
    d_cbm = interval.upper

    tol = 3.0 / l_max
    gap = abs(report.distance - d_cbm)
    if report.distance < d_cbm - tol:
        raise InvariantViolation(
            f"order distance {report.distance} fell below domain distance {d_cbm} - {tol}"
        )
    if gap > tol:
        raise InvariantViolation(
            f"commuting-model equality failed: |{report.distance} - {d_cbm}| > {tol}"
        )
    return RgrCbmReport(
        d_order=report.distance,
        d_cbm=d_cbm,
        gap=gap,
        tol=tol,
    )
