"""Split toric contact domains, the star-shaped domains of T^*T^n x S^1:
covering rescales, toric shape invariants, certified distance bounds,
squeezability certificates, and the bridge from positive autonomous
Hamiltonians to fiberwise star-shaped domains."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, InvariantViolation, PreconditionError, checked_int
from .ordered import DEFAULT_L_MAX, Method, OrderedModel, OrderVariant, growth_distance
from .starshape import DirectionGrid, RadialSet, log_delta, scale


@dataclass(frozen=True, eq=False)
class SplitToricDomain:
    """T^n x fiber x S^1 inside T^*T^n x S^1, the fiber a star-shaped subset
    of the cotangent fibers R^n.

    ``cover`` is bookkeeping for how many times the circle factor has been
    unrolled by covering rescales; for split domains it never affects
    containment. ``_origin`` is the fiber and cover that a chain of
    ``rescale_cover`` calls started from; any other construction, including
    ``dataclasses.replace``, starts a new chain.
    """

    base_dim: int
    fiber: RadialSet
    label: str = ""
    cover: int = 1
    _origin: tuple[RadialSet, int] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "base_dim", checked_int(self.base_dim, "base_dim"))
        object.__setattr__(self, "cover", checked_int(self.cover, "cover", least=1))
        if self.base_dim != self.fiber.grid.dimension:  # the fiber lies in R^base_dim
            raise InvalidInputError("base dimension must equal the fiber dimension")


def rescale_cover(domain: SplitToricDomain, k: int) -> SplitToricDomain:
    """Covering rescale: fiber divided by k, circle unrolled k times.

    The fiber is recomputed from the one its ``rescale_cover`` chain started
    from, so rescaling by k then m is bit-identical to rescaling by k*m.
    """
    k = checked_int(k, "k", least=1)
    origin, start = domain._origin or (domain.fiber, domain.cover)
    cover = domain.cover * k
    # int true division rounds correctly; past the float range it gives 0.0,
    # which scale rejects, where 1.0 / n would raise OverflowError
    rescaled = replace(domain, fiber=scale(origin, 1 / (cover // start)), cover=cover)
    object.__setattr__(rescaled, "_origin", (origin, start))
    return rescaled


def csh(domain: SplitToricDomain) -> RadialSet:
    """Toric contact shape invariant: exactly the fiber, since exact
    Lagrangian tori realize every fiber point and nothing else."""
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


def dcbm_toric(u: SplitToricDomain, v: SplitToricDomain) -> BoundInterval:
    """Certified bracket for the covering-rescale distance of toric domains.

    Both ends are ln delta of the fibers, computed once: the shape-invariant
    obstruction from below, and from above the identity inclusions of covering
    rescales, since (1/k) A_U fits inside (1/l) A_V exactly when k/l >=
    sup(rU/rV) and rationals approach that supremum from above. No independent
    upper witness (an explicit pair (k, l) checked on the grid) is computed.
    """
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
    """Squeezability certificate for split toric domains: always no.

    Squeezing a coarser covering rescale into a finer one would shrink the
    fiber invariant into a strictly smaller scaling of itself, impossible
    for a bounded set with 0 in its interior.
    """
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

    def to_json_dict(self) -> dict:
        return {
            "m_minus": self.m_minus,
            "m_plus": self.m_plus,
            "s_empty": self.s_empty,
            "s_full": self.s_full,
        }


def hamiltonian_to_domain(h) -> HamiltonianDomain:
    """Domain of a positive autonomous contact Hamiltonian, a flat array of site
    samples, on the uniform circle grid with one direction per site."""
    values = np.asarray(h, dtype=float)
    if values.ndim != 1:
        raise InvalidInputError("hamiltonian samples must form a vector")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise PreconditionError(
            "hamiltonian must be strictly positive and finite at every site "
            "(positive contact isotopy)"
        )
    with np.errstate(over="ignore"):  # RadialSet rejects a radius that overflows
        radii = 1.0 / values
    return HamiltonianDomain(
        fiber=RadialSet(DirectionGrid.uniform_circle(values.shape[0]), radii),
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
    dom2 = hamiltonian_to_domain(v2)
    interval = dcbm_toric(SplitToricDomain(2, dom1.fiber), SplitToricDomain(2, dom2.fiber))
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
