"""Split toric contact domains, the star-shaped domains of T^*T^n x S^1:
covering rescales, toric shape invariants, distance brackets whose two ends
are one ln delta of the fibers, squeezability certificates, and the bridge
from positive autonomous Hamiltonians to fiberwise star-shaped domains."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, InvariantViolation, checked_array, checked_int, rounding_bound
from .ordered import DEFAULT_L_MAX, OrderedModel, OrderVariant, growth_brackets
from .starshape import MAX_GRID_COUNT, MIN_GRID_COUNT, DirectionGrid, RadialSet, delta, log_delta, scale


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

    def __post_init__(self):
        if self.lower > self.upper:
            raise InvariantViolation(
                f"certified bounds crossed: lower {self.lower} > upper {self.upper}"
            )

    def to_json_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper}


def dcbm_toric(u: SplitToricDomain, v: SplitToricDomain) -> BoundInterval:
    """Certified bracket for the covering-rescale distance of toric domains.

    Both ends are ln delta of the fibers, computed once: from below the shape
    invariant, which an isotopy squeezing one covering rescale into another
    preserves, forcing the fiber containment ratio; from above the identity
    inclusions, since (1/k) A_U fits inside (1/l) A_V exactly when k/l >=
    sup(rU/rV) and rationals approach that supremum from above. No independent
    upper witness (an explicit pair (k, l) checked on the grid) is computed.
    """
    value = log_delta(csh(u), csh(v))
    return BoundInterval(value, value)


@dataclass(frozen=True)
class DcResult:
    """Coarse containment distance of two fibers."""

    value: float

    def to_json_dict(self) -> dict:
        return {"value": self.value}


def dc_toric(u_fiber: RadialSet, v_fiber: RadialSet) -> DcResult:
    """Coarse distance of torus-fiberwise domains: ln delta of the fibers, both
    ends of ``dcbm_toric``'s bracket."""
    return DcResult(log_delta(u_fiber, v_fiber))


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
    samples, on the uniform circle grid with one direction per site. Every
    sample is finite and positive, as for a positive contact isotopy."""
    values = checked_array(h, "hamiltonian samples", ndim=1, finite=True, positive=True)
    checked_int(values.size, "hamiltonian sample count", MIN_GRID_COUNT, MAX_GRID_COUNT)
    fiber = _fiber(values, DirectionGrid.uniform_circle(values.shape[0]), "hamiltonian samples")
    return HamiltonianDomain(fiber=fiber, m_minus=float(np.min(values)), m_plus=float(np.max(values)))


def _fiber(values: np.ndarray, grid: DirectionGrid, name: str) -> RadialSet:
    """The fiber of radii 1/h on the grid, for positive samples h named name."""
    least = float(np.min(values))
    if 1.0 / least == math.inf:  # the largest radius 1/h, at the least sample, overflows
        raise InvalidInputError(f"{name} must be large enough that 1/h is finite, got {least!r}")
    return RadialSet(grid, 1.0 / values)


@dataclass(frozen=True)
class RgrCbmReport:
    """Order distance vs domain distance for two commuting positive generators."""

    d_order: float
    d_cbm: float
    gap: float


def rgr_vs_cbm(h1, h2, l_max: int = DEFAULT_L_MAX) -> RgrCbmReport:
    """Check that the order distance of two positive generators, flat arrays
    on one site set, equals the distance of their domains, whose fibers
    share the uniform circle grid with one direction per site.

    In the commuting autonomous model both reduce to the log of the extremal
    ratio of the generators, so delta of the fibers must lie in the order
    distance's Farey bracket at l_max, up to the radii path's rounding.
    """
    v1 = checked_array(h1, "h1", ndim=1, finite=True, positive=True)
    v2 = checked_array(h2, "h2", ndim=1, finite=True, positive=True)
    if v1.size != v2.size:
        raise InvalidInputError("h2 must have one sample per site of h1")
    l_max = checked_int(l_max, "l_max", least=1)
    checked_int(v1.size, "h1 sample count", MIN_GRID_COUNT, MAX_GRID_COUNT)
    grid = DirectionGrid.uniform_circle(v1.shape[0])
    fibers = [_fiber(v, grid, name) for v, name in ((v1, "h1"), (v2, "h2"))]
    model = OrderedModel.additive(v1.shape[0], OrderVariant.STRICT_POSITIVE)
    (top, low), (top_m, low_m) = growth_brackets(model, model.element(v1), model.element(v2), l_max)
    # the larger end of each side, compared exactly (every q >= 1)
    (p, q), (p_lo, q_lo) = (x if x[0] * y[1] >= y[0] * x[1] else y for x, y in ((top, top_m), (low, low_m)))
    ratio = delta(*fibers)
    # delta rounds three times on the radii path: each radius 1/h, at least 1/(largest
    # double) > 2^-1024, within 2^-1075, 4u (u = 2^-53) relative even when subnormal, and
    # their ratio delta >= 1, a normal double, within u; so delta is within gamma_9
    # relative (Higham's Lemma 3.3: a quotient of two gamma_4 factors, one rounding)
    (n, d), (wn, wd) = ratio.as_integer_ratio(), rounding_bound(9).as_integer_ratio()
    if not (p_lo * d * (wd - wn) <= n * q_lo * wd and n * q * wd <= p * d * (wd + wn)):
        raise InvariantViolation(
            f"order bracket [{p_lo}/{q_lo}, {p}/{q}] widened by gamma_9 misses the domain ratio {ratio!r}"
        )
    d_order, d_cbm = math.log(p / q), math.log(ratio)
    return RgrCbmReport(d_order=d_order, d_cbm=d_cbm, gap=abs(d_order - d_cbm))
