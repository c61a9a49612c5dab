"""Star-shaped subsets of R^n about the origin, sampled as radial functions.

Carries the containment distance delta, scaling/covering rescales, polar
volume quadrature, and the spoke-skeleton construction used by the
quasi-isometric embedding harness.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

MIN_GRID_COUNT = 64
DEFAULT_GRID_COUNT = 1024
# largest uniform base grid (uniform_circle, the skeleton base); larger
# counts are rejected before any array is allocated
MAX_GRID_COUNT = 10**6
_UNIT_TOL = 1e-12


def sphere_area(dimension: int) -> float:
    """Surface area of the unit sphere in R^dimension, while it is a normal double.

    Past dimension 343, where gamma(dimension/2) overflows, the area comes
    from lgamma; it underflows from dimension 439 on, which is rejected.
    """
    half = dimension / 2.0
    try:
        return 2.0 * math.pi**half / math.gamma(half)
    except OverflowError:
        area = 2.0 * math.exp(half * math.log(math.pi) - math.lgamma(half))
    if area < sys.float_info.min:
        raise InvalidInputError(f"sphere area in dimension {dimension} underflows a double")
    return area


def _uniform_angles(count: int) -> np.ndarray:
    """count equally spaced polar angles from 0, for 0 <= count <= MAX_GRID_COUNT."""
    if not 0 <= count <= MAX_GRID_COUNT:
        raise InvalidInputError(f"grid count must lie in [0, {MAX_GRID_COUNT}], got {count}")
    return 2.0 * math.pi * np.arange(count) / count


def _halton(index: np.ndarray, base: int) -> np.ndarray:
    result = np.zeros(index.shape, dtype=float)
    f = 1.0
    i = index.astype(np.int64) + 1
    while np.any(i > 0):
        f /= base
        result += f * (i % base)
        i //= base
    return result


def _half_gap_weights(sorted_angles: np.ndarray) -> np.ndarray:
    """Half of each neighbouring gap of sorted polar angles, around the circle."""
    gaps = np.diff(sorted_angles, append=sorted_angles[:1] + 2.0 * math.pi)
    return 0.5 * (gaps + np.roll(gaps, 1))


def _equal_weights(dimension: int, count: int) -> np.ndarray:
    """Equal weights summing to the sphere area, for near-uniform samples."""
    if count < MIN_GRID_COUNT:
        raise InvalidInputError(f"direction grids need at least {MIN_GRID_COUNT} directions")
    return np.full(count, sphere_area(dimension) / count)


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Unit directions with quadrature weights summing to the sphere area."""

    dimension: int
    directions: np.ndarray
    weights: np.ndarray
    angles: np.ndarray | None = None  # polar angles, 2-d grids only

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInputError("dimension must be >= 1")
        if self.count < MIN_GRID_COUNT:
            raise InvalidInputError(f"direction grids need at least {MIN_GRID_COUNT} directions")
        norms = np.linalg.norm(self.directions, axis=1)
        # written so that NaN fails both checks
        if not np.max(np.abs(norms - 1.0)) <= _UNIT_TOL:
            raise InvalidInputError("directions must be unit vectors")
        if self.weights.shape != (self.count,) or not np.all(self.weights > 0):
            raise InvalidInputError("weights must be positive, one per direction")
        for arr in (self.directions, self.weights) + (() if self.angles is None else (self.angles,)):
            arr.flags.writeable = False

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @staticmethod
    def uniform_circle(count: int = DEFAULT_GRID_COUNT) -> "DirectionGrid":
        return DirectionGrid.from_angles(_uniform_angles(count))

    @staticmethod
    def from_angles(angles: Sequence[float]) -> "DirectionGrid":
        """2-d grid at the given polar angles, sorted and deduplicated; weights
        are the half-gap arcs."""
        ang = np.unique(np.mod(np.asarray(angles, dtype=float), 2.0 * math.pi))
        directions = np.column_stack([np.cos(ang), np.sin(ang)])
        # cos/sin round to norms within an ulp of 1; renormalize exactly
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        return DirectionGrid(2, directions, _half_gap_weights(ang), ang)

    @staticmethod
    def from_directions(directions) -> "DirectionGrid":
        """Grid on the given unit directions, kept in the caller's order.

        Planar grids weight each direction by its half-gap arc among the
        sorted angles and reject duplicate angles; other dimensions weight
        every direction equally.
        """
        directions = np.array(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] < 1:
            raise InvalidInputError("directions must be a (count, dimension) matrix")
        count, dimension = directions.shape
        if dimension != 2:
            return DirectionGrid(dimension, directions, _equal_weights(dimension, count))
        angles = np.mod(np.arctan2(directions[:, 1], directions[:, 0]), 2.0 * math.pi)
        order = np.argsort(angles, kind="stable")
        sorted_angles = angles[order]
        if np.any(np.diff(sorted_angles) == 0.0):
            raise InvalidInputError("duplicate directions")
        weights = np.empty(count)
        weights[order] = _half_gap_weights(sorted_angles)
        return DirectionGrid(2, directions, weights, angles)

    @staticmethod
    def sphere(count: int = DEFAULT_GRID_COUNT, dimension: int = 3) -> "DirectionGrid":
        """Low-discrepancy sample of the unit sphere for dimension >= 3."""
        if dimension < 3:
            raise InvalidInputError("use uniform_circle / from_angles for dimension 2")
        if dimension == 3:
            # Fibonacci spiral: near-uniform, equal weights
            i = np.arange(count)
            z = 1.0 - (2.0 * i + 1.0) / count
            phi = math.pi * (1.0 + math.sqrt(5.0)) * i
            rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            directions = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        else:
            from scipy.special import ndtri  # inverse normal CDF

            primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
            if dimension > len(primes):
                raise InvalidInputError(f"sphere sampling supports dimension <= {len(primes)}")
            i = np.arange(count)
            u = np.column_stack([_halton(i, primes[d]) for d in range(dimension)])
            gauss = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
            directions = gauss / np.linalg.norm(gauss, axis=1)[:, None]
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        return DirectionGrid(dimension, directions, _equal_weights(dimension, count))

    def matches(self, other: "DirectionGrid") -> bool:
        return self is other or (
            self.dimension == other.dimension
            and self.count == other.count
            and np.array_equal(self.directions, other.directions)
        )


@dataclass(frozen=True, eq=False)
class RadialSet:
    """Star-shaped set about 0 given by radial samples on a direction grid.

    The private scale fields remember the original radii of a covering
    rescale chain so that rescaling by k then m is bit-identical to
    rescaling by k*m.
    """

    grid: DirectionGrid
    radii: np.ndarray
    allow_unbounded: bool = False
    _scale_base: np.ndarray | None = field(default=None, repr=False)
    _scale_k: int = field(default=1, repr=False)
    _scale_lam: float = field(default=0.0, repr=False)

    def __post_init__(self):
        radii = np.array(self.radii, dtype=float)
        if radii.shape != (self.grid.count,):
            raise InvalidInputError("radii must have one sample per grid direction")
        if np.any(radii <= 0) or np.any(np.isnan(radii)):
            raise InvalidInputError("radii must be strictly positive (0 is an interior point)")
        if not self.allow_unbounded and not np.all(np.isfinite(radii)):
            raise InvalidInputError("radii must be finite (the set is bounded)")
        object.__setattr__(self, "radii", radii)
        radii.flags.writeable = False

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.radii)))


def _require_same_grid(a: RadialSet, b: RadialSet) -> None:
    if not a.grid.matches(b.grid):
        raise InvalidInputError("radial sets live on different direction grids")


def _require_bounded(*sets: RadialSet) -> None:
    for s in sets:
        if not s.bounded:
            raise InvalidInputError("operation requires a bounded radial set")


def delta(a: RadialSet, b: RadialSet) -> float:
    """Least C >= 1 with (1/C)a inside b inside C*a, exact on the grid."""
    _require_same_grid(a, b)
    _require_bounded(a, b)
    d = max(float(np.max(a.radii / b.radii)), float(np.max(b.radii / a.radii)))
    return max(d, 1.0)


def log_delta(a: RadialSet, b: RadialSet) -> float:
    return math.log(delta(a, b))


def scale(a: RadialSet, c: float) -> RadialSet:
    if not (c > 0) or not math.isfinite(c):
        raise InvalidInputError("scale factor must be a finite positive real")
    return RadialSet(a.grid, a.radii * c, allow_unbounded=not a.bounded)


def _pow_factor(k: int, lam: float) -> float:
    # reciprocal for weight 1 keeps covering rescales bit-compatible with scale(1/k)
    return 1.0 / k if lam == 1.0 else float(k) ** (-lam)


def scale_pow(a: RadialSet, k: int, lam: float) -> RadialSet:
    """Covering rescale of the radial data: radii multiplied by k^(-lam).

    Chained calls with the same weight recompute from the original radii so
    composition over k then m equals a single rescale by k*m exactly.
    """
    if k < 1:
        raise InvalidInputError("covering index k must be a positive integer")
    if not (0.0 < lam <= 1.0):
        raise InvalidInputError("liouville weight must lie in (0, 1]")
    if a._scale_base is not None and a._scale_lam == lam:
        base, k_total = a._scale_base, a._scale_k * k
    else:
        base, k_total = a.radii, k
    return RadialSet(
        a.grid,
        base * _pow_factor(k_total, lam),
        allow_unbounded=not a.bounded,
        _scale_base=base,
        _scale_k=k_total,
        _scale_lam=lam,
    )


def volume(a: RadialSet) -> float:
    """Polar quadrature (1/n) * sum r_i^n w_i over the direction grid."""
    _require_bounded(a)
    n = a.grid.dimension
    return float(np.sum(a.radii**n * a.grid.weights) / n)


def ball(radius: float, grid: DirectionGrid) -> RadialSet:
    return RadialSet(grid, np.full(grid.count, float(radius)))


def ball_of_capacity(capacity: float, grid: DirectionGrid) -> RadialSet:
    """Round set of prescribed 2-d capacity pi*r^2 (grid must be planar)."""
    if grid.dimension != 2:
        raise InvalidInputError("capacity parameterization is planar")
    return ball(math.sqrt(capacity / math.pi), grid)


def centered_square(half_side: float, grid: DirectionGrid) -> RadialSet:
    """The square [-h, h]^2 as a radial set (planar grids only)."""
    if grid.dimension != 2:
        raise InvalidInputError("centered_square needs a planar grid")
    ang = grid.angles if grid.angles is not None else np.arctan2(grid.directions[:, 1], grid.directions[:, 0])
    denom = np.maximum(np.abs(np.cos(ang)), np.abs(np.sin(ang)))
    return RadialSet(grid, half_side / denom)


def lshape(x: Sequence) -> list:
    """Componentwise hockey-stick embedding of R^k into [0, inf)^(2k).

    Each coordinate maps to a pair: (1 + x, 1) for x >= 0 and (1, 1 - x)
    for x < 0. Scalar types are preserved, so exact Fraction inputs stay
    exact.
    """
    out = []
    for xi in x:
        if xi < 0:
            out.extend((1, 1 - xi))
        else:
            out.extend((1 + xi, 1))
    return out


def lshape_array(x) -> np.ndarray:
    return np.asarray(lshape(np.asarray(x, dtype=float)), dtype=float)


@dataclass(frozen=True, eq=False)
class SkeletonSpec:
    """Spoke skeleton: 2k rays at angles i*pi/(2k), lengths c0*e^{v_i}.

    The thickening width epsilon is solved from the leading-order volume
    normalization target_volume = epsilon * c0 * sum(e^{v_i}); the dropped
    higher-order term is absorbed by the harness's width-correction
    constant.
    """

    v: np.ndarray
    c0: float
    target_volume: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 1 or v.size < 2 or v.size % 2 != 0:
            raise InvalidInputError("v must have even length 2k >= 2")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("spoke exponents must be finite")
        if not (self.c0 > 1.0):
            raise InvalidInputError("spoke length scale c0 must exceed 1")
        if not (self.target_volume > 0.0):
            raise InvalidInputError("degenerate spec: target volume must be positive")
        object.__setattr__(self, "v", v)
        v.flags.writeable = False

    @property
    def k(self) -> int:
        return self.v.size // 2

    @property
    def spoke_angles(self) -> np.ndarray:
        m = self.v.size
        return np.arange(m) * math.pi / m

    @property
    def spoke_lengths(self) -> np.ndarray:
        return self.c0 * np.exp(self.v)

    @property
    def epsilon(self) -> float:
        return self.target_volume / (self.c0 * float(np.sum(np.exp(self.v))))


def skeleton_radii(spec: SkeletonSpec, angles: np.ndarray) -> np.ndarray:
    """Radial function of the thickened skeleton at the given polar angles.

    The set is the union of 2k rectangles (length L_i along spoke i,
    half-width epsilon/2) with a central disk of radius epsilon/2.
    """
    return _radii_from_trig(spec, *_spoke_trig(spec, angles))


def _spoke_trig(spec: SkeletonSpec, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and |sin| of each angle's offset from each spoke direction; they
    depend on the spoke count only, so specs of equal length share them."""
    d = angles[:, None] - spec.spoke_angles[None, :]
    return np.cos(d), np.abs(np.sin(d))


def _radii_from_trig(spec: SkeletonSpec, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    h = spec.epsilon / 2.0
    lengths = spec.spoke_lengths
    with np.errstate(divide="ignore", invalid="ignore"):
        along = lengths[None, :] / c
        across = h / s
    extent = np.where(c > 0, np.minimum(along, np.where(s > 0, across, np.inf)), 0.0)
    return np.maximum(h, extent.max(axis=1))


def skeleton_angles(spec: SkeletonSpec, base_count: int = DEFAULT_GRID_COUNT, fan: int = 48) -> np.ndarray:
    """Sampling angles adapted to the skeleton: a uniform base grid plus the
    exact spoke directions and log-spaced fans resolving each spoke's width."""
    m = spec.v.size
    half_gap = math.pi / m / 2.0
    pieces = [_uniform_angles(base_count), spec.spoke_angles]
    h = spec.epsilon / 2.0
    for phi, length in zip(spec.spoke_angles, spec.spoke_lengths):
        corner = math.atan2(h, length)
        offsets = np.geomspace(corner / 8.0, half_gap, fan)
        pieces.append(phi + offsets)
        pieces.append(phi - offsets)
    return np.concatenate(pieces)


def _warn_if_wide(spec: SkeletonSpec) -> None:
    spacing = 2.0 * spec.c0 * math.sin(math.pi / spec.v.size / 2.0)
    if spec.epsilon >= spacing:
        warnings.warn(
            f"skeleton width {spec.epsilon:.3g} is not small against the spoke "
            f"spacing {spacing:.3g}; the leading-order volume normalization degrades",
            stacklevel=3,
        )


def skeleton_region(
    spec: SkeletonSpec,
    grid: DirectionGrid | None = None,
    base_count: int = DEFAULT_GRID_COUNT,
) -> RadialSet:
    """Thickened-skeleton radial set on an adaptive (or caller-shared) grid."""
    _warn_if_wide(spec)
    if grid is None:
        grid = DirectionGrid.from_angles(skeleton_angles(spec, base_count))
    if grid.dimension != 2 or grid.angles is None:
        raise InvalidInputError("skeleton regions are planar; use an angle-based grid")
    return RadialSet(grid, skeleton_radii(spec, grid.angles))


@dataclass(frozen=True)
class QiReport:
    """One quasi-isometry check: ln delta against the sup-norm gap."""

    log_delta: float
    lower: float
    upper: float
    passed: bool
    linf: float
    measured_c1: float

    def to_json_dict(self) -> dict:
        return {
            "log_delta": self.log_delta,
            "lower": self.lower,
            "upper": self.upper,
            "pass": self.passed,
            "linf": self.linf,
            "measured_c1": self.measured_c1,
        }


def qi_verify(
    v,
    w,
    c0: float = 10.0,
    target_volume: float = 1.0,
    tol: float = 1e-2,
    c1: float = 1.5,
    base_count: int = DEFAULT_GRID_COUNT,
) -> QiReport:
    """Compare ln delta of two skeleton regions with the sup-norm of v - w.

    Both regions are sampled on one shared grid containing each spec's spoke
    directions and width fans, so the extremal radial ratios are hit exactly.
    """
    spec_v = SkeletonSpec(v, c0, target_volume)
    spec_w = SkeletonSpec(w, c0, target_volume)
    if spec_v.v.size != spec_w.v.size:
        raise InvalidInputError("spoke counts differ")
    angles = np.concatenate(
        [skeleton_angles(spec_v, base_count), skeleton_angles(spec_w, base_count)]
    )
    grid = DirectionGrid.from_angles(angles)
    trig = _spoke_trig(spec_v, grid.angles)
    _warn_if_wide(spec_v)
    _warn_if_wide(spec_w)
    region_v = RadialSet(grid, _radii_from_trig(spec_v, *trig))
    region_w = RadialSet(grid, _radii_from_trig(spec_w, *trig))
    ld = log_delta(region_v, region_w)
    linf = float(np.max(np.abs(spec_v.v - spec_w.v)))
    lower = linf - tol
    upper = linf + math.log(c1)
    return QiReport(
        log_delta=ld,
        lower=lower,
        upper=upper,
        passed=lower <= ld <= upper,
        linf=linf,
        measured_c1=max(1.0, math.exp(ld - linf)),
    )
