"""Star-shaped subsets of R^n about the origin, sampled as radial functions.

Carries the containment distance delta, scaling/covering rescales, and the
spoke-skeleton construction used by the quasi-isometric embedding harness.
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
# the Halton bases of the sphere sample, one per coordinate, cap its dimension
_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_SPHERE_DIMENSION = len(_HALTON_BASES)
_UNIT_TOL = 1e-12
_FAN = 48  # fan angles on each side of a spoke


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

            if dimension > MAX_SPHERE_DIMENSION:
                raise InvalidInputError(
                    f"sphere sampling supports dimension <= {MAX_SPHERE_DIMENSION}"
                )
            i = np.arange(count)
            u = np.column_stack([_halton(i, _HALTON_BASES[d]) for d in range(dimension)])
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
    """Bounded star-shaped set with 0 in its interior, given by radial samples
    on a direction grid: every radius is positive and finite.

    The private scale fields remember the original radii of a covering
    rescale chain so that rescaling by k then m is bit-identical to
    rescaling by k*m.
    """

    grid: DirectionGrid
    radii: np.ndarray
    _scale_base: np.ndarray | None = field(default=None, repr=False)
    _scale_k: int = field(default=1, repr=False)
    _scale_lam: float = field(default=0.0, repr=False)

    def __post_init__(self):
        radii = np.array(self.radii, dtype=float)
        if radii.shape != (self.grid.count,):
            raise InvalidInputError("radii must have one sample per grid direction")
        _check_radii(radii)
        object.__setattr__(self, "radii", radii)
        radii.flags.writeable = False


def _check_radii(radii: np.ndarray) -> None:
    # written so that NaN fails the first check
    if not np.all(radii > 0):
        raise InvalidInputError("radii must be strictly positive (0 is an interior point)")
    if not np.all(radii < math.inf):
        raise InvalidInputError("radii must be finite (the set is bounded)")


def _require_same_grid(a: RadialSet, b: RadialSet) -> None:
    if not a.grid.matches(b.grid):
        raise InvalidInputError("radial sets live on different direction grids")


def delta(a: RadialSet, b: RadialSet) -> float:
    """Least C >= 1 with (1/C)a inside b inside C*a, exact on the grid."""
    _require_same_grid(a, b)
    return _radial_delta(a.radii, b.radii)


def _radial_delta(ra: np.ndarray, rb: np.ndarray) -> float:
    """delta of two positive, finite radial samples taken at the same directions;
    a ratio past the float range gives inf, which no report accepts."""
    with np.errstate(over="ignore"):
        return max(float(np.max(ra / rb)), float(np.max(rb / ra)), 1.0)


def log_delta(a: RadialSet, b: RadialSet) -> float:
    return math.log(delta(a, b))


def scale(a: RadialSet, c: float) -> RadialSet:
    if not (c > 0) or not math.isfinite(c):
        raise InvalidInputError("scale factor must be a finite positive real")
    return RadialSet(a.grid, a.radii * c)


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
        _scale_base=base,
        _scale_k=k_total,
        _scale_lam=lam,
    )


def ball(radius: float, grid: DirectionGrid) -> RadialSet:
    return RadialSet(grid, np.full(grid.count, float(radius)))


def centered_square(half_side: float, grid: DirectionGrid) -> RadialSet:
    """The square [-h, h]^2 as a radial set (planar grids only)."""
    if grid.dimension != 2:
        raise InvalidInputError("centered_square needs a planar grid")
    ang = grid.angles if grid.angles is not None else np.arctan2(grid.directions[:, 1], grid.directions[:, 0])
    denom = np.maximum(np.abs(np.cos(ang)), np.abs(np.sin(ang)))
    return RadialSet(grid, half_side / denom)


def lshape_array(x) -> np.ndarray:
    """Componentwise hockey-stick embedding of R^k into [0, inf)^(2k).

    Each coordinate maps to a pair: (1 + x, 1) for x >= 0 and (1, 1 - x)
    for x < 0, so a NaN coordinate maps to (NaN, 1).
    """
    x = np.asarray(x, dtype=float)
    neg = x < 0
    return np.column_stack([np.where(neg, 1.0, 1.0 + x), np.where(neg, 1.0 - x, 1.0)]).ravel()


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
        if not 1.0 < self.c0 < math.inf:
            raise InvalidInputError("spoke length scale c0 must be finite and exceed 1")
        if not 0.0 < self.target_volume < math.inf:
            raise InvalidInputError("degenerate spec: target volume must be finite and positive")
        object.__setattr__(self, "v", v)
        v.flags.writeable = False
        with np.errstate(over="ignore"):
            lengths = self.spoke_lengths
            if not np.all(np.isfinite(lengths)):
                raise InvalidInputError("spoke lengths c0*e^v must be finite")
            # spokes all of length 0 leave no width to solve for: infinite, rejected below
            epsilon = self.epsilon if np.any(lengths > 0.0) else math.inf
        # the width fans start at the corner angle atan2(epsilon/2, L), least at the longest spoke
        corner = math.atan2(epsilon / 2.0, float(np.max(lengths)))
        if not (sys.float_info.min <= epsilon < math.inf and corner >= sys.float_info.min):
            raise InvalidInputError(
                f"degenerate spec: width {epsilon:.3g} and its corner angle {corner:.3g} "
                "must be positive normal doubles"
            )

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


def _spoke_trig(spec: SkeletonSpec, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and |sin| of each angle's offset from each spoke direction, as
    (angles, spokes) arrays; they depend on the spoke count only, so specs of
    equal length share them."""
    d = angles[:, None] - spec.spoke_angles[None, :]
    return np.cos(d), np.abs(np.sin(d))


def _radii_from_trig(spec: SkeletonSpec, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    h = spec.epsilon / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # h > 0 and s = |sin| >= +0, so h/s is already +inf where s == 0
        extent = h / s
        np.minimum(extent, spec.spoke_lengths / c, out=extent)
    extent[c <= 0.0] = 0.0
    # the max over the short spoke axis runs several times faster on a contiguous transpose
    return np.maximum(h, np.ascontiguousarray(extent.T).max(axis=0))


def _width_fans(spec: SkeletonSpec) -> np.ndarray:
    """Per spoke, the angles phi + offsets, then phi - offsets, where the _FAN
    offsets are log-spaced from the spoke's corner angle / 8 to half the gap
    between spokes.

    The offsets are the bits np.geomspace gives for each spoke alone. One
    np.geomspace over all spokes rounds every row differently once one row
    has a zero step (a corner angle of pi/2 at 8 spokes), and np.arctan2 is
    an ulp off math.atan2 on some corners.
    """
    half_gap = math.pi / spec.v.size / 2.0
    h = spec.epsilon / 2.0
    starts = np.array([math.atan2(h, length) for length in spec.spoke_lengths.tolist()]) / 8.0
    log_start = np.log10(starts)
    log_stop = np.log10(half_gap)
    logs = np.arange(_FAN, dtype=float) * ((log_stop - log_start) / (_FAN - 1))[:, None]
    logs += log_start[:, None]
    logs[:, -1] = log_stop
    offsets = np.power(10.0, logs)
    offsets[:, 0] = starts
    offsets[:, -1] = half_gap
    phi = spec.spoke_angles[:, None]
    return np.stack([phi + offsets, phi - offsets], axis=1).ravel()


def skeleton_angles(spec: SkeletonSpec, base_count: int = DEFAULT_GRID_COUNT) -> np.ndarray:
    """Sampling angles adapted to the skeleton: a uniform base grid plus the
    exact spoke directions and log-spaced fans resolving each spoke's width."""
    return np.concatenate([_uniform_angles(base_count), spec.spoke_angles, _width_fans(spec)])


def _warn_if_wide(spec: SkeletonSpec) -> None:
    spacing = 2.0 * spec.c0 * math.sin(math.pi / spec.v.size / 2.0)
    if spec.epsilon >= spacing:
        warnings.warn(
            f"skeleton width {spec.epsilon:.3g} is not small against the spoke "
            f"spacing {spacing:.3g}; the leading-order volume normalization degrades",
            stacklevel=3,
        )


def skeleton_region(spec: SkeletonSpec, base_count: int = DEFAULT_GRID_COUNT) -> RadialSet:
    """The thickened skeleton, sampled on the grid of its adaptive angles
    (``skeleton_angles`` with ``base_count`` uniform base directions).

    The set is the union of 2k rectangles (length L_i along spoke i,
    half-width epsilon/2) with a central disk of radius epsilon/2.
    """
    _warn_if_wide(spec)
    grid = DirectionGrid.from_angles(skeleton_angles(spec, base_count))
    return RadialSet(grid, _radii_from_trig(spec, *_spoke_trig(spec, grid.angles)))


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

    Both regions are sampled at one array of angles, reduced mod 2 pi: the
    uniform base, the spoke directions and each spec's width fans, so the
    extremal radial ratios are hit exactly. A max over those angles depends
    neither on their order nor on repeats, so no grid is sorted or built.
    """
    if not 0.0 < c1 < math.inf:
        raise InvalidInputError("width-correction constant c1 must be finite and positive")
    if not math.isfinite(tol):
        raise InvalidInputError("tolerance tol must be finite")
    spec_v = SkeletonSpec(v, c0, target_volume)
    spec_w = SkeletonSpec(w, c0, target_volume)
    if spec_v.v.size != spec_w.v.size:
        raise InvalidInputError("spoke counts differ")
    angles = np.mod(
        np.concatenate([skeleton_angles(spec_v, base_count), _width_fans(spec_w)]), 2.0 * math.pi
    )
    trig = _spoke_trig(spec_v, angles)
    _warn_if_wide(spec_v)
    _warn_if_wide(spec_w)
    radii_v = _radii_from_trig(spec_v, *trig)
    radii_w = _radii_from_trig(spec_w, *trig)
    _check_radii(radii_v)
    _check_radii(radii_w)
    ld = math.log(_radial_delta(radii_v, radii_w))
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
