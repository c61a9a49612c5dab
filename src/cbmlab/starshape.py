"""Star-shaped subsets of R^n about the origin, sampled as radial functions.

Carries the containment distance delta, scaling, and the spoke-skeleton
construction used by the quasi-isometric embedding harness.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, checked_int

MIN_GRID_COUNT = 64
DEFAULT_GRID_COUNT = 1024
# largest default grid (uniform_circle, sphere, the skeleton base); larger
# counts are rejected before any array is allocated
MAX_GRID_COUNT = 10**6
_UNIT_TOL = 1e-12
_FAN = 48  # fan angles on each side of a spoke
# most (sample angle, spoke) pairs in one skeleton's trig arrays; checked
# before they are allocated
MAX_SPOKE_SAMPLES = 2**24


def _uniform_angles(count: int) -> np.ndarray:
    """count equally spaced polar angles from 0, for 0 <= count <= MAX_GRID_COUNT."""
    count = checked_int(count, "grid count", 0, MAX_GRID_COUNT)
    return 2.0 * math.pi * np.arange(count) / count


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows == an earlier row (so -0.0 is 0.0; NaN equals nothing): the one duplicate rule."""
    order = np.lexsort(rows.T)  # stable, so equal rows end up adjacent, the earliest first
    ordered = rows.T.take(order, axis=1)  # a contiguous row per coordinate: the compares below run fast
    repeats = np.zeros(len(rows), dtype=bool)
    repeats[order[1:]] = np.all(ordered[:, 1:] == ordered[:, :-1], axis=0)
    return repeats


def _angle_rows(angles) -> tuple[np.ndarray, np.ndarray]:
    """The angles mod 2 pi, sorted, and their unit rows, less the repeated rows."""
    ang = np.sort(np.mod(np.asarray(angles, dtype=float), 2.0 * math.pi))
    rows = np.column_stack([np.cos(ang), np.sin(ang)])
    rows /= np.linalg.norm(rows, axis=1)[:, None]  # cos/sin round to norms within an ulp of 1
    keep = ~_repeats(rows)
    return ang[keep], rows[keep]


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """A grid is its (count, dimension) matrix of at least MIN_GRID_COUNT unit
    directions, the shared sample points of radial sets; every factory drops
    or rejects equal rows. The grid keeps a read-only copy of the matrix."""

    directions: np.ndarray

    def __post_init__(self):
        directions = np.array(self.directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] < 1:
            raise InvalidInputError("directions must be a (count, dimension) matrix")
        object.__setattr__(self, "directions", directions)
        directions.flags.writeable = False
        if self.count < MIN_GRID_COUNT:
            raise InvalidInputError(f"direction grids need at least {MIN_GRID_COUNT} directions")
        # written so that NaN fails both checks
        if not np.max(np.abs(np.linalg.norm(directions, axis=1) - 1.0)) <= _UNIT_TOL:
            raise InvalidInputError("directions must be unit vectors")

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @staticmethod
    def uniform_circle(count: int = DEFAULT_GRID_COUNT) -> "DirectionGrid":
        return DirectionGrid.from_angles(_uniform_angles(count))

    @staticmethod
    def from_angles(angles: Sequence[float]) -> "DirectionGrid":
        """2-d grid at the given polar angles, sorted, less the repeated rows."""
        return DirectionGrid(_angle_rows(angles)[1])

    @staticmethod
    def from_directions(directions) -> "DirectionGrid":
        """Grid on the given unit directions, in the caller's order; equal rows are rejected."""
        grid = DirectionGrid(directions)
        if np.any(_repeats(grid.directions)):
            raise InvalidInputError("duplicate directions")
        return grid

    @staticmethod
    def sphere(count: int = DEFAULT_GRID_COUNT, dimension: int = 3) -> "DirectionGrid":
        """Fibonacci spiral on the unit sphere in R^3, near-uniform; the one
        default grid past the plane, so any other dimension is rejected."""
        if checked_int(dimension, "dimension") != 3:
            raise InvalidInputError(f"the default sphere grid is 3-d, got dimension {dimension}")
        count = checked_int(count, "grid count", 0, MAX_GRID_COUNT)
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        directions = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        return DirectionGrid(directions)

    def matches(self, other: "DirectionGrid") -> bool:
        return self is other or np.array_equal(self.directions, other.directions)


@dataclass(frozen=True, eq=False)
class RadialSet:
    """Bounded star-shaped set with 0 in its interior, given by radial samples
    on a direction grid: every radius is positive and finite."""

    grid: DirectionGrid
    radii: np.ndarray

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


def ball(radius: float, grid: DirectionGrid) -> RadialSet:
    return RadialSet(grid, np.full(grid.count, float(radius)))


def centered_square(half_side: float, grid: DirectionGrid) -> RadialSet:
    """The cube [-h, h]^n as a radial set: h over each direction's sup norm."""
    return RadialSet(grid, half_side / np.max(np.abs(grid.directions), axis=1))


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
        v = np.array(self.v, dtype=float)
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


def _check_spoke_samples(angle_count: int, spoke_count: int) -> None:
    if angle_count * spoke_count > MAX_SPOKE_SAMPLES:
        raise InvalidInputError(
            f"{angle_count} sample angles x {spoke_count} spokes exceed the cap of "
            f"{MAX_SPOKE_SAMPLES} trig samples; use fewer spokes or a smaller grid"
        )


def _spoke_trig(spec: SkeletonSpec, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and |sin| of each angle's offset from each spoke direction, as
    (angles, spokes) arrays; they depend on the spoke count only, so specs of
    equal length share them. Callers check MAX_SPOKE_SAMPLES before they
    build the angles."""
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
    base_count = checked_int(base_count, "grid count", 0, MAX_GRID_COUNT)
    _warn_if_wide(spec)
    m = spec.v.size  # the angle count before deduplication, before any angle is built
    _check_spoke_samples(base_count + (1 + 2 * _FAN) * m, m)
    angles, rows = _angle_rows(skeleton_angles(spec, base_count))
    return RadialSet(DirectionGrid(rows), _radii_from_trig(spec, *_spoke_trig(spec, angles)))


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
    uniform base, the spoke directions and each spec's width fans. ln delta
    is the maximum over those samples, so it can fall short of the value of
    the continuous regions. A max over those angles depends neither on their
    order nor on repeats, so no grid is sorted or built.
    """
    base_count = checked_int(base_count, "grid count", 0, MAX_GRID_COUNT)
    if not 0.0 < c1 < math.inf:
        raise InvalidInputError("width-correction constant c1 must be finite and positive")
    if not math.isfinite(tol):
        raise InvalidInputError("tolerance tol must be finite")
    spec_v = SkeletonSpec(v, c0, target_volume)
    spec_w = SkeletonSpec(w, c0, target_volume)
    if spec_v.v.size != spec_w.v.size:
        raise InvalidInputError("spoke counts differ")
    m = spec_v.v.size  # the exact count of the angles below, before any is built
    _check_spoke_samples(base_count + (1 + 4 * _FAN) * m, m)
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
