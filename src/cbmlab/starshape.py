"""Star-shaped subsets of R^n about the origin, sampled as radial functions.

Carries the containment distance delta, scaling, and the spoke-skeleton
construction used by the quasi-isometric embedding harness.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, checked_array, checked_int, checked_number, rounding_bound

MIN_GRID_COUNT = 64
DEFAULT_GRID_COUNT = 1024
# largest default grid (uniform_circle, sphere, the skeleton base); larger
# counts are rejected before any array is allocated
MAX_GRID_COUNT = 10**6
_FAN = 48  # fan angles on each side of a spoke
# most (sample angle, spoke) pairs one skeleton evaluates, checked before any
# angle is built; it bounds work, as the radii take memory linear in the angles
MAX_SPOKE_SAMPLES = 2**24
DEFAULT_C0 = 10.0
DEFAULT_TARGET_VOLUME = 1.0
DEFAULT_TOL = 1e-2
DEFAULT_C1 = 1.5


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
    ang = np.sort(np.mod(checked_array(angles, "angles", ndim=1, finite=True), 2.0 * math.pi))
    rows = np.column_stack([np.cos(ang), np.sin(ang)])
    rows /= np.linalg.norm(rows, axis=1)[:, None]  # cos/sin round to norms within an ulp of 1
    keep = ~_repeats(rows)
    return ang[keep], rows[keep]


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """A grid is its (count, dimension) matrix of at least MIN_GRID_COUNT unit
    directions, no two rows equal, the shared sample points of radial sets;
    the angle factories drop equal rows. The grid keeps a read-only copy.

    A row is a unit vector when its computed norm is within gamma_(d+4) of 1
    (errors.rounding_bound), d the dimension: the most a row normalised as
    x/|x| in doubles, then normed again, can be off (Higham, 2.1-2.2, 3.1). A
    sum of d squares, in any order, is within a factor (1 +- u)^d, u = 2^-53,
    as each square rounds once and meets at most d - 1 additions, so a
    computed norm is within (1 +- u)^(d/2 + 1). Dividing x by its norm rounds
    each entry once, a factor 1 +- u on the row's norm, and the check norms
    the row again: d + 3 factors, d + 4 with each half power rounded up. So
    every factory's rows pass, and a row nudged by more fails.
    """

    directions: np.ndarray

    def __post_init__(self):
        directions = checked_array(self.directions, "directions", ndim=2, finite=True)
        object.__setattr__(self, "directions", directions)
        if self.count < MIN_GRID_COUNT:
            raise InvalidInputError(f"direction grids need at least {MIN_GRID_COUNT} directions")
        # a row of 0 columns has norm 0, so the matrix has at least one column
        if np.max(np.abs(np.linalg.norm(directions, axis=1) - 1.0)) > rounding_bound(self.dimension + 4):
            raise InvalidInputError("directions must be unit vectors")
        if np.any(_repeats(directions)):
            raise InvalidInputError("duplicate directions")

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
        object.__setattr__(self, "radii", _radii(self.radii))
        if self.radii.size != self.grid.count:
            raise InvalidInputError("radii must have one sample per grid direction")


def _radii(values) -> np.ndarray:
    """values as the radii of a bounded set with 0 in its interior."""
    return checked_array(values, "radii", ndim=1, finite=True, positive=True)


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
    return RadialSet(a.grid, a.radii * checked_number(c, "scale factor", above=0))


def ball(radius: float, grid: DirectionGrid) -> RadialSet:
    return RadialSet(grid, np.full(grid.count, checked_number(radius, "radius")))


def centered_square(half_side: float, grid: DirectionGrid) -> RadialSet:
    """The cube [-h, h]^n as a radial set: h over each direction's sup norm."""
    half_side = checked_number(half_side, "half side")
    return RadialSet(grid, half_side / np.max(np.abs(grid.directions), axis=1))


def lshape_array(x) -> np.ndarray:
    """Componentwise hockey-stick embedding of R^k into [0, inf)^(2k).

    Each coordinate maps to a pair: (1 + x, 1) for x >= 0 and (1, 1 - x)
    for x < 0, so a NaN coordinate maps to (NaN, 1).
    """
    x = checked_array(x, "x", ndim=1)
    neg = x < 0
    return np.column_stack([np.where(neg, 1.0, 1.0 + x), np.where(neg, 1.0 - x, 1.0)]).ravel()


@dataclass(frozen=True, eq=False)
class SkeletonSpec:
    """Spoke skeleton: 2k rays at angles i*pi/(2k), lengths c0*e^{v_i}.

    The thickening width epsilon is solved from the leading-order volume
    normalization target_volume = epsilon * c0 * sum(e^{v_i}); the dropped
    higher-order term is absorbed by the harness's width-correction
    constant. The spoke angles and lengths, epsilon and each spoke's corner
    angle atan2(epsilon/2, L_i), where its width fan starts, are derived once.
    """

    v: np.ndarray
    c0: float
    target_volume: float = DEFAULT_TARGET_VOLUME
    spoke_angles: np.ndarray = field(init=False)
    spoke_lengths: np.ndarray = field(init=False)
    epsilon: float = field(init=False)
    corner_angles: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "v", checked_array(self.v, "v", ndim=1, finite=True))
        m = self.v.size
        if m < 2 or m % 2 != 0:
            raise InvalidInputError("v must have even length 2k >= 2")
        object.__setattr__(self, "c0", checked_number(self.c0, "c0", above=1))
        object.__setattr__(self, "target_volume", checked_number(self.target_volume, "target volume", above=0))
        with np.errstate(over="ignore"):
            exp_v = np.exp(self.v)
            lengths = self.c0 * exp_v
            if not np.all(np.isfinite(lengths)):
                raise InvalidInputError("spoke lengths c0*e^v must be finite")
            # spokes all of length 0 leave no width to solve for: infinite, rejected below
            epsilon = self.target_volume / (self.c0 * float(np.sum(exp_v))) if np.any(lengths > 0.0) else math.inf
        # math.atan2, not np.arctan2, which is an ulp off libm on some corners
        corners = np.array([math.atan2(epsilon / 2.0, length) for length in lengths.tolist()])
        if not (sys.float_info.min <= epsilon < math.inf and corners.min() >= sys.float_info.min):
            raise InvalidInputError(
                f"degenerate spec: width {epsilon:.3g} and its corner angle {corners.min():.3g} "
                "must be positive normal doubles"
            )
        angles = np.arange(m) * math.pi / m
        for name, value in (("spoke_angles", angles), ("spoke_lengths", lengths), ("corner_angles", corners)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "epsilon", epsilon)


def _skeleton_radii(specs: Sequence[SkeletonSpec], angles: np.ndarray) -> list[np.ndarray]:
    """Each spec's radii at the angles, for specs of one spoke count: the most
    of h = epsilon/2, the central disk, and min(h/|sin d|, L_i/cos d) (h/+0 is
    +inf) over the spokes i whose offset d from the angle has cos d > 0.
    Spoke by spoke, so memory is linear in the angle count; each spoke's cos d
    and |sin d| serve every spec. The angles come from _skeleton_angles, which
    keeps their count times the spoke count within MAX_SPOKE_SAMPLES."""
    halves = [spec.epsilon / 2.0 for spec in specs]
    lengths = [spec.spoke_lengths.tolist() for spec in specs]
    radii = [np.full(angles.shape, h) for h in halves]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, phi in enumerate(specs[0].spoke_angles.tolist()):
            d = angles - phi
            c, s = np.cos(d), np.abs(np.sin(d))
            ahead = c > 0.0  # a spoke behind the angle reaches only 0 < h: it leaves the radius alone
            for h, length, out in zip(halves, lengths, radii):
                np.maximum(out, np.minimum(h / s, length[i] / c), out=out, where=ahead)
    return radii


def _width_fans(spec: SkeletonSpec) -> np.ndarray:
    """Per spoke, the angles phi + offsets, then phi - offsets, where the _FAN
    offsets are log-spaced from the spoke's corner angle / 8 to half the gap
    between spokes.

    The offsets are the bits np.geomspace gives for each spoke alone. One
    np.geomspace over all spokes rounds every row differently once one row
    has a zero step (a corner angle of pi/2 at 8 spokes).
    """
    half_gap = math.pi / spec.v.size / 2.0
    starts = spec.corner_angles / 8.0
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


def _skeleton_angles(specs: Sequence[SkeletonSpec], base_count: int) -> np.ndarray:
    """Sampling angles adapted to skeletons of one spoke count: a uniform base
    grid of base_count angles, the exact spoke directions, then each spec's
    log-spaced fans resolving its width. The angle count times the spoke
    count is checked against MAX_SPOKE_SAMPLES before any angle is built, and
    each spec whose width is not small against its spoke spacing warns,
    naming the caller of skeleton_region or qi_verify."""
    base_count = checked_int(base_count, "grid count", 0, MAX_GRID_COUNT)
    m = specs[0].v.size
    count = base_count + m + 2 * _FAN * m * len(specs)
    if count * m > MAX_SPOKE_SAMPLES:
        raise InvalidInputError(
            f"{count} sample angles x {m} spokes exceed the cap of "
            f"{MAX_SPOKE_SAMPLES} trig samples; use fewer spokes or a smaller grid"
        )
    for spec in specs:
        spacing = 2.0 * spec.c0 * math.sin(math.pi / m / 2.0)
        if spec.epsilon >= spacing:
            warnings.warn(
                f"skeleton width {spec.epsilon:.3g} is not small against the spoke "
                f"spacing {spacing:.3g}; the leading-order volume normalization degrades",
                stacklevel=3,
            )
    return np.concatenate([_uniform_angles(base_count), specs[0].spoke_angles, *map(_width_fans, specs)])


def skeleton_region(spec: SkeletonSpec, base_count: int = DEFAULT_GRID_COUNT) -> RadialSet:
    """The thickened skeleton, sampled on the grid of its adaptive angles:
    ``base_count`` uniform base directions, the spoke directions and the
    log-spaced fans resolving each spoke's width.

    The set is the union of 2k rectangles (length L_i along spoke i,
    half-width epsilon/2) with a central disk of radius epsilon/2.
    """
    angles, rows = _angle_rows(_skeleton_angles([spec], base_count))
    return RadialSet(DirectionGrid(rows), _skeleton_radii([spec], angles)[0])


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
    c0: float = DEFAULT_C0,
    target_volume: float = DEFAULT_TARGET_VOLUME,
    tol: float = DEFAULT_TOL,
    c1: float = DEFAULT_C1,
    base_count: int = DEFAULT_GRID_COUNT,
) -> QiReport:
    """Compare ln delta of two skeleton regions with the sup-norm of v - w.

    Both regions are sampled at one array of angles, reduced mod 2 pi: the
    uniform base, the spoke directions and each spec's width fans. ln delta
    is the maximum over those samples, so it can fall short of the value of
    the continuous regions. A max over those angles depends neither on their
    order nor on repeats, so no grid is sorted or built.
    """
    c1 = checked_number(c1, "c1", above=0)
    tol = checked_number(tol, "tol")
    spec_v = SkeletonSpec(v, c0, target_volume)
    spec_w = SkeletonSpec(w, c0, target_volume)
    if spec_v.v.size != spec_w.v.size:
        raise InvalidInputError("spoke counts differ")
    angles = np.mod(_skeleton_angles([spec_v, spec_w], base_count), 2.0 * math.pi)
    radii_v, radii_w = map(_radii, _skeleton_radii([spec_v, spec_w], angles))
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
