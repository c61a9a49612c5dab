"""JSON schemas for the value types and a deterministic report emitter.

Reports are emitted with sorted keys and floats printed to 17 significant
digits, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import Any

import numpy as np

from .domains import SplitToricDomain
from .errors import InvalidInputError
from .forms import ContactFormRep, ContactMapRep, SampledManifold
from .starshape import DirectionGrid, RadialSet


_NON_FINITE = "reports may not contain non-finite numbers"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError(_NON_FINITE)
    return format(x, ".17g")


def _render(obj: Any) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.ndarray):
        # float vectors and matrices print in one format call; longdouble
        # items are not Python floats after tolist(), so they go per element
        if (
            type(obj) is np.ndarray
            and obj.dtype.kind == "f"
            and obj.dtype.itemsize <= 8
            and obj.ndim in (1, 2)
            and obj.size
        ):
            if not np.isfinite(obj).all():
                raise InvalidInputError(_NON_FINITE)
            row = "[" + ", ".join(["%.17g"] * obj.shape[-1]) + "]"  # '%.17g' % x == format_float(x)
            template = row if obj.ndim == 1 else "[" + ", ".join([row] * obj.shape[0]) + "]"
            return template % tuple(obj.ravel().tolist())
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in items) + "}"
    raise InvalidInputError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_report(obj: Any) -> str:
    return _render(obj) + "\n"


# -- value-type schemas -------------------------------------------------------


def _integer(value: Any, name: str) -> int:
    """An integer field: a float, string or boolean is rejected, not truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, not {type(value).__name__}")
    return int(value)


def _number(value: Any, name: str) -> float:
    """A number field: a string or boolean is rejected, not parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a number, not {type(value).__name__}")
    return float(value)


def _string(value: Any, name: str) -> str:
    """A string field: null, a number or a boolean is rejected, not printed as text."""
    if not isinstance(value, str):
        raise InvalidInputError(f"{name} must be a string, not {type(value).__name__}")
    return value


def _array(value: Any, name: str, integer: bool = False) -> np.ndarray:
    """A JSON array of numbers, read as floats, or as integers if ``integer``.

    A boolean or string entry is rejected, not read as 0, 1 or the number it
    spells; integer literals of any size read as floats.
    """
    message = f"{name} must be an array of {'integers' if integer else 'numbers'}"
    arr = np.asarray(value)
    if not integer and arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat):
        arr = arr.astype(float)  # integers past int64; OverflowError past the float range
    if arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise InvalidInputError(message)
    # numpy reads a JSON boolean among numbers as 0 or 1, so only those entries can be one
    for index in np.argwhere((arr == 0) | (arr == 1)).tolist():
        entry = value
        for i in index:
            entry = entry[i]
        if type(entry) is bool:
            raise InvalidInputError(message)
    return arr if integer else arr.astype(float, copy=False)


def radial_set_to_dict(s: RadialSet) -> dict:
    return {
        "dimension": s.grid.dimension,
        "radii": s.radii,
        "directions": s.grid.directions,
    }


def radial_set_from_dict(data: dict) -> RadialSet:
    try:
        dimension = _integer(data["dimension"], "dimension")
        radii = _array(data["radii"], "radii")
        directions = data.get("directions")
        if directions is not None:
            directions = _array(directions, "directions")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad radial-set payload: {exc}") from exc
    if directions is not None:
        if directions.ndim != 2 or directions.shape[1] != dimension:
            raise InvalidInputError("directions must be a (count, dimension) matrix")
        grid = DirectionGrid.from_directions(directions)
    elif dimension == 2:
        grid = DirectionGrid.uniform_circle(radii.size)
    elif dimension == 3:
        grid = DirectionGrid.sphere(radii.size)
    else:
        raise InvalidInputError(f"dimension must be 2 or 3 when directions are omitted, got {dimension}")
    return RadialSet(grid, radii)


def domain_from_dict(data: dict) -> SplitToricDomain:
    """A split toric domain; an optional ``liouville_weight`` must be 1, the
    weight of the cotangent fibers of a torus."""
    try:
        base_dim = _integer(data["base_dim"], "base_dim")
        if _number(data.get("liouville_weight", 1), "liouville_weight") != 1:
            raise InvalidInputError("liouville_weight must be 1: split domains are toric")
        return SplitToricDomain(
            base_dim=base_dim,
            fiber=radial_set_from_dict(data["fiber"]),
            label=_string(data.get("label", ""), "label"),
            cover=_integer(data.get("cover", 1), "cover"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad domain payload: {exc}") from exc


def form_from_dict(data: dict) -> ContactFormRep:
    try:
        manifold = SampledManifold(
            weights=_array(data["weights"], "weights"),
            half_dim=_integer(data["half_dim"], "half_dim"),
        )
        if "sites" in data and _integer(data["sites"], "sites") != manifold.sites:
            raise InvalidInputError("declared site count disagrees with the weights")
        return ContactFormRep(manifold, _array(data["f"], "f"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad contact-form payload: {exc}") from exc


def map_from_dict(data: dict, manifold: SampledManifold) -> ContactMapRep:
    """A candidate map is its permutation; its conformal exponent is derived,
    so a payload with a ``g`` key is rejected."""
    try:
        if "g" in data:
            raise InvalidInputError("g is derived from perm; a candidate map has no g key")
        return ContactMapRep(manifold, _array(data["perm"], "perm", integer=True))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad candidate-map payload: {exc}") from exc


def element_values_from_json(data: Any) -> np.ndarray:
    """Grid elements travel as bare JSON arrays of numbers."""
    try:
        arr = _array(data, "a grid element")
    except (InvalidInputError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad grid element payload: {exc}") from exc
    if arr.ndim != 1:
        raise InvalidInputError("grid element payload must be a flat array of numbers")
    return arr
