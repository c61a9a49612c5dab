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
from .starshape import MAX_SPHERE_DIMENSION, DirectionGrid, RadialSet


_NON_FINITE = "reports may not contain non-finite numbers"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError(_NON_FINITE)
    return format(x, ".17g")


def _float_row(count: int) -> str:
    """A ``%`` template printing ``count`` floats as a JSON list, with the
    same digits as ``format_float``: '%.17g' % x == format(x, '.17g')."""
    return "[" + ", ".join(["%.17g"] * count) + "]"


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
            row = _float_row(obj.shape[-1])
            template = row if obj.ndim == 1 else "[" + ", ".join([row] * obj.shape[0]) + "]"
            return template % tuple(obj.ravel().tolist())
        return _render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        if obj and all(type(v) is float for v in obj):
            # finite %.17g output has no "n"; inf and nan always do
            text = _float_row(len(obj)) % tuple(obj)
            if "n" in text:
                raise InvalidInputError(_NON_FINITE)
            return text
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
    elif not 2 <= dimension <= MAX_SPHERE_DIMENSION:
        raise InvalidInputError(
            f"dimension must lie in [2, {MAX_SPHERE_DIMENSION}] when directions are omitted, "
            f"got {dimension}"
        )
    elif dimension == 2:
        grid = DirectionGrid.uniform_circle(radii.size)
    else:
        grid = DirectionGrid.sphere(radii.size, dimension)
    return RadialSet(grid, radii)


def domain_to_dict(d: SplitToricDomain) -> dict:
    return {
        "base_dim": d.base_dim,
        "liouville_weight": d.liouville_weight,
        "fiber": radial_set_to_dict(d.fiber),
        "label": d.label,
        "cover": d.cover,
    }


def domain_from_dict(data: dict) -> SplitToricDomain:
    try:
        return SplitToricDomain(
            base_dim=_integer(data["base_dim"], "base_dim"),
            fiber=radial_set_from_dict(data["fiber"]),
            liouville_weight=_number(data.get("liouville_weight", 1.0), "liouville_weight"),
            label=str(data.get("label", "")),
            cover=_integer(data.get("cover", 1), "cover"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad domain payload: {exc}") from exc


def form_to_dict(form: ContactFormRep) -> dict:
    return {
        "sites": form.manifold.sites,
        "weights": form.manifold.weights,
        "half_dim": form.manifold.half_dim,
        "f": form.f,
    }


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
    try:
        perm = _array(data["perm"], "perm", integer=True)
        if "g" in data and data["g"] is not None:
            g = _array(data["g"], "g")
            return ContactMapRep(manifold, perm, g)
        return ContactMapRep.measure_compatible(manifold, perm)
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
