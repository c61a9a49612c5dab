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


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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


def radial_set_to_dict(s: RadialSet) -> dict:
    return {
        "dimension": s.grid.dimension,
        "radii": s.radii,
        "directions": s.grid.directions,
    }


def radial_set_from_dict(data: dict) -> RadialSet:
    try:
        dimension = _integer(data["dimension"], "dimension")
        radii = np.asarray(data["radii"], dtype=float)
        directions = data.get("directions")
        if directions is not None:
            directions = np.asarray(directions, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad radial-set payload: {exc}") from exc
    if directions is not None:
        if directions.ndim != 2 or directions.shape[1] != dimension:
            raise InvalidInputError("directions must be a (count, dimension) matrix")
        grid = DirectionGrid.from_directions(directions)
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
            weights=np.asarray(data["weights"], dtype=float),
            half_dim=_integer(data["half_dim"], "half_dim"),
        )
        if "sites" in data and _integer(data["sites"], "sites") != manifold.sites:
            raise InvalidInputError("declared site count disagrees with the weights")
        return ContactFormRep(manifold, np.asarray(data["f"], dtype=float))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad contact-form payload: {exc}") from exc


def map_from_dict(data: dict, manifold: SampledManifold) -> ContactMapRep:
    try:
        raw = data["perm"]
        perm = np.asarray(raw)
        if perm.dtype.kind not in "iu":
            raise InvalidInputError("perm must be an array of integers")
        # numpy reads a JSON boolean among integers as 0 or 1, which a permutation
        # holds at most once each, so only those entries can be booleans
        low = np.flatnonzero((perm == 0) | (perm == 1)) if perm.ndim == 1 else ()
        if any(type(raw[i]) is bool for i in low):
            raise InvalidInputError("perm must be an array of integers")
        if "g" in data and data["g"] is not None:
            g = np.asarray(data["g"], dtype=float)
            return ContactMapRep(manifold, perm, g)
        return ContactMapRep.measure_compatible(manifold, perm)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad candidate-map payload: {exc}") from exc


def element_values_from_json(data: Any) -> np.ndarray:
    """Grid elements travel as bare JSON arrays of numbers."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"bad grid element payload: {exc}") from exc
    if arr.ndim != 1:
        raise InvalidInputError("grid element payload must be a flat array of numbers")
    return arr
