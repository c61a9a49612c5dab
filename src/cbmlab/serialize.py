"""JSON schemas for the value types and a deterministic report emitter.

Reports are emitted with sorted keys and floats printed to 17 significant
digits, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .domains import SplitToricDomain
from .errors import InvalidInputError, checked_array, checked_int, checked_number
from .forms import ContactFormRep, ContactMapRep, SampledManifold
from .starshape import MAX_GRID_COUNT, MIN_GRID_COUNT, DirectionGrid, RadialSet


_NON_FINITE = "reports may not contain non-finite numbers"
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array"}


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


# -- value-type schemas; the constructors apply the number rule of errors -----


def _json_type(value: Any) -> str:
    """The JSON type name of a decoded value, or the Python one of any other."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _string(value: Any, name: str) -> str:
    """A string field: null, a number or a boolean is rejected, not printed as text."""
    if not isinstance(value, str):
        raise InvalidInputError(f"{name} must be a string, not {_json_type(value)}")
    return value


def _object(data: Any, name: str) -> dict:
    """data, if it is a JSON object; anything else is rejected under name."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"{name} must be a JSON object, not {_json_type(data)}")
    return data


def _payload(data: Any, schema: str, keys: set[str]) -> dict:
    """data, if it is a JSON object whose every key belongs to the schema; a
    key it lacks reads as null through ``.get``, which its field's own rule
    rejects under the field's name."""
    if unknown := _object(data, f"a {schema} payload").keys() - keys:
        raise InvalidInputError(f"a {schema} payload has no key {min(unknown, key=str)!r}")
    return data


def radial_set_to_dict(s: RadialSet) -> dict:
    return {
        "dimension": s.grid.dimension,
        "radii": s.radii,
        "directions": s.grid.directions,
    }


def radial_set_from_dict(data: Any) -> RadialSet:
    payload = _payload(data, "radial-set", {"dimension", "radii", "directions"})
    dimension = checked_int(payload.get("dimension"), "dimension")
    radii = payload.get("radii")  # read by RadialSet's array rule, after the grid
    if (directions := payload.get("directions")) is not None:
        grid = DirectionGrid(directions)
        if grid.dimension != dimension:
            raise InvalidInputError(f"directions must have {dimension} columns, got {grid.dimension}")
    elif dimension in (2, 3):  # a default grid has one direction per radius, checked before it is built
        radii = checked_array(radii, "radii", ndim=1, finite=True, positive=True)
        count = checked_int(radii.size, "radii count", MIN_GRID_COUNT, MAX_GRID_COUNT)
        grid = DirectionGrid.uniform_circle(count) if dimension == 2 else DirectionGrid.sphere(count)
    else:
        raise InvalidInputError(f"dimension must be 2 or 3 when directions are omitted, got {dimension}")
    return RadialSet(grid, radii)


def domain_from_dict(data: Any) -> SplitToricDomain:
    """A split toric domain; an optional ``liouville_weight`` must be 1, the
    weight of the cotangent fibers of a torus."""
    payload = _payload(data, "domain", {"base_dim", "fiber", "liouville_weight", "label", "cover"})
    base_dim = checked_int(payload.get("base_dim"), "base_dim")  # before the fiber is read
    if checked_number(payload.get("liouville_weight", 1), "liouville_weight") != 1:
        raise InvalidInputError("liouville_weight must be 1: split domains are toric")
    return SplitToricDomain(
        base_dim=base_dim,
        fiber=radial_set_from_dict(_object(payload.get("fiber"), "fiber")),
        label=_string(payload.get("label", ""), "label"),
        cover=payload.get("cover", 1),
    )


def form_from_dict(data: Any) -> ContactFormRep:
    """A contact form; its site count is its weight count, so no ``sites`` key."""
    payload = _payload(data, "contact-form", {"weights", "half_dim", "f"})
    manifold = SampledManifold(weights=payload.get("weights"), half_dim=payload.get("half_dim"))
    return ContactFormRep(manifold, payload.get("f"))


def map_from_dict(data: Any, manifold: SampledManifold) -> ContactMapRep:
    """A candidate map is its permutation, which ContactMapRep reads; its
    conformal exponent g is derived from it, so ``g`` is no key of the schema."""
    return ContactMapRep(manifold, _payload(data, "candidate-map", {"perm"}).get("perm"))


def element_values_from_json(data: Any) -> np.ndarray:
    """Grid elements travel as bare JSON arrays of numbers, read by the array
    rule here, since their site count is read before any element is built."""
    return checked_array(data, "a grid element", ndim=1, finite=True)
