import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cbmlab import serialize, starshape
from cbmlab.acceptance import item_rng
from cbmlab.errors import InvalidInputError, checked_array
from cbmlab.forms import ContactFormRep, SampledManifold
from cbmlab.serialize import (
    domain_from_dict,
    dumps_report,
    form_from_dict,
    format_float,
    map_from_dict,
    radial_set_from_dict,
    radial_set_to_dict,
)
from cbmlab.starshape import DirectionGrid, RadialSet, SkeletonSpec, skeleton_region


def sample_set():
    grid = DirectionGrid.uniform_circle(64)
    return RadialSet(grid, item_rng(12, 0).uniform(0.5, 2.0, grid.count))


def test_float_formatting_round_trips():
    for x in (math.pi, 1.0 / 3.0, 2.0**-40, -1.2345678901234567e300):
        assert float(format_float(x)) == x


def test_report_rendering_is_sorted_and_stable():
    report = {"b": 1.5, "a": [1, 2.25, "x"], "c": {"z": True, "y": None}}
    text = dumps_report(report)
    assert text == '{"a": [1, 2.25, "x"], "b": 1.5, "c": {"y": null, "z": true}}\n'
    assert dumps_report(json.loads(text)) == text


def reference_render(obj):
    """The per-element renderer that every report was written with before
    float arrays were printed in one format call."""
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
        return reference_render(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_render(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {reference_render(v)}" for k, v in items) + "}"
    raise InvalidInputError(f"cannot serialize object of type {type(obj).__name__}")


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # includes -0.0 and subnormals
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17]
)
FLOATS = FINITE | EDGE_FLOATS
ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
    elements={"allow_nan": False, "allow_infinity": False},
)
LEAVES = st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=3) | ARRAYS
FLOAT_LISTS = st.lists(FLOATS, max_size=6) | st.lists(FLOATS, max_size=6).map(tuple)
MIXED_LISTS = st.lists(FLOATS | st.integers() | st.booleans(), max_size=6)
REPORTS = st.recursive(
    LEAVES | FLOAT_LISTS | MIXED_LISTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_rendering_matches_the_per_element_reference(report):
    assert dumps_report(report) == reference_render(report) + "\n"


def test_non_finite_rejected():
    with pytest.raises(InvalidInputError):
        dumps_report({"x": math.inf})


@pytest.mark.parametrize(
    "value",
    [
        np.array([1.0, math.inf]),
        np.array([[1.0, 2.0], [math.nan, 0.0]]),
        np.array([-math.inf], dtype=np.float32),
        [1.0, -math.inf],
        (math.nan, 2.0),
    ],
)
def test_non_finite_rejected_inside_arrays_and_float_lists(value):
    with pytest.raises(InvalidInputError, match="non-finite"):
        dumps_report({"x": value})


def test_an_object_of_no_json_type_is_rejected():
    with pytest.raises(InvalidInputError, match="^cannot serialize object of type object$"):
        dumps_report({"x": object()})


def own_direction_grid(dimension):
    """A grid of 64 distinct unit directions in R^dimension, not a default grid."""
    points = item_rng(12, dimension).normal(size=(64, dimension))
    return DirectionGrid(points / np.linalg.norm(points, axis=1)[:, None])


def test_radial_set_round_trip_is_identity():
    grids = [DirectionGrid.uniform_circle(64), DirectionGrid.sphere(64, 3)] + [own_direction_grid(d) for d in (3, 4)]
    for grid in grids:
        original = RadialSet(grid, item_rng(12, 0).uniform(0.5, 2.0, grid.count))
        payload = dumps_report(radial_set_to_dict(original))
        reparsed = radial_set_from_dict(json.loads(payload))
        assert dumps_report(radial_set_to_dict(reparsed)) == payload
        assert reparsed.grid.matches(grid)
        assert np.array_equal(reparsed.radii, original.radii)
        assert reparsed.grid.dimension == reparsed.grid.directions.shape[1] == grid.dimension


def test_a_set_on_any_grid_reads_back_from_the_json_it_writes():
    # a repeated row would give one direction two radii, which the reader
    # rejects; the grid rejects it where it is built, so no such set is written
    circle = DirectionGrid.uniform_circle(64).directions
    written = RadialSet(DirectionGrid(circle[::-1]), np.arange(1.0, 65.0))
    read = radial_set_from_dict(json.loads(dumps_report(radial_set_to_dict(written))))
    assert read.grid.matches(written.grid) and np.array_equal(read.radii, written.radii)
    with pytest.raises(InvalidInputError, match="^duplicate directions$"):
        RadialSet(DirectionGrid(np.vstack([circle, circle[:1]])), np.arange(1.0, 66.0))


def skeleton_round_trip(spec, base_count=1024):
    """The spec's skeleton region, checked to read back as itself from its JSON."""
    region = skeleton_region(spec, base_count)
    reparsed = radial_set_from_dict(json.loads(dumps_report(radial_set_to_dict(region))))
    assert reparsed.grid.matches(region.grid)
    assert np.array_equal(reparsed.radii, region.radii)
    return region


def test_narrow_skeletons_round_trip():
    # at width 2.5e-14 two fan angles an ulp apart give one unit row; the region
    # keeps it once, so its reader does not see a duplicate direction
    rows = skeleton_round_trip(SkeletonSpec(np.zeros(4), 10.0, 1e-12)).grid.directions
    assert len(set(map(tuple, rows.tolist()))) == len(rows)
    # rows 2.2e-16 apart, inside the unit check's bound gamma_6 = 6.7e-16 in the
    # plane, are still two directions: a tolerance rule would reject this region
    rows = skeleton_round_trip(SkeletonSpec(np.zeros(2), 10.0, 1e-12), base_count=64).grid.directions
    assert np.min(np.linalg.norm(np.diff(rows, axis=0), axis=1)) <= 2.3e-16


def test_skeleton_regions_round_trip_down_to_tiny_volumes():
    rng = item_rng(12, 1)
    built = 0
    for _ in range(300):
        spokes = 2 * int(rng.integers(1, 12))
        args = rng.uniform(-5.0, 5.0, spokes), rng.uniform(1.5, 100.0), 10.0 ** rng.uniform(-300.0, 0.0)
        try:
            spec = SkeletonSpec(*args)
        except InvalidInputError:
            continue  # a width or corner angle past the double range
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            skeleton_round_trip(spec, base_count=int(rng.integers(64, 1025)))
        built += 1
    assert built >= 200


def test_radial_set_without_directions_regenerates_grid():
    original = sample_set()
    data = radial_set_to_dict(original)
    del data["directions"]
    reparsed = radial_set_from_dict(json.loads(dumps_report(data)))
    assert reparsed.grid.matches(original.grid)
    assert np.array_equal(reparsed.radii, original.radii)


def test_a_radial_set_whose_directions_disagree_with_its_dimension_is_rejected():
    circle = radial_set_to_dict(sample_set())
    with pytest.raises(InvalidInputError, match="^directions must have 3 columns, got 2$"):
        radial_set_from_dict(json.loads(dumps_report({**circle, "dimension": 3})))


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("count", [2, 63, 10**6 + 1])
def test_a_default_grid_count_out_of_range_names_the_radii(dimension, count):
    # checked before any grid is built, whose own messages name neither the radii nor their count
    assert radial_set_from_dict({"dimension": dimension, "radii": np.ones(64)}).grid.count == 64
    with pytest.raises(InvalidInputError, match=rf"^radii count must be an integer in \[64, 1000000\], got {count}$"):
        radial_set_from_dict({"dimension": dimension, "radii": np.ones(count)})


def test_a_payload_with_directions_reads_its_radii_once(monkeypatch):
    # the reader reads the radii itself only to count a default grid; past its
    # directions, RadialSet's array rule reads them, so bad directions are named first
    reads = []

    def counted(values, name, *args, **kwargs):
        reads.append(name)
        return checked_array(values, name, *args, **kwargs)

    monkeypatch.setattr(serialize, "checked_array", counted)
    monkeypatch.setattr(starshape, "checked_array", counted)
    for payload, expected in ((FIBER, 1), ({"dimension": 2, "radii": FIBER["radii"]}, 2)):
        reads.clear()
        radial_set_from_dict(payload)
        assert reads.count("radii") == expected
    with pytest.raises(InvalidInputError, match="^directions must be "):
        radial_set_from_dict({**FIBER, "radii": 5, "directions": 5})


def test_radial_set_bad_payloads():
    with pytest.raises(InvalidInputError):
        radial_set_from_dict({"radii": [1, 2, 3]})
    with pytest.raises(InvalidInputError):
        radial_set_from_dict({"dimension": 2, "radii": [[1, 2], [3, 4]]})


NUMBER = st.one_of(
    st.floats(allow_nan=False), st.integers(-(2**80), 2**80), st.sampled_from([0, 1, 0.0, 1.0, -0.0])
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_float_arrays_read_numbers_as_floats_and_reject_booleans_and_strings(rows, cols, data):
    # integers of any size read as numbers; numpy alone reads true as 1.0 and "0" as 0.0
    matrix = [data.draw(st.lists(NUMBER, min_size=cols, max_size=cols)) for _ in range(rows)]
    for value, ndim in ((matrix[0], 1), (matrix, 2)):
        read = checked_array(value, "x", ndim=ndim)
        assert read.dtype == np.float64 and np.array_equal(read, np.asarray(value, dtype=float))
    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    matrix[i][j] = data.draw(st.sampled_from([True, False, "1.0", "0"]))
    for value, ndim in ((matrix[i], 1), (matrix, 2)):
        with pytest.raises(InvalidInputError, match="x must be an array of numbers"):
            checked_array(value, "x", ndim=ndim)


def test_float_arrays_past_the_float_range_are_rejected():
    with pytest.raises(InvalidInputError, match="^a grid element must be an array of numbers$"):
        serialize.element_values_from_json([1.0, 10**400])


def test_domain_round_trip():
    fiber = sample_set()
    payload = {"base_dim": 2, "fiber": radial_set_to_dict(fiber), "label": "test-domain", "cover": 3}
    reparsed = domain_from_dict(json.loads(dumps_report(payload)))
    assert reparsed.base_dim == 2
    assert reparsed.label == "test-domain"
    assert reparsed.cover == 3
    assert reparsed.fiber.grid.matches(fiber.grid)
    assert np.array_equal(reparsed.fiber.radii, fiber.radii)


def test_form_round_trip_and_maps():
    manifold = SampledManifold(item_rng(12, 0).uniform(0.5, 2.0, 32), half_dim=2)
    form = ContactFormRep(manifold, item_rng(12, 0).uniform(-1, 1, 32))
    payload = {"sites": 32, "weights": manifold.weights, "half_dim": 2, "f": form.f}
    reparsed = form_from_dict(json.loads(dumps_report(payload)))
    assert reparsed.manifold.half_dim == 2
    assert np.array_equal(reparsed.manifold.weights, manifold.weights)
    assert np.array_equal(reparsed.f, form.f)

    perm = item_rng(12, 0).permutation(32)
    derived = map_from_dict({"perm": perm.tolist()}, manifold)
    assert np.array_equal(derived.perm, perm)
    assert np.all(np.isfinite(derived.g))
    # g is derived from perm, so an explicit g, even an empty one, is an unknown key
    for g in ([0.0] * 32, derived.g.tolist(), None):
        with pytest.raises(InvalidInputError, match="^a candidate-map payload has no key 'g'$"):
            map_from_dict({"perm": perm.tolist(), "g": g}, manifold)


def test_form_site_count_consistency():
    manifold_payload = {
        "sites": 4,
        "weights": [1.0, 1.0, 1.0],
        "half_dim": 2,
        "f": [0, 0, 0],
    }
    with pytest.raises(InvalidInputError, match="^sites must be the weight count 3, got 4$"):
        form_from_dict(manifold_payload)


def test_a_payload_without_its_array_names_the_missing_key():
    # a missing key reads as null, which the array rule rejects under the field's name
    manifold = SampledManifold(np.ones(4), half_dim=2)
    with pytest.raises(InvalidInputError, match="^f must be an array of numbers$"):
        form_from_dict({"weights": [1.0] * 4, "half_dim": 2})
    with pytest.raises(InvalidInputError, match="^perm must be an array of integers$"):
        map_from_dict({}, manifold)


def test_a_domain_payload_without_a_key_names_the_missing_key():
    # base_dim is read first, then the fiber, whose null is no JSON object and is named by its key
    with pytest.raises(InvalidInputError, match="^base_dim must be an integer, got None$"):
        domain_from_dict({})
    with pytest.raises(InvalidInputError, match="^fiber must be a JSON object, not null$"):
        domain_from_dict({"base_dim": 2})
    with pytest.raises(InvalidInputError, match="^fiber must be a JSON object, not array$"):
        domain_from_dict({"base_dim": 2, "fiber": [FIBER]})
    # the fiber's own reader names what its payload lacks or holds wrongly
    for fiber, message in [
        ({}, "dimension must be an integer, got None"),
        ({"dimension": 2}, "radii must be an array of numbers"),
        ({"dimension": 2, "radii": 5}, "radii must be a 1-D array of finite numbers > 0"),
    ]:
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            domain_from_dict({"base_dim": 2, "fiber": fiber})


FIBER = json.loads(dumps_report(radial_set_to_dict(sample_set())))
FOUR_SITES = SampledManifold(np.ones(4), half_dim=2)
# each JSON reader as (read, a payload holding every key of its schema, the
# start of the message each required key gives when dropped, misspelled keys
# with a value); a dropped key reads as null, which its field's rule rejects
PAYLOADS = {
    "radial-set": (
        radial_set_from_dict, FIBER, {"dimension": "dimension must be", "radii": "radii must be"},
        {"direction": FIBER["directions"]},
    ),
    "domain": (
        domain_from_dict,
        {"base_dim": 2, "fiber": FIBER, "liouville_weight": 1, "label": "U", "cover": 1},
        {"base_dim": "base_dim must be", "fiber": "fiber must be a JSON object, not null"},
        {"covers": 3, "liouvile_weight": 2},
    ),
    "contact-form": (
        form_from_dict,
        {"sites": 4, "weights": [1.0] * 4, "half_dim": 2, "f": [0.0] * 4},
        {"weights": "weights must be", "half_dim": "half_dim must be", "f": "f must be"},
        {"site": 4},
    ),
    "candidate-map": (
        lambda payload: map_from_dict(payload, FOUR_SITES), {"perm": [1, 0, 3, 2]}, {"perm": "perm must be"},
        {"g": [0.0] * 4},
    ),
}


# non-object payloads, each with the JSON name of its type
NON_OBJECTS = [([], "array"), ("g", "string"), (3, "number"), (None, "null")]


def payload_cases():
    """(id, read, payload, message start) for each bad payload of each reader."""
    for schema, (read, good, required, misspelled) in PAYLOADS.items():
        for bad, json_type in NON_OBJECTS:
            start = f"a {schema} payload must be a JSON object, not {json_type}"
            yield f"{schema}-{type(bad).__name__}", read, bad, start
        for key, start in required.items():
            yield f"{schema}-without-{key}", read, {k: v for k, v in good.items() if k != key}, start
        for key, value in misspelled.items():
            yield f"{schema}-{key}", read, {**good, key: value}, f"a {schema} payload has no key {key!r}"


@pytest.mark.parametrize("schema", PAYLOADS)
def test_every_reader_takes_its_whole_schema(schema):
    read, good, _, _ = PAYLOADS[schema]
    read(good)


@pytest.mark.parametrize(
    "read, payload, start", [case[1:] for case in payload_cases()], ids=[case[0] for case in payload_cases()]
)
def test_a_payload_off_its_schema_is_rejected_by_name(read, payload, start):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(start)}"):
        read(payload)


@pytest.mark.parametrize("value, json_type", [*NON_OBJECTS, (2.5, "number"), (True, "boolean"), ((), "tuple")])
def test_a_message_names_the_json_type_of_what_it_rejects(value, json_type):
    # a value json.loads cannot return, such as a tuple from a library caller, keeps its Python name
    with pytest.raises(InvalidInputError, match=f"^a radial-set payload must be a JSON object, not {json_type}$"):
        radial_set_from_dict(value)
    if json_type != "string":
        with pytest.raises(InvalidInputError, match=f"^label must be a string, not {json_type}$"):
            domain_from_dict({"base_dim": 2, "fiber": FIBER, "label": value})
