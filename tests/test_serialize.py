import json
import math

import numpy as np
import pytest

from cbmlab.acceptance import item_rng
from cbmlab.domains import SplitToricDomain
from cbmlab.errors import InvalidInputError
from cbmlab.forms import ContactFormRep, SampledManifold
from cbmlab.serialize import (
    domain_from_dict,
    domain_to_dict,
    dumps_report,
    form_from_dict,
    form_to_dict,
    format_float,
    map_from_dict,
    radial_set_from_dict,
    radial_set_to_dict,
)
from cbmlab.starshape import DirectionGrid, RadialSet


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


def test_non_finite_rejected():
    with pytest.raises(InvalidInputError):
        dumps_report({"x": math.inf})


def test_radial_set_round_trip_is_identity():
    payload = dumps_report(radial_set_to_dict(sample_set()))
    reparsed = radial_set_from_dict(json.loads(payload))
    assert dumps_report(radial_set_to_dict(reparsed)) == payload


def test_radial_set_without_directions_regenerates_grid():
    original = sample_set()
    data = radial_set_to_dict(original, include_directions=False)
    reparsed = radial_set_from_dict(json.loads(dumps_report(data)))
    assert reparsed.grid.matches(original.grid)
    assert np.array_equal(reparsed.radii, original.radii)


def test_radial_set_bad_payloads():
    with pytest.raises(InvalidInputError):
        radial_set_from_dict({"radii": [1, 2, 3]})
    with pytest.raises(InvalidInputError):
        radial_set_from_dict({"dimension": 2, "radii": [[1, 2], [3, 4]]})


def test_domain_round_trip():
    domain = SplitToricDomain(2, sample_set(), 1.0, "test-domain", cover=3)
    payload = dumps_report(domain_to_dict(domain))
    reparsed = domain_from_dict(json.loads(payload))
    assert reparsed.label == "test-domain"
    assert reparsed.cover == 3
    assert dumps_report(domain_to_dict(reparsed)) == payload


def test_form_round_trip_and_maps():
    manifold = SampledManifold(item_rng(12, 0).uniform(0.5, 2.0, 32), half_dim=2)
    form = ContactFormRep(manifold, item_rng(12, 0).uniform(-1, 1, 32))
    payload = dumps_report(form_to_dict(form))
    reparsed = form_from_dict(json.loads(payload))
    assert dumps_report(form_to_dict(reparsed)) == payload

    perm = item_rng(12, 0).permutation(32)
    explicit = map_from_dict({"perm": perm.tolist(), "g": [0.0] * 32}, manifold)
    assert np.array_equal(explicit.perm, perm)
    derived = map_from_dict({"perm": perm.tolist()}, manifold)
    assert np.all(np.isfinite(derived.g))


def test_form_site_count_consistency():
    manifold_payload = {
        "sites": 4,
        "weights": [1.0, 1.0, 1.0],
        "half_dim": 2,
        "f": [0, 0, 0],
    }
    with pytest.raises(InvalidInputError):
        form_from_dict(manifold_payload)
