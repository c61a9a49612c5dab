import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cbmlab.domains import hamiltonian_to_domain, rgr_vs_cbm
from cbmlab.errors import InvalidInputError, checked_int, rounding_bound
from cbmlab.forms import ContactFormRep, ContactMapRep, SampledManifold
from cbmlab.ordered import Element, OrderedModel
from cbmlab.serialize import domain_from_dict, element_values_from_json
from cbmlab.starshape import (
    DirectionGrid,
    RadialSet,
    SkeletonSpec,
    ball,
    centered_square,
    lshape_array,
    qi_verify,
    scale,
)

GRID = DirectionGrid.uniform_circle(64)
MANIFOLD = SampledManifold(np.full(4, 0.5), half_dim=2)

# every public entry that takes an array of numbers from its caller, as
# (the array's name in the message, a build returning an array, a valid
# Python list of ints holding a 1, whether its entries are integers)
ENTRIES = {
    "Element": ("an element", lambda v: Element(v).data, [1, 2, 3], False),
    "OrderedModel.element": (
        "an element", lambda v: OrderedModel.additive(3).element(v).data, [1, 2, 3], False
    ),
    "DirectionGrid": ("directions", lambda v: DirectionGrid(v).directions, np.eye(64, dtype=int).tolist(), False),
    "DirectionGrid.from_angles": (
        "angles", lambda v: DirectionGrid.from_angles(v).directions, list(range(64)), False
    ),
    "RadialSet": ("radii", lambda v: RadialSet(GRID, v).radii, [1, 2] * 32, False),
    "SkeletonSpec": ("v", lambda v: SkeletonSpec(v, 10.0).v, [0, 1, 2, 1], False),
    "lshape_array": ("x", lshape_array, [0, 1, -2, 3], False),
    "SampledManifold": ("weights", lambda v: SampledManifold(v, half_dim=2).weights, [1, 2, 1, 3], False),
    "ContactFormRep": ("f", lambda v: ContactFormRep(MANIFOLD, v).f, [0, 1, -1, 2], False),
    "ContactMapRep": ("perm", lambda v: ContactMapRep(MANIFOLD, v).perm, [1, 0, 3, 2], True),
    "hamiltonian_to_domain": (
        "hamiltonian samples", lambda v: hamiltonian_to_domain(v).fiber.radii, [1, 2] * 32, False
    ),
    "rgr_vs_cbm-h1": ("h1", lambda v: np.array([rgr_vs_cbm(v, [2, 1] * 32).d_order]), [1, 2] * 32, False),
    "rgr_vs_cbm-h2": ("h2", lambda v: np.array([rgr_vs_cbm([2, 1] * 32, v).d_order]), [1, 2] * 32, False),
    "element_values_from_json": ("a grid element", element_values_from_json, [1, 2, 3], False),
}

# each entry's array contract, as (dimension, finite, positive): the one
# errors.checked_array call that states it, and nothing else, rejects an
# array of any other dimension, a non-finite entry if finite, and an entry of
# 0 or below if positive, with a message that starts with the array's name
ARRAYS = {
    "Element": (1, True, False),
    "OrderedModel.element": (1, True, False),
    "DirectionGrid": (2, True, False),
    "DirectionGrid.from_angles": (1, True, False),
    "RadialSet": (1, True, True),  # a bounded set with 0 in its interior
    "SkeletonSpec": (1, True, False),
    "lshape_array": (1, False, False),  # maps NaN to (NaN, 1), as its docstring says
    "SampledManifold": (1, True, True),
    "ContactFormRep": (1, True, False),
    "ContactMapRep": (1, True, False),  # a non-finite entry is no integer
    "hamiltonian_to_domain": (1, True, True),  # a positive contact isotopy
    "rgr_vs_cbm-h1": (1, True, True),
    "rgr_vs_cbm-h2": (1, True, True),
    "element_values_from_json": (1, True, False),
}


def with_first_one_as(values, entry):
    """A copy of the nested list values whose first entry equal to 1 is entry."""
    done = False

    def swap(v):
        nonlocal done
        if isinstance(v, list):
            return [swap(x) for x in v]
        if v == 1 and not done:
            done = True
            return entry
        return v

    out = swap(values)
    assert done
    return out


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_point_rejects_a_boolean_or_string_entry(entry):
    # numpy alone reads True and "1" as 1, so each bad list would read as the good one
    name, build, good, integer = ENTRIES[entry]
    kind = "integers" if integer else "numbers"
    build(good)
    for bad in (True, "1"):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be an array of {kind}$"):
            build(with_first_one_as(good, bad))


@pytest.mark.parametrize("entry", ENTRIES)
def test_numbers_load_bit_for_bit_as_floats_or_integers(entry):
    # the array a Python int list, a numpy int array or a float array builds is
    # the one its float64 (for a permutation, int64) array builds
    _, build, good, integer = ENTRIES[entry]
    reference = build(np.array(good, dtype=np.int64 if integer else np.float64))
    variants = [good, np.array(good), np.array(good, dtype=np.int32)]
    if not integer:
        variants += [np.array(good, dtype=np.float32), np.array(good, dtype=float).tolist()]
    for value in variants:
        built = build(value)
        assert built.dtype == reference.dtype and built.tobytes() == reference.tobytes()


def test_every_entry_has_an_array_contract():
    assert ARRAYS.keys() == ENTRIES.keys()


@pytest.mark.parametrize("entry", ARRAYS)
def test_every_array_meets_its_contract(entry):
    # the message states the contract; an integer is finite by type, so a
    # permutation's non-finite entry is rejected as no integer
    name, build, good, integer = ENTRIES[entry]
    dimension, finite, positive = ARRAYS[entry]
    kinds = "integers" if integer else "finite " * finite + "numbers"
    contract = f"{name} must be a {dimension}-D array of {kinds}{' > 0' * positive}"
    build(good)
    for value in (np.asarray(good)[0], [good]):  # one dimension fewer, one more
        with pytest.raises(InvalidInputError, match=f"^{re.escape(contract)}$"):
            build(value)
    non_finite = [with_first_one_as(good, x) for x in (math.nan, math.inf, -math.inf)]
    if not finite:
        for value in non_finite:
            build(value)
    signs = [with_first_one_as(good, x) for x in (0, -1)] if positive else []
    for value in (non_finite if finite else []) + signs:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} must be "):
            build(value)


def spec_values(spec):
    return np.concatenate([spec.spoke_lengths, [spec.c0, spec.target_volume, spec.epsilon]])


def qi_values(**scalar):
    r = qi_verify([0.5, 1, 0, 2], [0, 1, 0.5, 2], base_count=64, **scalar)
    return np.array([r.log_delta, r.lower, r.upper, r.linf, r.measured_c1])


FORM = ContactFormRep(MANIFOLD, [0, 1, -1, 2])
DOMAIN = {"base_dim": 2, "fiber": {"dimension": 2, "radii": [1.0] * 64}}

# every real scalar parameter, as 'owner.parameter': (the name its message
# starts with, a build returning an array, a valid value, the lower bound the
# scalar rule checks or None); errors.checked_number holds each to one rule
SCALARS = {
    "SkeletonSpec.c0": ("c0", lambda x: spec_values(SkeletonSpec([0, 1, 2, 1], x)), 2, 1),
    "SkeletonSpec.target_volume": (
        "target volume", lambda x: spec_values(SkeletonSpec([0, 1, 2, 1], 10.0, x)), 2, 0
    ),
    "qi_verify.c0": ("c0", lambda x: qi_values(c0=x), 2, 1),
    "qi_verify.target_volume": ("target volume", lambda x: qi_values(target_volume=x), 2, 0),
    "qi_verify.tol": ("tol", lambda x: qi_values(tol=x), 2, None),
    "qi_verify.c1": ("c1", lambda x: qi_values(c1=x), 2, 0),
    "scale.c": ("scale factor", lambda x: scale(RadialSet(GRID, np.ones(64)), x).radii, 2, 0),
    "ball.radius": ("radius", lambda x: ball(x, GRID).radii, 2, None),
    "centered_square.half_side": ("half side", lambda x: centered_square(x, GRID).radii, 2, None),
    "ContactFormRep.rescaled.c": ("rescaling constant", lambda x: FORM.rescaled(x).f, 2, 0),
    "OrderedModel.element.value": (
        "a multiplicative element", lambda x: OrderedModel.multiplicative().element(x).data, 2, 0
    ),
    "domain_from_dict.liouville_weight": (
        "liouville_weight", lambda x: domain_from_dict({**DOMAIN, "liouville_weight": x}).fiber.radii, 1, None
    ),
}


@pytest.mark.parametrize("entry", SCALARS)
def test_every_scalar_is_a_finite_number_above_its_bound(entry):
    # numpy and float() read True as 1 and parse "1.5"; 10**400 overflows float()
    name, build, good, bound = SCALARS[entry]
    build(good)
    out_of_range = [math.nan, math.inf, -math.inf] + ([] if bound is None else [bound, bound - 1])
    for value, message in (
        *[(v, "must be a number, not ") for v in (True, np.True_, "1.5", [2.5])],
        (10**400, "must be a number in the float range"),
        *[(v, "must be a finite number") for v in out_of_range],
    ):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(name)} {message}"):
            build(value)


@pytest.mark.parametrize("entry", SCALARS)
def test_scalars_load_bit_for_bit_as_floats(entry):
    _, build, good, _ = SCALARS[entry]
    reference = build(float(good))
    for value in (good, np.int64(good), np.float32(good), np.float64(good)):
        built = build(value)
        assert built.dtype == reference.dtype and built.tobytes() == reference.tobytes()


def test_a_spec_stores_its_scalars_as_floats():
    spec = SkeletonSpec([0, 1, 2, 1], np.int64(10), np.float32(2))
    assert (type(spec.c0), type(spec.target_volume)) == (float, float)


def test_an_array_entry_may_be_nan_or_infinite_beside_an_int_past_int64():
    # such a list is an object array, read entry by entry; the scalar rule's
    # finiteness is not the array rule, so lshape_array still maps the NaN
    mixed = lshape_array([2**70, math.nan, -math.inf])
    assert mixed.tobytes() == lshape_array(np.array([2.0**70, math.nan, -math.inf])).tobytes()


def test_the_rounding_bound_is_the_least_double_at_or_above_gamma_k():
    # gamma_k = k u/(1 - k u) = k/(2^53 - k), rounded up to a double and by less than one step
    for k in range(1, 10**4 + 1):
        bound, gamma = rounding_bound(k), Fraction(k, 2**53 - k)
        assert Fraction(math.nextafter(bound, 0.0)) < gamma <= Fraction(bound)


def test_a_bound_past_int64_prints_as_the_double_it_equals():
    # int(sys.float_info.max) has 309 digits; the messages name it as a double
    model = OrderedModel.additive(2)
    with pytest.raises(InvalidInputError) as info:
        model.power(model.element([1.0, 1.0]), 10**400)
    assert str(info.value) == (
        "k must be an integer in [-1.7976931348623157e+308, 1.7976931348623157e+308], "
        "got a 1329-bit int"
    )
    with pytest.raises(InvalidInputError) as info:
        SampledManifold(np.ones(2), half_dim=0)
    assert str(info.value) == "half_dim must be an integer in [1, 1.7976931348623157e+308], got 0"


@pytest.mark.parametrize(
    "value, shown",
    [
        # an int whose digits pass 40 characters is named by its bit length
        pytest.param(10**40, "a 133-bit int", id="41-digits"),
        pytest.param(-(10**39), "a negative 130-bit int", id="negative-40-digits"),
        pytest.param(10**400, "a 1329-bit int", id="401-digits"),
        # the longest ints that fit are printed whole
        pytest.param(10**40 - 1, "9" * 40, id="40-digits"),
        pytest.param(-(10**39) + 1, "-" + "9" * 39, id="negative-39-digits"),
        # a repr cut at 40 characters ends in "..."
        pytest.param("x" * 50, "'" + "x" * 39 + "...", id="long-string"),
        pytest.param([1.5] * 20, "[1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5,...", id="long-list"),
        # a value whose repr fails is named by its type
        pytest.param([10**5000], "list", id="list-of-an-int-too-long-to-print"),
        pytest.param({"k": 10**5000}, "dict", id="dict-of-an-int-too-long-to-print"),
    ],
)
def test_a_rejected_integer_is_described_safely(value, shown):
    with pytest.raises(InvalidInputError) as info:
        checked_int(value, "k", -1, 1)
    assert str(info.value) == f"k must be an integer in [-1, 1], got {shown}"
