import re

import numpy as np
import pytest

from cbmlab.domains import hamiltonian_to_domain, rgr_vs_cbm
from cbmlab.errors import InvalidInputError
from cbmlab.forms import ContactFormRep, ContactMapRep, SampledManifold
from cbmlab.ordered import Element, OrderedModel
from cbmlab.starshape import DirectionGrid, RadialSet, SkeletonSpec, lshape_array

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
    "DirectionGrid": ("directions", lambda v: DirectionGrid(v).directions, [[1, 0], [0, -1]] * 32, False),
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


def test_a_multiplicative_element_is_a_number():
    m = OrderedModel.multiplicative()
    for value in (True, np.True_, "2.5", [2.5]):
        with pytest.raises(InvalidInputError, match="^a multiplicative element must be a number, not "):
            m.element(value)
    with pytest.raises(InvalidInputError, match="^a multiplicative element must be a number in the float"):
        m.element(10**400)
    reference = m.element(2.0).data.tobytes()
    for value in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
        assert m.element(value).data.tobytes() == reference
