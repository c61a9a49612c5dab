"""Exception types shared across the package, and its integer, scalar and
array rules, each applied where a value enters, before any other work.

``checked_int`` reads a Python int or a numpy integer as a Python int, so no
bound computes in fixed-width integers, and rejects a bool, float or string.
``checked_number`` and ``checked_array`` read a Python or numpy real, an int
of any size included, as a float, and reject a bool or string, never read as
0, 1 or the number it spells. A scalar must be finite and above its bound, if
any. An array meets the contract its owner states in the one call: its
dimension, and entries finite, or finite and positive; it comes back as a
read-only copy, so no later write by the caller reaches it.
"""

import math
import numbers
import sys

import numpy as np


class CbmlabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CbmlabError):
    """Inputs are malformed or mutually incompatible (model/grid mismatch), or
    lie past a limit of the growth rate: a base that is not dominant, a least
    exponent past the search bound, or no prime ordering pair below the prime
    bound."""


class InvariantViolation(CbmlabError):
    """A mathematically guaranteed relation failed numerically (build bug)."""


DOUBLE_MAX = int(sys.float_info.max)  # the largest double, as an int


def rounding_bound(k: int) -> float:
    """The least double at or above gamma_k = k u/(1 - k u), u = 2^-53, for 0 < k < 2^53:
    a product of k factors (1 + d)^(+-1), |d| <= u, is within gamma_k of 1 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, Lemma 3.1)."""
    bound = k / (2**53 - k)  # int true division rounds correctly, so at most one step up
    n, d = bound.as_integer_ratio()
    return bound if n * (2**53 - k) >= k * d else math.nextafter(bound, math.inf)


def checked_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """value as a Python int, if it is an int or a numpy integer (not a bool)
    at least ``least`` and at most ``most``, each bound if given (``most``
    only with ``least``); otherwise InvalidInputError, whose message names
    the parameter."""
    # a plain int skips the slower ABC check; bool is an int subclass, np.bool_ no Integral
    if type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral)):
        value = int(value)
        if (least is None or value >= least) and (most is None or value <= most):
            return value
    # a bound past int64 prints as the double it equals, not in its hundreds of digits
    low, high = (b if b is None or -(2**63) <= b < 2**63 else float(b) for b in (least, most))
    bounds = "" if least is None else f" >= {low}" if most is None else f" in [{low}, {high}]"
    if isinstance(value, int) and not -(10**39) < value < 10**40:  # its digits pass 40 characters
        shown = f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit int"
    else:
        try:
            shown = repr(value)
        except Exception:  # say, a list holding an int past the interpreter's limit on digits
            shown = type(value).__name__
        shown = shown if len(shown) <= 40 else f"{shown:.40}..."
    raise InvalidInputError(f"{name} must be an integer{bounds}, got {shown}")


def _real(value, name: str) -> float:
    """value as a float, NaN and +-inf included, if it is a real Python or
    numpy number (not a bool) in the float range; otherwise InvalidInputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is no Real
        raise InvalidInputError(f"{name} must be a number, not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise InvalidInputError(f"{name} must be a number in the float range") from None


def checked_number(value, name: str, above: float | None = None) -> float:
    """value as a float, if it is a finite real Python or numpy number (not a
    bool) greater than ``above``, if given; otherwise InvalidInputError naming it."""
    number = _real(value, name)
    if math.isfinite(number) and (above is None or number > above):
        return number
    bound = "" if above is None else f" > {above}"
    raise InvalidInputError(f"{name} must be a finite number{bound}, got {number!r}")


def checked_array(
    value, name: str, ndim: int, finite: bool = False, positive: bool = False, integer: bool = False,
) -> np.ndarray:
    """value as a read-only float64 array, or int64 array if ``integer``, that
    shares no memory with value: of ``ndim`` dimensions, with every
    entry finite if ``finite`` and > 0 if ``positive``. Otherwise
    InvalidInputError, whose message starts with the array's name."""
    kinds = "integers" if integer else "numbers"
    message = f"{name} must be an array of {kinds}"
    try:
        arr = np.asarray(value)
        if not integer and arr.dtype.kind == "O":  # say, integers past int64
            arr = np.array([_real(v, name) for v in arr.flat]).reshape(arr.shape)
    except (ValueError, InvalidInputError):  # a ragged nesting, or an entry that is no number
        raise InvalidInputError(message) from None
    if arr.dtype.kind not in ("iu" if integer else "iuf"):
        raise InvalidInputError(message)
    if not isinstance(value, np.ndarray):  # a numeric ndarray holds no bool; a list may
        # numpy reads a bool among numbers as 0 or 1, so only those entries can be one
        for index in np.argwhere((arr == 0) | (arr == 1)).tolist():
            entry = value
            for i in index:
                entry = entry[i]
            if type(entry) in (bool, np.bool_):
                raise InvalidInputError(message)
    # one copy at most: an array numpy built from a list shares no memory with the caller
    arr = arr.astype(np.int64 if integer else float, copy=arr is value or not arr.flags.owndata)
    if arr.ndim != ndim or (finite and not np.isfinite(arr).all()) or (positive and not (arr > 0).all()):
        contract = f"{'finite ' * finite}{kinds}{' > 0' * positive}"
        raise InvalidInputError(f"{name} must be a {ndim}-D array of {contract}")
    arr.flags.writeable = False
    return arr
