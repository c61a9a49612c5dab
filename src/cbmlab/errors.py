"""Exception types shared across the package, and its one integer rule.

Every integer parameter of a public entry, and every integer field of a
JSON payload, goes through ``checked_int`` before any other work: a Python
int or a numpy integer is read as a Python int, so no bound computes in
fixed-width integers, and a bool, float or string is rejected.
"""

import numbers


class CbmlabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CbmlabError):
    """Inputs are malformed or mutually incompatible (model/grid mismatch)."""


class PreconditionError(CbmlabError):
    """A documented precondition of an operation does not hold."""


class SearchBoundError(CbmlabError):
    """An exponent search exceeded its safety bound."""

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"exponent search exceeded bound {bound}")


class PrimePairError(CbmlabError):
    """No prime ordering pair exists below the given bound."""

    def __init__(self, prime_bound: int):
        self.prime_bound = prime_bound
        super().__init__(f"no prime ordering pair found with entries <= {prime_bound}")


class InvariantViolation(CbmlabError):
    """A mathematically guaranteed relation failed numerically (build bug)."""


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
    bounds = "" if least is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
    try:
        shown = f"{value!r:.40}"
    except ValueError:  # an int past the interpreter's limit on digits converted to text
        shown = f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit int"
    raise InvalidInputError(f"{name} must be an integer{bounds}, got {shown}")
