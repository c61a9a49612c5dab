"""Exception types shared across the package."""


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
