"""Order-derived norms on the additive grid group and their stabilization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, PreconditionError
from .ordered import (
    _SEARCH_BOUND,
    DEFAULT_L_MAX,
    Element,
    ModelKind,
    OrderedModel,
    OrderVariant,
    _least_true,
    _row_pred,
    rho_plus,
)


@dataclass(frozen=True)
class NormReport:
    """Extremal sandwich exponents of arg between powers of the dominant base."""

    nu_plus: int
    nu_minus: int
    nu: int
    base: Element
    arg: Element

    def to_json_dict(self) -> dict:
        return {
            "nu_plus": self.nu_plus,
            "nu_minus": self.nu_minus,
            "nu": self.nu,
            "base": list(map(float, self.base.data)),
            "arg": list(map(float, self.arg.data)),
        }


def _additive_model_for(base: Element) -> OrderedModel:
    if base.kind is not ModelKind.ADDITIVE_GRID:
        raise PreconditionError("norms are defined on the additive grid group")
    return OrderedModel.additive(base.data.shape[0], OrderVariant.NON_STRICT)


def norm(base: Element, arg: Element) -> NormReport:
    """Norm of arg relative to a dominant base.

    Closed forms on the additive group: the least k with k*base >= arg is
    ceil(sup(arg/base)) and the greatest l with arg >= l*base is
    floor(inf(arg/base)). Both are re-derived from the order oracle alone by
    bracketed searches started at 0: the least k with k*base >= arg, and the
    least m with m*base >= -arg, which gives l = -m. That takes O(log ratio)
    oracle calls and O(sites) memory; a ratio beyond the search bound raises
    SearchBoundError before any closed form is evaluated.
    """
    model = _additive_model_for(base)
    model._check(arg)
    if not model.is_dominant_closed_form(base):
        raise PreconditionError("norm requires a dominant base (strictly positive minimum)")

    search_plus = _least_true(_row_pred(model, base, arg, 1), 0, _SEARCH_BOUND)
    search_minus = -_least_true(_row_pred(model, base, model.inverse(arg), 1), 0, _SEARCH_BOUND)

    ratio = arg.data / base.data
    nu_plus = int(math.ceil(np.max(ratio)))
    nu_minus = int(math.floor(np.min(ratio)))
    if (search_plus, search_minus) != (nu_plus, nu_minus):
        raise InvariantViolation(
            f"norm closed form ({nu_plus}, {nu_minus}) disagrees with "
            f"oracle search ({search_plus}, {search_minus})"
        )
    if nu_minus > nu_plus:
        raise InvariantViolation("sandwich exponents out of order (transitivity broken)")
    return NormReport(
        nu_plus=nu_plus,
        nu_minus=nu_minus,
        nu=max(abs(nu_plus), abs(nu_minus)),
        base=base,
        arg=arg,
    )


def stabilization(base: Element, arg: Element, l_max: int = DEFAULT_L_MAX) -> float:
    """Per-power norm of high powers of arg: nu(base, l_max*arg) / l_max.

    Agrees with the larger of the growth rates of arg and its inverse against
    the base; the agreement is enforced within 2/l_max.
    """
    model = _additive_model_for(base)
    model._check(arg)
    report = norm(base, model.power(arg, l_max))
    stab = report.nu / l_max

    rp_fwd = rho_plus(model, base, arg, l_max).value
    rp_inv = rho_plus(model, base, model.inverse(arg), l_max).value
    target = max(abs(rp_fwd), abs(rp_inv))
    if abs(stab - target) > 2.0 / l_max:
        raise InvariantViolation(
            f"stabilization {stab} disagrees with growth-rate value {target} beyond 2/{l_max}"
        )
    return stab
