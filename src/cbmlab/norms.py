"""Order-derived norms on the additive grid group and their stabilization.

A multiplicative element is its one site [ln v], so its norm is the one-site
norm in logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolation
from .ordered import DEFAULT_L_MAX, Element, OrderedModel, min_power, rho_plus


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


def norm(base: Element, arg: Element) -> NormReport:
    """Norm of arg relative to a dominant base.

    The least k with k*base >= arg and the greatest l with arg >= l*base
    both come from the exact order oracle through min_power, so each from
    one certified Farey bracket: nu_plus is min_power(arg) and nu_minus is
    -min_power(-arg). At l = 1 each bracket is the threshold's integer part
    and its two certificate calls, in O(sites) memory; a ratio beyond the
    search bound raises SearchBoundError before any closed form is evaluated.
    The oracle also checks arg's site count and raises PreconditionError for
    a base that is not dominant.

    The closed forms ceil(sup(arg/base)) and floor(inf(arg/base)) cross-check
    them on the float ratios, at the strength monotone rounding permits:
    nu_plus - 1 <= max(ratio) <= nu_plus and nu_minus <= min(ratio) <= nu_minus + 1.
    """
    model = OrderedModel.additive(base.data.size)
    nu_plus = min_power(model, base, arg, 1)
    nu_minus = -min_power(model, base, model.inverse(arg), 1)

    ratio = arg.data / base.data
    hi, lo = float(ratio.max()), float(ratio.min())
    if not (nu_plus - 1 <= hi <= nu_plus and nu_minus <= lo <= nu_minus + 1):
        raise InvariantViolation(
            f"norm closed-form ratios [{lo}, {hi}] disagree with "
            f"oracle search ({nu_plus}, {nu_minus})"
        )
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
    if l_max < 1:
        raise InvalidInputError("l_max must be a positive integer")
    model = OrderedModel.additive(base.data.size)
    report = norm(base, model.power(arg, l_max))
    stab = report.nu / l_max

    rp_fwd = rho_plus(model, base, arg, l_max).pair_infimum
    rp_inv = rho_plus(model, base, model.inverse(arg), l_max).pair_infimum
    target = max(abs(rp_fwd), abs(rp_inv))
    if abs(stab - target) > 2.0 / l_max:
        raise InvariantViolation(
            f"stabilization {stab} disagrees with growth-rate value {target} beyond 2/{l_max}"
        )
    return stab
