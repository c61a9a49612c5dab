"""Order-derived norms on the additive grid group and their stabilization.

A multiplicative element is its one site [ln v], so its norm is the one-site
norm in logs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, checked_int
from .ordered import DEFAULT_L_MAX, Element, OrderedModel, growth_brackets


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
    both come from the exact order oracle, in one site pass: nu_plus is the
    least exponent of arg at l = 1 and -nu_minus that of -arg, off the two
    brackets of growth_brackets(base, arg, 1, negated=True). Each is the
    threshold's integer part and its two certificate calls, in O(sites)
    memory; a ratio beyond the search bound raises InvalidInputError before
    any closed form is checked. The oracle also checks arg's site count and
    raises InvalidInputError for a base that is not dominant.

    growth_brackets checks each bracket against its closed form on the float
    ratios, at the strength monotone rounding permits; at n = 1 that is
    nu_plus - 1 <= max(arg/base) <= nu_plus and
    nu_minus <= min(arg/base) <= nu_minus + 1.
    """
    model = OrderedModel.additive(base.data.size)
    ((nu_plus, _), _), ((nu_negated, _), _) = growth_brackets(model, base, arg, 1, negated=True)
    nu = max(abs(nu_plus), abs(nu_negated))
    return NormReport(nu_plus=nu_plus, nu_minus=-nu_negated, nu=nu, base=base, arg=arg)


def stabilization(base: Element, arg: Element, l_max: int = DEFAULT_L_MAX) -> float:
    """Per-power norm of high powers of arg: nu(base, l_max*arg) / l_max.

    Off the brackets (p, q) and (p', q') of growth_brackets(base, arg, l_max,
    negated=True), from one site pass, the exact norm of l_max*arg is
    nu* = max(|ceil(l_max*p/q)|, |ceil(l_max*p'/q')|), and nu must lie within
    1 of it: the float power rounds l_max and each product, two roundings, so
    each site ratio is within gamma_2 relative, under 10^-3 at the search
    bound's 10^12: that window holds at most one integer.
    """
    l_max = checked_int(l_max, "l_max", least=1)
    model = OrderedModel.additive(base.data.size)
    nu = norm(base, model.power(arg, l_max)).nu
    ((p, q), _), ((p_inv, q_inv), _) = growth_brackets(model, base, arg, l_max, negated=True)
    nu_star = max(abs(-(-l_max * p // q)), abs(-(-l_max * p_inv // q_inv)))
    if abs(nu - nu_star) > 1:
        raise InvariantViolation(f"stabilization norm {nu} lies more than 1 off the exact {nu_star}")
    return nu / l_max
