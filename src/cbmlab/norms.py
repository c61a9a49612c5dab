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
    memory; a ratio beyond the search bound raises SearchBoundError before
    any closed form is checked. The oracle also checks arg's site count and
    raises PreconditionError for a base that is not dominant.

    growth_brackets checks each bracket against its closed form on the float
    ratios, at the strength monotone rounding permits; at n = 1 that is
    nu_plus - 1 <= max(arg/base) <= nu_plus and
    nu_minus <= min(arg/base) <= nu_minus + 1.
    """
    model = OrderedModel.additive(base.data.size)
    ((nu_plus, _), _), ((nu_negated, _), _) = growth_brackets(model, base, arg, 1, negated=True)
    nu_minus = -nu_negated
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
    the base, the pair infima of growth_brackets(base, arg, l_max,
    negated=True) from one site pass; the agreement is enforced within
    2/l_max.
    """
    l_max = checked_int(l_max, "l_max", least=1)
    model = OrderedModel.additive(base.data.size)
    report = norm(base, model.power(arg, l_max))
    stab = report.nu / l_max

    ((p, q), _), ((p_inv, q_inv), _) = growth_brackets(model, base, arg, l_max, negated=True)
    target = max(abs(p / q), abs(p_inv / q_inv))
    if abs(stab - target) > 2.0 / l_max:
        raise InvariantViolation(
            f"stabilization {stab} disagrees with growth-rate value {target} beyond 2/{l_max}"
        )
    return stab
