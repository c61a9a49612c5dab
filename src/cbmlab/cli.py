"""Command-line front end: file I/O, subcommands, and the acceptance driver.

Exit codes: 0 success, 1 a certified inequality, qi-verify harness or
acceptance item failed, 2 malformed input; an acceptance item that raises
exits as the command would. A failed harness or item still prints its report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import acceptance, errors, norms, serialize
from .domains import (
    csh,
    dc_toric,
    dcbm_toric,
    hamiltonian_to_domain,
    is_squeezable_toric,
)
from .errors import CbmlabError, InvalidInputError, InvariantViolation
from .forms import dcbm_forms
from .ordered import Method, OrderedModel, OrderVariant, growth_distance
from .starshape import SkeletonSpec, delta, qi_verify, skeleton_region

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's int-string digit limit
        raise InvalidInputError(f"{path}: {exc}") from exc


def _emit(report: dict, out: str | None) -> None:
    text = serialize.dumps_report(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _element(model: OrderedModel, payload):
    if model.kind.name == "MULTIPLICATIVE_REALS":
        if isinstance(payload, bool) or not isinstance(payload, (int, float)):
            raise InvalidInputError("multiplicative elements are JSON numbers")
        return model.element(payload)
    return model.element(serialize.element_values_from_json(payload))


def _vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidInputError(f"bad vector literal {text!r}: {exc}") from exc


def cmd_growth(args) -> dict:
    payload_a, payload_b = _load(args.a), _load(args.b)
    variant = OrderVariant(args.variant)
    if args.model == "multiplicative":
        model = OrderedModel.multiplicative(variant)
    else:
        values = serialize.element_values_from_json(payload_a)
        model = OrderedModel.additive(values.shape[0], variant)
    a = _element(model, payload_a)
    b = _element(model, payload_b)
    report = growth_distance(
        model, a, b, l_max=args.l_max, method=Method(args.method), prime_bound=args.prime_bound
    )
    return report.to_json_dict()


def cmd_norm(args) -> dict:
    base_vals = serialize.element_values_from_json(_load(args.base))
    arg_vals = serialize.element_values_from_json(_load(args.arg))
    model = OrderedModel.additive(base_vals.shape[0])
    return norms.norm(model.element(base_vals), model.element(arg_vals)).to_json_dict()


def cmd_delta(args) -> dict:
    a = serialize.radial_set_from_dict(_load(args.a))
    b = serialize.radial_set_from_dict(_load(args.b))
    d = delta(a, b)
    return {"delta": d, "log_delta": math.log(d)}


def cmd_skeleton(args) -> dict:
    spec = SkeletonSpec(_vector(args.v), args.c0, args.target_volume)
    region = skeleton_region(spec, base_count=args.grid)
    return {
        "epsilon": spec.epsilon,
        "spoke_count": int(spec.v.size),
        "region": serialize.radial_set_to_dict(region),
    }


def cmd_qi_verify(args) -> dict:
    report = qi_verify(
        _vector(args.v),
        _vector(args.w),
        c0=args.c0,
        target_volume=args.target_volume,
        tol=args.tol,
        c1=args.c1,
        base_count=args.grid,
    )
    return report.to_json_dict()


def cmd_dcbm_toric(args) -> dict:
    u = serialize.domain_from_dict(_load(args.u))
    v = serialize.domain_from_dict(_load(args.v))
    return dcbm_toric(u, v).to_json_dict()


def cmd_dc_toric(args) -> dict:
    a = serialize.radial_set_from_dict(_load(args.a))
    b = serialize.radial_set_from_dict(_load(args.b))
    return dc_toric(a, b).to_json_dict()


def cmd_csh(args) -> dict:
    domain = serialize.domain_from_dict(_load(args.u))
    return {"csh": serialize.radial_set_to_dict(csh(domain)), "label": domain.label}


def cmd_squeezable(args) -> dict:
    domain = serialize.domain_from_dict(_load(args.u))
    return is_squeezable_toric(domain).to_json_dict()


def cmd_ham2dom(args) -> dict:
    values = serialize.element_values_from_json(_load(args.h))
    result = hamiltonian_to_domain(values)
    out = result.to_json_dict()
    out["fiber"] = serialize.radial_set_to_dict(result.fiber)
    return out


def cmd_dcbm_forms(args) -> dict:
    f1 = serialize.form_from_dict(_load(args.f1))
    f2 = serialize.form_from_dict(_load(args.f2))
    candidates = [serialize.map_from_dict(_load(path), f1.manifold) for path in args.maps]
    return dcbm_forms(f1, f2, candidates).to_json_dict()


def cmd_accept(args) -> dict:
    return acceptance.run_acceptance(
        seed=args.seed, l_max=args.l_max, prime_bound=args.prime_bound, grid=args.grid
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cbmlab",
        description=(
            "Growth rates on ordered semigroups, containment distances for "
            "star-shaped domains, and certified contact-domain/form bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--out", default=None, help="write the JSON report here")
        return p

    p = add("growth", cmd_growth, "growth-rate distance between two elements")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--model", choices=["additive", "multiplicative"], default="additive")
    p.add_argument(
        "--variant",
        choices=[v.value for v in OrderVariant],
        default=OrderVariant.NON_STRICT.value,
    )
    p.add_argument("--method", choices=[m.value for m in Method], default=Method.PAIR_INFIMUM.value)
    p.add_argument("--l-max", type=int, default=1000)
    p.add_argument("--prime-bound", type=int, default=10_000)

    p = add("norm", cmd_norm, "sandwich norm of arg relative to a dominant base")
    p.add_argument("base")
    p.add_argument("arg")

    p = add("delta", cmd_delta, "containment distance of two radial sets")
    p.add_argument("a")
    p.add_argument("b")

    p = add("skeleton", cmd_skeleton, "build a normalized spoke-skeleton region")
    p.add_argument("--v", required=True, help="comma-separated spoke exponents (length 2k)")
    p.add_argument("--c0", type=float, default=10.0)
    p.add_argument("--target-volume", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=1024)

    p = add("qi-verify", cmd_qi_verify, "check one quasi-isometry pair")
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--c0", type=float, default=10.0)
    p.add_argument("--target-volume", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--c1", type=float, default=1.5)
    p.add_argument("--grid", type=int, default=1024)

    p = add("dcbm-toric", cmd_dcbm_toric, "certified distance bracket of two toric domains")
    p.add_argument("u")
    p.add_argument("v")

    p = add("dc-toric", cmd_dc_toric, "coarse containment distance of two fibers")
    p.add_argument("a")
    p.add_argument("b")

    p = add("csh", cmd_csh, "toric shape invariant of a split domain")
    p.add_argument("u")

    p = add("squeezable", cmd_squeezable, "squeezability certificate for a toric domain")
    p.add_argument("u")

    p = add("ham2dom", cmd_ham2dom, "domain of a positive autonomous Hamiltonian")
    p.add_argument("h")

    p = add("dcbm-forms", cmd_dcbm_forms, "one-sided distance bounds between contact forms")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--maps", nargs="*", default=[], help="candidate map JSON files")

    p = add("accept", cmd_accept, "run the seeded acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--l-max", type=int, default=1000)
    p.add_argument("--prime-bound", type=int, default=10_000)
    p.add_argument("--grid", type=int, default=1024)

    return parser


def _exit_code(error: type) -> int:
    """1 for a failed check, 2 for any other package error (malformed input,
    or an input past a bound or precondition)."""
    return EXIT_ASSERTION if issubclass(error, InvariantViolation) else EXIT_INPUT


def _accept_exit_code(report: dict) -> int:
    """The greatest exit code over the failed items, each by the class name its
    error is recorded under; a failed check counts as an InvariantViolation."""
    failed = [item for item in report["items"] if not item["passed"]]
    names = [item.get("error", "InvariantViolation").split(":")[0] for item in failed]
    return max((_exit_code(getattr(errors, name, CbmlabError)) for name in names), default=EXIT_OK)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        _emit(report, args.out)  # rendering rejects a non-finite number the inputs let through
    except CbmlabError as exc:
        code = _exit_code(type(exc))
        sys.stderr.write(f"{'assertion failed' if code == EXIT_ASSERTION else 'error'}: {exc}\n")
        return code
    if args.command == "accept":
        return _accept_exit_code(report)
    return EXIT_ASSERTION if args.command == "qi-verify" and not report["pass"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
