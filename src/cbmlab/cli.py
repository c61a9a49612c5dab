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

from . import acceptance, norms, serialize
from .domains import csh, dcbm_toric, hamiltonian_to_domain
from .errors import CbmlabError, InvalidInputError, InvariantViolation
from .forms import dcbm_forms
from .ordered import (
    DEFAULT_L_MAX,
    DEFAULT_PRIME_BOUND,
    Element,
    Method,
    OrderedModel,
    OrderVariant,
    growth_distance,
    min_power,
)
from .starshape import DEFAULT_C0, DEFAULT_C1, DEFAULT_GRID_COUNT, DEFAULT_TARGET_VOLUME, DEFAULT_TOL
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
    except RecursionError as exc:
        raise InvalidInputError(f"{path}: JSON nested too deeply") from exc


def _emit(report: dict, out: str | None) -> None:
    text = serialize.dumps_report(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no write permission: as _load reports it
            raise InvalidInputError(f"{out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidInputError(f"bad vector literal {text!r}: {exc}") from exc


def _pair(path_a: str, path_b: str, variant: OrderVariant) -> tuple[OrderedModel, Element, Element]:
    """The elements of files a and b and their model: a JSON number in file a
    is a multiplicative element, any other payload a grid element."""
    payload_a, payload_b = _load(path_a), _load(path_b)
    if type(payload_a) in (int, float):  # a JSON boolean decodes to bool, which is no number here
        model = OrderedModel.multiplicative(variant)
        return model, model.element(payload_a), model.element(payload_b)
    values = serialize.element_values_from_json(payload_a)
    model = OrderedModel.additive(values.shape[0], variant)
    return model, model.element(values), model.element(serialize.element_values_from_json(payload_b))


def cmd_growth(args) -> dict:
    model, a, b = _pair(args.a, args.b, OrderVariant(args.variant))
    report = growth_distance(
        model, a, b, l_max=args.l_max, method=Method(args.method), prime_bound=args.prime_bound
    )
    return report.to_json_dict()


def cmd_min_power(args) -> dict:
    model, a, b = _pair(args.a, args.b, OrderVariant(args.variant))
    return {"l": args.l, "min_power": min_power(model, a, b, args.l)}


def cmd_norm(args) -> dict:
    _, base, arg = _pair(args.base, args.arg, OrderVariant.NON_STRICT)
    return norms.norm(base, arg).to_json_dict()


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


def cmd_csh(args) -> dict:
    domain = serialize.domain_from_dict(_load(args.u))
    return {"csh": serialize.radial_set_to_dict(csh(domain)), "label": domain.label}


def cmd_ham2dom(args) -> dict:
    result = hamiltonian_to_domain(_load(args.h))
    out = result.to_json_dict()
    out["fiber"] = serialize.radial_set_to_dict(result.fiber)
    return out


def cmd_dcbm_forms(args) -> dict:
    f1 = serialize.form_from_dict(_load(args.f1))
    f2 = serialize.form_from_dict(_load(args.f2))
    candidates = [serialize.map_from_dict(_load(path), f1.manifold) for path in args.maps]
    return dcbm_forms(f1, f2, candidates).to_json_dict()


def cmd_accept(args) -> dict:
    return acceptance.run_acceptance(seed=args.seed)


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

    def add_pair(name, fn, help_text):
        p = add(name, fn, help_text)
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument(
            "--variant",
            choices=[v.value for v in OrderVariant],
            default=OrderVariant.NON_STRICT.value,
        )
        return p

    p = add_pair("growth", cmd_growth, "growth-rate distance between two elements")
    p.add_argument("--method", choices=[m.value for m in Method], default=Method.PAIR_INFIMUM.value)
    p.add_argument("--l-max", type=int, default=DEFAULT_L_MAX)
    p.add_argument("--prime-bound", type=int, default=DEFAULT_PRIME_BOUND)

    p = add_pair("min-power", cmd_min_power, "least k with a^k >= b^l, for a dominant a")
    p.add_argument("--l", type=int, default=1)

    p = add("norm", cmd_norm, "sandwich norm of arg relative to a dominant base")
    p.add_argument("base")
    p.add_argument("arg")

    p = add("delta", cmd_delta, "containment distance of two radial sets")
    p.add_argument("a")
    p.add_argument("b")

    vector = "comma-separated spoke exponents (length 2k); --v=-0.5,1,0,2 if the first is negative"

    def add_skeleton(name, fn, help_text):
        p = add(name, fn, help_text)
        p.add_argument("--v", required=True, help=vector)
        p.add_argument("--c0", type=float, default=DEFAULT_C0)
        p.add_argument("--target-volume", type=float, default=DEFAULT_TARGET_VOLUME)
        p.add_argument("--grid", type=int, default=DEFAULT_GRID_COUNT)
        return p

    add_skeleton("skeleton", cmd_skeleton, "build a normalized spoke-skeleton region")

    p = add_skeleton("qi-verify", cmd_qi_verify, "check one quasi-isometry pair")
    p.add_argument("--w", required=True, help=vector.replace("--v", "--w"))
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--c1", type=float, default=DEFAULT_C1)

    p = add("dcbm-toric", cmd_dcbm_toric, "certified distance bracket of two toric domains")
    p.add_argument("u")
    p.add_argument("v")

    p = add("csh", cmd_csh, "toric shape invariant of a split domain")
    p.add_argument("u")

    p = add("ham2dom", cmd_ham2dom, "domain of a positive autonomous Hamiltonian")
    p.add_argument("h")

    p = add("dcbm-forms", cmd_dcbm_forms, "one-sided distance bounds between contact forms")
    p.add_argument("f1")
    p.add_argument("f2")
    p.add_argument("--maps", nargs="*", default=[], help="candidate map JSON files")

    p = add("accept", cmd_accept, "run the seeded acceptance suite")
    p.add_argument("--seed", type=int, default=7)

    return parser


def _exit_code(name: str) -> int:
    """The exit code of a package error by its class name: 1 for a failed
    check (InvariantViolation), 2 for any other (InvalidInputError)."""
    return EXIT_ASSERTION if name == InvariantViolation.__name__ else EXIT_INPUT


def _accept_exit_code(report: dict) -> int:
    """The greatest exit code over the failed items, each by the class name its
    error is recorded under, a failed check counting as an InvariantViolation."""
    failed = [item for item in report["items"] if not item["passed"]]
    names = [item.get("error", InvariantViolation.__name__).split(":")[0] for item in failed]
    return max(map(_exit_code, names), default=EXIT_OK)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args)
        _emit(report, args.out)  # rendering rejects a non-finite number the inputs let through
    except CbmlabError as exc:
        code = _exit_code(type(exc).__name__)
        sys.stderr.write(f"{'assertion failed' if code == EXIT_ASSERTION else 'error'}: {exc}\n")
        return code
    if args.command == "accept":
        return _accept_exit_code(report)
    return EXIT_ASSERTION if args.command == "qi-verify" and not report["pass"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
