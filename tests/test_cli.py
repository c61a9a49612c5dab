import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmlab import acceptance
from cbmlab.cli import main
from cbmlab.errors import InvariantViolation, SearchBoundError
from cbmlab.serialize import domain_to_dict, dumps_report, form_to_dict, radial_set_to_dict
from cbmlab.domains import SplitToricDomain
from cbmlab.forms import ContactFormRep, SampledManifold
from cbmlab.starshape import DirectionGrid, ball

GRID = DirectionGrid.uniform_circle(128)


def write(path, payload):
    path.write_text(dumps_report(payload) if isinstance(payload, dict) else json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_delta_on_nested_balls(tmp_path, capsys):
    a = write(tmp_path / "a.json", radial_set_to_dict(ball(1.0, GRID)))
    b = write(tmp_path / "b.json", radial_set_to_dict(ball(2.0, GRID)))
    code, report = run(capsys, "delta", a, b)
    assert code == 0
    assert report["delta"] == 2.0
    assert report["log_delta"] == math.log(2.0)


def test_dcbm_toric_self_is_zero(tmp_path, capsys):
    u = write(tmp_path / "u.json", domain_to_dict(SplitToricDomain(2, ball(1.5, GRID))))
    code, report = run(capsys, "dcbm-toric", u, u)
    assert code == 0
    assert report["lower"] == 0.0
    assert report["upper"] == 0.0


def test_growth_additive(tmp_path, capsys):
    a = write(tmp_path / "a.json", [1.0, 1.0, 1.0])
    b = write(tmp_path / "b.json", [2.0, 2.0, 2.0])
    code, report = run(capsys, "growth", a, b, "--l-max", "100")
    assert code == 0
    assert report["rho_plus"] == 2.0
    assert report["distance"] == math.log(2.0)
    assert report["method"] == "pair-infimum"


def test_norm_subcommand(tmp_path, capsys):
    base = write(tmp_path / "base.json", [1.0, 1.0])
    arg = write(tmp_path / "arg.json", [2.5, 2.5])
    code, report = run(capsys, "norm", base, arg)
    assert code == 0
    assert (report["nu_plus"], report["nu_minus"], report["nu"]) == (3, 2, 3)


def test_prime_pairs_without_a_pair_exits_two(tmp_path, capsys):
    a = write(tmp_path / "a.json", 2.0)
    b = write(tmp_path / "b.json", 1000.0)
    code = main(
        ["growth", a, b, "--model", "multiplicative", "--method", "prime-pairs", "--prime-bound", "3"]
    )
    assert code == 2
    assert "no prime ordering pair" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, arg, expected",
    [
        # 25.994494459100192 / 1.2378330694809616 is just below 21 and rounds onto it
        (1.2378330694809616, 25.994494459100192, (21, 20, 21)),
        # the least subnormal over the base underflows to -0.0
        (9.136280215049444, -5e-324, (0, -1, 1)),
    ],
)
def test_norm_of_a_ratio_that_rounds_onto_an_integer(base, arg, expected, tmp_path, capsys):
    base_path = write(tmp_path / "base.json", [base])
    arg_path = write(tmp_path / "arg.json", [arg])
    code, report = run(capsys, "norm", base_path, arg_path)
    assert code == 0
    assert (report["nu_plus"], report["nu_minus"], report["nu"]) == expected


def test_norm_finds_least_exponents_up_to_the_search_bound(tmp_path, capsys):
    # least exponents between 2^39 + 1 and 10^12 lie inside the bound, though
    # a doubling from 1 passes 10^12 before it brackets them
    base = write(tmp_path / "base.json", [1.0])
    for ratio in (6e11, 1e12):
        code, report = run(capsys, "norm", base, write(tmp_path / "arg.json", [ratio]))
        assert code == 0
        assert (report["nu_plus"], report["nu_minus"], report["nu"]) == (int(ratio), int(ratio), int(ratio))
    assert main(["norm", base, write(tmp_path / "arg.json", [1.5e12])]) == 2
    assert "exponent search exceeded bound 1000000000000" in capsys.readouterr().err


def test_norm_with_tiny_base_exits_two(tmp_path, capsys):
    arg = write(tmp_path / "arg.json", [1.0, 1.0])
    for base_value in (1e-300, 5e-324):  # ratio 1e300, and a subnormal base
        base = write(tmp_path / "base.json", [base_value, 1.0])
        assert main(["norm", base, arg]) == 2
        assert "exceeded bound" in capsys.readouterr().err


def test_ham2dom_unit(tmp_path, capsys):
    h = write(tmp_path / "h.json", [1.0] * 64)
    code, report = run(capsys, "ham2dom", h)
    assert code == 0
    assert report["m_minus"] == 1.0
    assert all(r == 1.0 for r in report["fiber"]["radii"])


def test_csh_and_squeezable(tmp_path, capsys):
    u = write(tmp_path / "u.json", domain_to_dict(SplitToricDomain(2, ball(2.0, GRID), label="B")))
    code, report = run(capsys, "csh", u)
    assert code == 0
    assert all(r == 2.0 for r in report["csh"]["radii"])
    code, report = run(capsys, "squeezable", u)
    assert code == 0
    assert report["squeezable"] is False
    assert "contradiction" in report["certificate"]


def test_dcbm_forms_pinch(tmp_path, capsys):
    manifold = SampledManifold(np.ones(32), half_dim=2)
    f1 = ContactFormRep(manifold, np.linspace(-1, 1, 32))
    f2 = f1.rescaled(2.0)
    p1 = write(tmp_path / "f1.json", form_to_dict(f1))
    p2 = write(tmp_path / "f2.json", form_to_dict(f2))
    code, report = run(capsys, "dcbm-forms", p1, p2)
    assert code == 0
    assert abs(report["upper"] - math.log(2.0)) <= 1e-9
    assert abs(report["lower"] - math.log(2.0)) <= 1e-9
    assert report["pinched"] is True


def test_skeleton_and_qi_verify(tmp_path, capsys):
    code, report = run(capsys, "skeleton", "--v", "0,0,0,0", "--c0", "10")
    assert code == 0
    assert report["epsilon"] == 1.0 / 40.0
    code, report = run(capsys, "qi-verify", "--v", "1,0,0,0,0,0", "--w", "0,0,0,0,0,0")
    assert code == 0
    assert report["pass"] is True
    assert abs(report["log_delta"] - 1.0) < 1e-9


def test_failed_qi_harness_prints_its_report_and_exits_one(capsys):
    argv = ["qi-verify", "--v", "1.86,-0.53", "--w", "2.17,-1.56", "--c0", "1.5"]
    code, report = run(capsys, *argv, "--target-volume", "20")
    assert code == 1
    assert report["pass"] is False
    assert not report["lower"] <= report["log_delta"] <= report["upper"]


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"radii": [1, 2,')
    code = main(["delta", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_integer_literal_past_the_digit_limit_exits_two(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text("[" + "1" * 5000 + "]")
    assert main(["growth", str(big), str(big)]) == 2
    assert "digits" in capsys.readouterr().err


def test_boolean_multiplicative_element_exits_two(tmp_path, capsys):
    t = write(tmp_path / "t.json", True)
    two = write(tmp_path / "two.json", 2.0)
    for pair in ((t, two), (two, t)):
        assert main(["growth", *pair, "--model", "multiplicative"]) == 2
        assert "multiplicative elements are JSON numbers" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["csh", str(tmp_path / "nope.json")])
    assert code == 2
    assert main(["csh", str(tmp_path)]) == 2  # a directory
    (tmp_path / "latin1.json").write_bytes(b'["\xff"]')
    assert main(["ham2dom", str(tmp_path / "latin1.json")]) == 2


def test_input_precondition_exits_two(tmp_path, capsys):
    h = write(tmp_path / "h.json", [0.0] * 64)
    assert main(["ham2dom", h]) == 2


def test_failing_acceptance_item_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance, "ITEMS", [("00-forced-failure", lambda seed, cfg: {"passed": False})]
    )
    code = main(["accept", "--seed", "7", "-o", str(tmp_path / "r.json")])
    assert code == 1


def test_malformed_element_values_exit_two(tmp_path, capsys):
    good = write(tmp_path / "good.json", [1.0, 1.0])
    text = write(tmp_path / "text.json", ["x", 1])
    obj = write(tmp_path / "obj.json", {"a": 1})
    assert main(["growth", text, good]) == 2
    assert main(["growth", obj, good]) == 2
    assert main(["norm", obj, good]) == 2
    assert main(["ham2dom", obj]) == 2
    assert capsys.readouterr().err.count("error: bad grid element payload") == 4


def test_out_of_range_candidate_permutation_exits_two(tmp_path, capsys):
    manifold = SampledManifold(np.ones(3), half_dim=2)
    f = write(tmp_path / "f.json", form_to_dict(ContactFormRep(manifold, np.zeros(3))))
    m = write(tmp_path / "m.json", {"perm": [0, 1, 7]})
    assert main(["dcbm-forms", f, f, "--maps", m]) == 2
    assert "permutation" in capsys.readouterr().err


FIBER = {"dimension": 2, "radii": [1.0] * 64}
DOMAIN = {"base_dim": 2, "liouville_weight": 1.0, "fiber": FIBER, "cover": 1}
FORM = {"sites": 4, "weights": [1.0] * 4, "half_dim": 2, "f": [0.0] * 4}


@pytest.mark.parametrize(
    "command, payload, field, value",
    [
        ("delta", FIBER, "dimension", 2.5),
        ("dcbm-toric", DOMAIN, "base_dim", 2.9),
        ("dcbm-toric", DOMAIN, "cover", "3"),
        ("dcbm-toric", DOMAIN, "liouville_weight", "1"),
        ("dcbm-forms", FORM, "half_dim", 1.5),
        ("dcbm-forms", FORM, "sites", 4.7),
    ],
    ids=["dimension", "base_dim", "cover", "liouville_weight", "half_dim", "sites"],
)
def test_integer_and_number_fields_are_not_coerced(command, payload, field, value, tmp_path, capsys):
    good = write(tmp_path / "good.json", payload)
    assert main([command, good, good]) == 0
    bad = write(tmp_path / "bad.json", {**payload, field: value})
    assert main([command, bad, bad]) == 2
    assert f"{field} must be" in capsys.readouterr().err


def test_fractional_candidate_permutation_exits_two(tmp_path, capsys):
    f = write(tmp_path / "f.json", FORM)
    m = write(tmp_path / "m.json", {"perm": [0.5, 1, 2, 3]})
    assert main(["dcbm-forms", f, f, "--maps", m]) == 2
    assert "perm must be" in capsys.readouterr().err


def test_boolean_in_candidate_permutation_exits_two(tmp_path, capsys):
    f = write(tmp_path / "f.json", FORM)
    m = write(tmp_path / "m.json", {"perm": [True, 0, 2, 3]})
    assert main(["dcbm-forms", f, f, "--maps", m]) == 2
    assert "perm must be" in capsys.readouterr().err


CIRCLE = {**FIBER, "directions": DirectionGrid.uniform_circle(64).directions.tolist()}
MAP = {"perm": [0, 1, 2, 3], "g": [0.0] * 4}
# each float-array reader: (command, good payloads, the last with a boolean or string entry)
FLOAT_ARRAYS = {
    "element-bool": ("norm", [[1.0, 1.0, 2.0]] * 2, [True, 1.0, 2.0]),
    "element-str": ("norm", [[1.0, 1.0, 2.0]] * 2, ["1.5", 2.0, 3.0]),
    "hamiltonian": ("ham2dom", [[1.0] * 64], [True] + [1.0] * 63),
    "radii-bool": ("delta", [FIBER] * 2, {**FIBER, "radii": [True] + [1.0] * 63}),
    "radii-str": ("delta", [FIBER] * 2, {**FIBER, "radii": ["1.0"] + [1.0] * 63}),
    "directions": ("delta", [CIRCLE] * 2, {**CIRCLE, "directions": [[True, False]] + CIRCLE["directions"][1:]}),
    "weights": ("dcbm-forms", [FORM] * 2, {**FORM, "weights": [True, 1.0, 1.0, 1.0]}),
    "f": ("dcbm-forms", [FORM] * 2, {**FORM, "f": [False, 0.0, 0.0, 0.0]}),
    "g": ("dcbm-forms", [FORM, FORM, MAP], {**MAP, "g": [False, 0.0, 0.0, 0.0]}),
}


@pytest.mark.parametrize("case", FLOAT_ARRAYS)
def test_booleans_and_strings_in_float_arrays_exit_two(case, tmp_path, capsys):
    # each bad payload used to read as 1.0, 0.0 or the number its string spells
    command, good, bad = FLOAT_ARRAYS[case]
    assert CIRCLE["directions"][0] == [1.0, 0.0]  # so [true, false] read as a unit vector

    def argv(payloads):
        paths = [write(tmp_path / f"{i}.json", payload) for i, payload in enumerate(payloads)]
        return [command] + paths[:2] + (["--maps"] + paths[2:] if paths[2:] else [])

    assert main(argv(good)) == 0
    assert main(argv(good[:-1] + [bad])) == 2
    assert "must be an array of numbers" in capsys.readouterr().err


def test_subgraph_volume_out_of_range_exits_two(tmp_path, capsys):
    manifold = SampledManifold(np.ones(3), half_dim=2)
    tiny_form, unit_form = (ContactFormRep(manifold, np.full(3, f)) for f in (-1000.0, 0.0))
    tiny = write(tmp_path / "tiny.json", form_to_dict(tiny_form))
    unit = write(tmp_path / "unit.json", form_to_dict(unit_form))
    assert main(["dcbm-forms", tiny, unit]) == 2  # e^(-2000) underflows to a zero volume
    assert main(["dcbm-forms", unit, tiny]) == 2
    assert capsys.readouterr().err.count("volume ratio") == 2


def test_entries_that_overflow_the_oracle_exit_two(tmp_path, capsys):
    # k * 1e308 is inf for k >= 2, and inf >= inf would make the oracle hold
    a = write(tmp_path / "a.json", [1e308, 1e308])
    b = write(tmp_path / "b.json", [1e307, 1e308])
    assert main(["growth", a, b, "--l-max", "50"]) == 2
    assert "magnitude" in capsys.readouterr().err


def test_half_dim_beyond_a_double_exits_two(tmp_path, capsys):
    form = {"weights": [1.0, 1.0, 1.0], "half_dim": 10**400, "f": [0.0, 0.5, 1.0]}
    f = write(tmp_path / "f.json", form)
    assert main(["dcbm-forms", f, f]) == 2
    assert "half dimension" in capsys.readouterr().err


def test_sphere_area_beyond_a_double_exits_two(tmp_path, capsys):
    # the area underflows a normal double from dimension 439; 64 basis vectors
    # pass the grid's direction floor
    fiber = {"dimension": 439, "radii": [1.0] * 64, "directions": np.eye(64, 439).tolist()}
    a = write(tmp_path / "a.json", fiber)
    assert main(["delta", a, a]) == 2
    assert "sphere area" in capsys.readouterr().err


def test_radial_set_below_dimension_two_without_directions_exits_two(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"dimension": 1, "radii": [1.0] * 64})
    assert main(["delta", a, a]) == 2
    assert capsys.readouterr().err == (
        "error: dimension must lie in [2, 12] when directions are omitted, got 1\n"
    )


def form(f):
    return {"weights": [1.0, 1.0], "half_dim": 2, "f": f}


# inputs whose result overflows a double at the named site; each is rejected with exit 2
OVERFLOWS = {
    "w_alpha_volume": (["dcbm-forms", "@0", "@1"], [form([700, 0]), form([-700, 0])]),
    "dcbm_forms_upper": (
        ["dcbm-forms", "@0", "@1"],
        [form([1e308, 1e308]), form([-1e308, -1e308])],
    ),
    "pullback": (
        ["dcbm-forms", "@0", "@0", "--maps", "@1"],
        [form([1e308, 1e308]), {"perm": [0, 1], "g": [1e308, 1e308]}],
    ),
    "hamiltonian_to_domain": (["ham2dom", "@0"], [[1e-310] + [1.0] * 63]),
    "_radial_delta": (
        ["delta", "@0", "@1"],
        [{"dimension": 2, "radii": [r] * 64} for r in (1e308, 1e-308)],
    ),
}


@pytest.mark.parametrize("site", sorted(OVERFLOWS))
def test_overflow_on_an_exit_two_path_prints_one_error_line(site, tmp_path, capsys):
    command, payloads = OVERFLOWS[site]
    paths = [write(tmp_path / f"{i}.json", payload) for i, payload in enumerate(payloads)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would print before the error line
        assert main([fill(arg, paths, (), ()) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sphere_area_past_the_gamma_overflow_loads(tmp_path, capsys):
    # gamma(200) overflows, but the area in dimension 400 is a normal double
    fiber = {"dimension": 400, "radii": [1.0] * 64, "directions": np.eye(64, 400).tolist()}
    a = write(tmp_path / "a.json", fiber)
    code, report = run(capsys, "delta", a, a)
    assert code == 0
    assert report["delta"] == 1.0


def growth_files(tmp_path):
    # rho_plus = max(b/a) = 5/3 and rho_minus = max(a/b) = 4, so the extreme
    # least exponent at l_max is 4 * l_max
    a = write(tmp_path / "a.json", [1.0, 2.0, 0.75])
    b = write(tmp_path / "b.json", [1.5, 0.5, 1.25])
    return a, b


def test_prime_bound_past_the_table_cap_exits_two(tmp_path, capsys):
    a, b = growth_files(tmp_path)
    argv = ["growth", a, b, "--method", "prime-pairs", "--prime-bound", str(10**20)]
    assert main(argv) == 2
    assert "prime bound" in capsys.readouterr().err


def test_skeleton_grid_past_the_cap_exits_two(capsys):
    assert main(["skeleton", "--v", "1,1,1,1", "--grid", str(10**20)]) == 2
    assert "grid count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["skeleton", "--v", "1,1,1,1", "--c0", "1e308"], "spoke lengths"),
        (["skeleton", "--v", "1,1,1,1", "--c0", "inf"], "c0"),
        (["skeleton", "--v", "1e308,1,1,1"], "spoke lengths"),
        (["skeleton", "--v", "0,0,0,0", "--c0", "1e200"], "corner angle"),
        (["skeleton", "--v", "0,0,0,0", "--target-volume", "1e-320"], "width"),
        (["skeleton", "--v=-1000,-1000,-1000,-1000"], "width"),
        (["skeleton", "--v", "0,0,0,0", "--target-volume", "inf"], "target volume"),
        (["qi-verify", "--v", "1,1,1,1", "--w", "1,2,1,1", "--c1", "0"], "c1"),
        (["qi-verify", "--v", "1,1,1,1", "--w", "1,2,1,1", "--c1", "-1"], "c1"),
        (["qi-verify", "--v", "1,1,1,1", "--w", "1,2,1,1", "--c1", "inf"], "c1"),
        (["qi-verify", "--v", "1,1,1,1", "--w", "1,2,1,1", "--tol", "nan"], "tol"),
        (["qi-verify", "--v", "1,1,1,1", "--w", "1,2,1,1", "--tol", "inf"], "tol"),
    ],
)
def test_skeleton_and_qi_verify_flags_out_of_range_exit_two(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--grid", str(10**20)),
        ("--grid", "63"),
        ("--prime-bound", str(10**8 + 1)),
        ("--prime-bound", "1"),
        ("--l-max", "0"),
        # Philox keys are exact only for seeds in [0, 2^63 - 1]
        ("--seed", str(2**64)),
        ("--seed", str(2**64 - 1)),
        ("--seed", str(2**63 + 1)),
        ("--seed", "-1"),
    ],
)
def test_malformed_accept_configuration_exits_two_before_any_item(flag, value, capsys, monkeypatch):
    ran = []
    items = [("01-runs", lambda seed, cfg: ran.append(seed) or {"passed": True})]
    monkeypatch.setattr(acceptance, "ITEMS", items)
    assert main(["accept", f"{flag}={value}"]) == 2
    assert ran == []
    assert capsys.readouterr().out == ""


@settings(max_examples=50, deadline=None)
@given(st.integers(max_value=-1) | st.integers(min_value=2**63))
def test_seed_outside_the_philox_key_range_exits_two(seed):
    # valid seeds run the whole suite, so only seeds outside the range are drawn
    ran = []
    items = [("01-runs", lambda seed, cfg: ran.append(seed) or {"passed": True})]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()):
        mp.setattr(acceptance, "ITEMS", items)
        assert main(["accept", f"--seed={seed}"]) == 2
    assert ran == []


def test_prime_pairs_with_a_non_positive_l_max_exits_two(tmp_path, capsys):
    # the product check divides by l_max, which the prime-pair method does not use otherwise
    a, b = growth_files(tmp_path)
    for l_max in ("0", "-1"):
        assert main(["growth", a, b, "--method", "prime-pairs", "--l-max", l_max]) == 2
    assert capsys.readouterr().err.count("l_max") == 2


def test_l_max_with_exponents_inside_the_search_bound(tmp_path, capsys):
    a, b = growth_files(tmp_path)
    code, report = run(capsys, "growth", a, b, "--l-max", str(10**11))
    assert code == 0
    assert (report["rho_plus"], report["rho_minus"]) == (5 / 3, 4.0)


def test_l_max_with_exponents_past_the_search_bound_exits_two(tmp_path, capsys):
    a, b = growth_files(tmp_path)
    for l_max in (10**12, 10**20):
        assert main(["growth", a, b, "--l-max", str(l_max)]) == 2
    assert capsys.readouterr().err.count("exponent search exceeded bound") == 2


def test_nan_fiber_direction_exits_two(tmp_path, capsys):
    payload = domain_to_dict(SplitToricDomain(2, ball(1.0, GRID)))
    directions = GRID.directions.tolist()
    directions[5] = [math.nan, math.nan]
    payload["fiber"]["directions"] = directions
    u = tmp_path / "u.json"
    u.write_text(json.dumps(payload, default=lambda a: a.tolist()))  # json writes NaN
    assert main(["squeezable", str(u)]) == 2
    assert "unit vectors" in capsys.readouterr().err


def test_consecutive_calls_match_fresh_processes(tmp_path, capsys):
    n = 32
    manifold = SampledManifold(np.ones(n), half_dim=2)
    f1 = ContactFormRep(manifold, np.linspace(-1, 1, n))
    f2 = ContactFormRep(manifold, f1.f[::-1])  # the reversal map pulls f2 back to f1
    p1 = write(tmp_path / "f1.json", form_to_dict(f1))
    p2 = write(tmp_path / "f2.json", form_to_dict(f2))
    m = write(tmp_path / "m.json", {"perm": list(range(n))[::-1]})
    a = write(tmp_path / "a.json", radial_set_to_dict(ball(1.0, GRID)))
    b = write(tmp_path / "b.json", radial_set_to_dict(ball(2.0, GRID)))
    commands = [
        ["dcbm-forms", p1, p2, "--maps", m],
        ["dcbm-forms", p1, p2],  # the parser's --maps default must not carry the map over
        ["skeleton", "--v", "0,1,0,0", "--grid", "64"],
        ["delta", a, b],
        ["qi-verify", "--v", "1,0", "--w", "0,0", "--grid", "64"],
    ]
    in_process = []
    for argv in commands:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out)
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "cbmlab.cli", *argv], capture_output=True, text=True, check=True
        ).stdout
        for argv in commands
    ]
    assert in_process == fresh
    assert json.loads(in_process[0])["upper"] == 0.0
    assert json.loads(in_process[1])["upper"] == 2.0


def raising(error):
    def item(seed, cfg):
        raise error

    return item


def test_raising_acceptance_item_is_recorded_and_the_rest_run(tmp_path, capsys, monkeypatch):
    # a raising item exits as its command would: 2 for a search bound the
    # configuration passes, as in `growth`, and 1 for a failed check
    out = tmp_path / "r.json"
    bound, violation = SearchBoundError(10), InvariantViolation("forced")
    for error, code in [(bound, 2), (violation, 1)]:
        items = [("01-raises", raising(error)), ("02-passes", lambda seed, cfg: {"passed": True})]
        monkeypatch.setattr(acceptance, "ITEMS", items)
        assert main(["accept", "--seed", "7", "-o", str(out)]) == code
        report = json.loads(out.read_text())
        assert report["items"] == [
            {"name": "01-raises", "passed": False, "error": f"{type(error).__name__}: {error}"},
            {"name": "02-passes", "passed": True},
        ]
        assert report["passed"] is False
    # the greatest code over the failed items wins
    fails = ("03-fails", lambda seed, cfg: {"passed": False})
    for errors, code in [([violation], 1), ([violation, bound], 2)]:
        items = [(f"0{i}-raises", raising(e)) for i, e in enumerate(errors)] + [fails]
        monkeypatch.setattr(acceptance, "ITEMS", items)
        assert main(["accept", "--seed", "7", "-o", str(out)]) == code


NUMBERS = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=8,
)
THREE = st.lists(NUMBERS, min_size=3, max_size=3)
# 64 entries pass the direction-grid floor; cycling a few drawn values keeps
# the draws cheap
SITES_64 = st.lists(NUMBERS, min_size=1, max_size=4).map(lambda xs: (xs * 64)[:64])
RADIAL = st.fixed_dictionaries(
    {"dimension": st.integers(-1, 4), "radii": SITES_64},
    optional={"directions": ANY_JSON},
)
# payloads shaped like each schema, so the search also reaches the checks
# behind the parsers
SHAPED = st.one_of(
    st.lists(NUMBERS, min_size=1, max_size=4),
    SITES_64,
    RADIAL,
    st.fixed_dictionaries(
        {"base_dim": NUMBERS, "fiber": RADIAL}, optional={"liouville_weight": NUMBERS}
    ),
    st.fixed_dictionaries({"weights": THREE, "half_dim": NUMBERS, "f": THREE}),
    st.fixed_dictionaries({"perm": THREE}),
)
# "@i" stands for the file holding the i-th payload
COMMANDS = [
    ["growth", "@0", "@1", "--l-max", "50"],
    ["growth", "@0", "@1", "--l-max", "50", "--model", "multiplicative"],
    ["norm", "@0", "@1"],
    ["delta", "@0", "@1"],
    ["dcbm-toric", "@0", "@1"],
    ["dc-toric", "@0", "@1"],
    ["csh", "@0"],
    ["squeezable", "@0"],
    ["ham2dom", "@0"],
    ["dcbm-forms", "@0", "@1", "--maps", "@2"],
    # "#i" stands for the i-th drawn flag value
    ["growth", "@0", "@1", "--l-max", "#0"],
    ["growth", "@0", "@1", "--method", "prime-pairs", "--prime-bound", "#0", "--l-max", "#1"],
    ["growth", "@0", "@1", "--model", "multiplicative", "--method", "limit-sequence", "--l-max", "#0"],
    ["skeleton", "--v", "1,0,0,1", "--grid", "#0"],
    ["qi-verify", "--v", "1,0", "--w", "0,0", "--grid", "#0"],
    # "%i" stands for the i-th drawn real flag value
    ["skeleton", "--v", "1,0,0,1", "--grid", "64", "--c0=%0", "--target-volume=%1"],
    ["qi-verify", "--v", "1,0", "--w", "0,0", "--grid", "64", "--c0=%0", "--c1=%1", "--tol=%2"],
]
# numeric flag values that finish fast or fail fast: a prime bound or grid
# count above its cap is rejected before anything is allocated, and the
# growth rates cost O(log l_max) oracle calls
FLAG_VALUES = st.integers(-3, 10**4) | st.integers(10**8 + 1, 10**30)
# real flags: any double, the non-finite ones included, and the edges of their ranges
REAL_FLAG_VALUES = st.floats() | st.sampled_from(
    [0.0, -0.0, -1.0, 1.0, math.inf, -math.inf, math.nan]
)


def fill(arg, paths, flags, reals):
    """One argument of a COMMANDS template with its drawn value put in."""
    if arg[0] == "@":
        return paths[int(arg[1:])]
    if arg[0] == "#":
        return str(flags[int(arg[1:])])
    name, sep, index = arg.partition("=%")  # "=" keeps a value such as -inf off the option list
    return f"{name}={reals[int(index)]!r}" if sep else arg


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    payloads=st.lists(ANY_JSON | SHAPED, min_size=3, max_size=3),
    flags=st.lists(FLAG_VALUES, min_size=2, max_size=2),
    reals=st.lists(REAL_FLAG_VALUES, min_size=3, max_size=3),
)
def test_any_json_payload_keeps_the_exit_code_contract(command, payloads, flags, reals):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, payload in enumerate(payloads):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        argv = [fill(arg, paths, flags, reals) for arg in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)


def test_output_file_argument(tmp_path, capsys):
    a = write(tmp_path / "a.json", radial_set_to_dict(ball(1.0, GRID)))
    out = tmp_path / "report.json"
    code = main(["delta", a, a, "-o", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["delta"] == 1.0
