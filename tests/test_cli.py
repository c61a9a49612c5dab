import contextlib
import io
import json
import math
import os
import resource
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
from cbmlab.errors import InvalidInputError, InvariantViolation
from cbmlab.forms import ContactFormRep, SampledManifold, dcbm_forms
from cbmlab.serialize import dumps_report, radial_set_to_dict
from cbmlab.starshape import DirectionGrid, ball
from test_starshape import OFF_UNIT_ROWS

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
    u = write(tmp_path / "u.json", {"base_dim": 2, "fiber": radial_set_to_dict(ball(1.5, GRID))})
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


def test_min_power_subcommand(tmp_path, capsys):
    a = write(tmp_path / "a.json", [1.0, 2.0])
    b = write(tmp_path / "b.json", [2.5, 1.0])
    # ceil(3 * 2.5); the strict order fails at 5/2, where only the first site is equal
    for flags, expected in (([], {"l": 1, "min_power": 3}), (["--l", "3"], {"l": 3, "min_power": 8})):
        assert run(capsys, "min-power", a, b, *flags) == (0, expected)
    assert run(capsys, "min-power", a, b, "--l", "2", "--variant", "strict-positive") == (0, {"l": 2, "min_power": 6})
    assert main(["min-power", a, b, "--l", "0"]) == 2
    assert main(["min-power", b, write(tmp_path / "c.json", [0.0, 1.0])]) == 0  # b need not be dominant
    assert main(["min-power", write(tmp_path / "c.json", [0.0, 1.0]), a]) == 2


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


def test_ham2dom_with_too_few_samples_names_them(tmp_path, capsys):
    assert main(["ham2dom", write(tmp_path / "h.json", [1.0] * 8)]) == 2
    assert capsys.readouterr().err == "error: hamiltonian sample count must be an integer in [64, 1000000], got 8\n"


def test_a_default_grid_with_too_few_radii_names_them(tmp_path, capsys):
    r = write(tmp_path / "r.json", {"dimension": 2, "radii": [1.0, 2.0]})
    assert main(["delta", r, r]) == 2
    assert capsys.readouterr().err == "error: radii count must be an integer in [64, 1000000], got 2\n"


def test_csh_of_a_ball_is_its_fiber(tmp_path, capsys):
    u = write(tmp_path / "u.json", {"base_dim": 2, "fiber": radial_set_to_dict(ball(2.0, GRID)), "label": "B"})
    code, report = run(capsys, "csh", u)
    assert code == 0
    assert all(r == 2.0 for r in report["csh"]["radii"])


@pytest.mark.parametrize("command", ["dc-toric", "squeezable"])
def test_retired_subcommands_are_invalid_choices(command, capsys):
    with pytest.raises(SystemExit) as exited:
        main([command, "u.json"])
    assert exited.value.code == 2
    assert f"argument command: invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["csh", "dcbm-toric"])
def test_only_toric_domains_load(command, tmp_path, capsys):
    # liouville_weight is optional, and a weight other than 1 is not a split toric domain
    toric = {key: value for key, value in DOMAIN.items() if key != "liouville_weight"}
    for weight, code in [(None, 0), (1, 0), (0.5, 2), (0, 2), (1.5, 2)]:
        payload = toric if weight is None else {**toric, "liouville_weight": weight}
        u = write(tmp_path / "u.json", payload)
        assert main([command] + [u] * (2 if command == "dcbm-toric" else 1)) == code
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == (["error"] if code else [])


@pytest.mark.parametrize("command", ["csh", "dcbm-toric"])
def test_base_dim_must_equal_the_fiber_dimension(command, tmp_path, capsys):
    # the fiber of T^*T^n lies in R^n: a planar fiber needs base_dim 2
    for base_dim, code in [(2, 0), (1, 2), (3, 2)]:
        u = write(tmp_path / "u.json", {"base_dim": base_dim, "fiber": FIBER})
        assert main([command] + [u] * (2 if command == "dcbm-toric" else 1)) == code
        err = capsys.readouterr().err
        assert ("fiber dimension" in err) == bool(code)


def test_dcbm_forms_pinch(tmp_path, capsys):
    f1 = np.linspace(-1, 1, 32)
    p1 = write(tmp_path / "f1.json", {"weights": [1.0] * 32, "half_dim": 2, "f": f1})
    p2 = write(tmp_path / "f2.json", {"weights": [1.0] * 32, "half_dim": 2, "f": f1 + math.log(2.0)})
    code, report = run(capsys, "dcbm-forms", p1, p2)
    assert code == 0
    # the library report's bound: its tol, and the rounding of f1 + ln 2
    m = SampledManifold(np.ones(32), 2)
    tol = dcbm_forms(ContactFormRep(m, f1), ContactFormRep(m, f1 + math.log(2.0))).tol
    bound = tol + math.ulp(float(np.abs(f1 + math.log(2.0)).max())) / 2
    assert abs(report["upper"] - math.log(2.0)) <= bound
    assert abs(report["lower"] - math.log(2.0)) <= bound
    assert report["pinched"] is True


def test_skeleton_and_qi_verify(tmp_path, capsys):
    code, report = run(capsys, "skeleton", "--v", "0,0,0,0", "--c0", "10")
    assert code == 0
    assert report["epsilon"] == 1.0 / 40.0
    code, report = run(capsys, "qi-verify", "--v", "1,0,0,0,0,0", "--w", "0,0,0,0,0,0")
    assert code == 0
    assert report["pass"] is True
    assert abs(report["log_delta"] - 1.0) < 1e-9


def test_a_vector_that_starts_with_a_minus_takes_the_equals_form(capsys):
    # argparse reads "--v -0.5,1,0,2" as two options; "--v=-0.5,1,0,2" is one
    code, report = run(capsys, "skeleton", "--v=-0.5,1,0,2")
    assert code == 0
    assert report["spoke_count"] == 4
    code, report = run(capsys, "qi-verify", "--v=-1,0", "--w=0,0")
    assert code == 0
    assert report["pass"] is True


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
        assert "a multiplicative element must be a number, not bool" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["csh", str(tmp_path / "nope.json")])
    assert code == 2
    assert main(["csh", str(tmp_path)]) == 2  # a directory
    (tmp_path / "latin1.json").write_bytes(b'["\xff"]')
    assert main(["ham2dom", str(tmp_path / "latin1.json")]) == 2


def test_an_out_path_that_cannot_be_written_exits_two(tmp_path, capsys):
    # a missing directory and a directory each exit 2 with the message _load gives, not a traceback
    argv = ["qi-verify", "--v", "1,2", "--w", "1,2", "-o"]
    for out, reason in ((tmp_path / "missing" / "out.json", "No such file or directory"), (tmp_path, "Is a directory")):
        assert main([*argv, str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out}: {reason}\n"


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
    assert capsys.readouterr().err.count("error: a grid element must be an array of numbers\n") == 3


def test_a_bad_hamiltonian_sample_exits_two_with_one_message(tmp_path, capsys):
    # the samples are read once, by hamiltonian_to_domain's array contract
    for sample in (math.nan, 0.0, -1.0, "x", 5e-324):  # 1/5e-324 overflows
        h = write(tmp_path / "h.json", [sample] + [1.0] * 63)
        assert main(["ham2dom", h]) == 2
        assert capsys.readouterr().err.startswith("error: hamiltonian samples must be")
    assert main(["ham2dom", write(tmp_path / "obj.json", {"a": 1})]) == 2
    assert capsys.readouterr().err == "error: hamiltonian samples must be an array of numbers\n"


def test_out_of_range_candidate_permutation_exits_two(tmp_path, capsys):
    f = write(tmp_path / "f.json", {"weights": [1.0] * 3, "half_dim": 2, "f": [0.0] * 3})
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
        ("dcbm-toric", DOMAIN, "label", None),  # str() printed these as "None" and "True"
        ("dcbm-toric", DOMAIN, "label", True),
    ],
    ids=["dimension", "base_dim", "cover", "liouville_weight", "half_dim", "sites", "label-null", "label-true"],
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


@pytest.mark.parametrize(
    "g",
    [[-1.0] * 4, [0.0] * 4, [False, 0.0, 0.0, 0.0], None],
    ids=["below-the-volume-bound", "zero", "boolean", "null"],
)
def test_candidate_map_with_a_g_key_exits_two(g, tmp_path, capsys):
    # with g = -1 the identity map pulled f2 = 1 back onto f1 = 0, and the
    # report read upper 0 under lower 1; g is derived from perm, so no key of the schema
    f1 = write(tmp_path / "f1.json", FORM)
    f2 = write(tmp_path / "f2.json", {**FORM, "f": [1.0] * 4})
    m = write(tmp_path / "m.json", {"perm": [0, 1, 2, 3], "g": g})
    assert main(["dcbm-forms", f1, f2, "--maps", m]) == 2
    assert capsys.readouterr().err == "error: a candidate-map payload has no key 'g'\n"
    perm_only = write(tmp_path / "perm.json", {"perm": [0, 1, 2, 3]})
    code, report = run(capsys, "dcbm-forms", f1, f2, "--maps", perm_only)
    assert code == 0
    assert report == {"lower": 1.0, "pinched": True, "upper": 1.0}


def test_a_misspelled_key_exits_two(tmp_path, capsys):
    # read past, "direction" would leave the fiber on the uniform circle, not on the rows given
    rows = np.roll(GRID.directions, 5, axis=0).tolist()
    fiber = {"dimension": 2, "radii": np.linspace(1.0, 2.0, GRID.count).tolist(), "direction": rows}
    assert main(["csh", write(tmp_path / "u.json", {"base_dim": 2, "fiber": fiber})]) == 2
    assert capsys.readouterr().err == "error: a radial-set payload has no key 'direction'\n"


def test_directions_off_the_declared_dimension_exit_two(tmp_path, capsys):
    circle = write(tmp_path / "c.json", radial_set_to_dict(ball(1.0, GRID)))
    sphere_claim = write(tmp_path / "s.json", {**radial_set_to_dict(ball(1.0, GRID)), "dimension": 3})
    assert main(["delta", circle, sphere_claim]) == 2
    assert capsys.readouterr().err == "error: directions must have 3 columns, got 2\n"


# each subcommand that reads files, "@i" standing for its i-th file, with a valid payload for each
FILE_ARGUMENTS = [
    (["growth", "@0", "@1"], [[1.0, 2.0], [2.0, 1.0]]),
    (["min-power", "@0", "@1"], [[1.0, 2.0], [2.0, 1.0]]),
    (["norm", "@0", "@1"], [[1.0, 1.0], [2.0, 1.0]]),
    (["delta", "@0", "@1"], [FIBER, FIBER]),
    (["dcbm-toric", "@0", "@1"], [DOMAIN, DOMAIN]),
    (["csh", "@0"], [DOMAIN]),
    (["ham2dom", "@0"], [[1.0] * 64]),
    (["dcbm-forms", "@0", "@1", "--maps", "@2"], [FORM, FORM, {"perm": [0, 1, 2, 3]}]),
]


@pytest.mark.parametrize(
    "template, payloads, slot",
    [(template, payloads, i) for template, payloads in FILE_ARGUMENTS for i in range(len(payloads))],
    ids=[f"{template[0]}-{i}" for template, payloads in FILE_ARGUMENTS for i in range(len(payloads))],
)
def test_json_nested_past_the_recursion_limit_exits_two(template, payloads, slot, tmp_path, capsys):
    # the decoder recurses once per level; depth 100 already exits 2 as a bad payload
    paths = [write(tmp_path / f"{i}.json", payload) for i, payload in enumerate(payloads)]
    assert main([fill(arg, paths, [], []) for arg in template]) == 0
    paths[slot] = str(tmp_path / "deep.json")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert main([fill(arg, paths, [], []) for arg in template]) == 2
    err = capsys.readouterr().err
    assert "JSON nested too deeply" in err and "Traceback" not in err


CIRCLE = {**FIBER, "directions": DirectionGrid.uniform_circle(64).directions.tolist()}
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
    tiny = write(tmp_path / "tiny.json", {"weights": [1.0] * 3, "half_dim": 2, "f": [-1000.0] * 3})
    unit = write(tmp_path / "unit.json", {"weights": [1.0] * 3, "half_dim": 2, "f": [0.0] * 3})
    assert main(["dcbm-forms", tiny, unit]) == 2  # e^(-2000) underflows to a zero volume
    assert main(["dcbm-forms", unit, tiny]) == 2
    assert capsys.readouterr().err.count("volume ratio") == 2


def test_entries_near_the_float_maximum_compute(tmp_path, capsys):
    # the oracle is an exact threshold on the site ratios and never forms k * 1e308
    a = write(tmp_path / "a.json", [1e308, 1e308])
    b = write(tmp_path / "b.json", [1e307, 1e308])
    code, report = run(capsys, "growth", a, b, "--l-max", "50")
    assert code == 0
    assert (report["rho_plus"], report["rho_minus"]) == (1.0, 501 / 50)


def test_half_dim_beyond_a_double_exits_two(tmp_path, capsys):
    form = {"weights": [1.0, 1.0, 1.0], "half_dim": 10**400, "f": [0.0, 0.5, 1.0]}
    f = write(tmp_path / "f.json", form)
    assert main(["dcbm-forms", f, f]) == 2
    assert "half_dim must be an integer in [1, " in capsys.readouterr().err


def test_radial_set_of_dimension_439_loads(tmp_path, capsys):
    # no dimension cap; 64 basis vectors pass the grid's direction floor
    fiber = {"dimension": 439, "radii": [1.0] * 64, "directions": np.eye(64, 439).tolist()}
    a = write(tmp_path / "a.json", fiber)
    code, report = run(capsys, "delta", a, a)
    assert code == 0
    assert report["delta"] == 1.0


@pytest.mark.parametrize("case", list(OFF_UNIT_ROWS))
def test_directions_off_unit_norm_exit_two(case, tmp_path, capsys):
    rows = OFF_UNIT_ROWS[case]
    a = write(tmp_path / "a.json", {"dimension": rows.shape[1], "radii": [1.0] * len(rows), "directions": rows})
    assert main(["delta", a, a]) == 2
    assert capsys.readouterr().err == "error: directions must be unit vectors\n"


def test_repeated_directions_exit_two(tmp_path, capsys):
    # one direction with two radii; the planar check compares polar angles
    fiber = {"dimension": 3, "directions": [[1.0, 0.0, 0.0]] * 64, "radii": [1.0] * 63 + [2.0]}
    a = write(tmp_path / "a.json", fiber)
    assert main(["delta", a, a]) == 2
    assert "duplicate directions" in capsys.readouterr().err


def test_radial_set_below_dimension_two_without_directions_exits_two(tmp_path, capsys):
    a = write(tmp_path / "a.json", {"dimension": 1, "radii": [1.0] * 64})
    assert main(["delta", a, a]) == 2
    assert capsys.readouterr().err == (
        "error: dimension must be 2 or 3 when directions are omitted, got 1\n"
    )


@pytest.mark.parametrize("dimension", [4, 12, 13])
def test_radial_set_past_dimension_three_without_directions_exits_two(tmp_path, capsys, dimension):
    a = write(tmp_path / "a.json", {"dimension": dimension, "radii": [1.0] * 64})
    assert main(["delta", a, a]) == 2
    assert capsys.readouterr().err == (
        f"error: dimension must be 2 or 3 when directions are omitted, got {dimension}\n"
    )


def test_radial_set_in_r4_with_its_own_directions_reads(tmp_path, capsys):
    # 64 points of the Clifford torus (cos s, sin s, cos t, sin t) / sqrt(2)
    s, t = np.meshgrid(*[2.0 * math.pi * np.arange(8) / 8] * 2)
    x = np.column_stack([np.cos(s.flat), np.sin(s.flat), np.cos(t.flat), np.sin(t.flat)])
    x /= np.linalg.norm(x, axis=1)[:, None]
    a = write(tmp_path / "a.json", {"dimension": 4, "directions": x.tolist(), "radii": [1.0] * 64})
    b = write(tmp_path / "b.json", {"dimension": 4, "directions": x.tolist(), "radii": [2.0] * 64})
    code, report = run(capsys, "delta", a, b)
    assert code == 0
    assert report["delta"] == 2.0


def form(f):
    return {"weights": [1.0, 1.0], "half_dim": 2, "f": f}


# inputs whose result overflows a double at the named site; each is rejected with exit 2
OVERFLOWS = {
    "w_alpha_volume": (["dcbm-forms", "@0", "@1"], [form([700, 0]), form([-700, 0])]),
    "dcbm_forms_upper": (
        ["dcbm-forms", "@0", "@1"],
        [form([1e308, 1e308]), form([-1e308, -1e308])],
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
    # gamma(200) overflows a double; a radial set in dimension 400 still loads
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
    assert "prime_bound" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["limit-sequence", "pair-infimum", "prime-pairs"])
@pytest.mark.parametrize("bound", ["1", str(10**8 + 1)])
def test_a_prime_bound_out_of_range_exits_two_under_every_method(tmp_path, capsys, method, bound):
    a, b = growth_files(tmp_path)
    assert main(["growth", a, b, "--method", method, "--prime-bound", bound]) == 2
    assert capsys.readouterr().err == f"error: prime_bound must be an integer in [2, 100000000], got {bound}\n"


@pytest.mark.parametrize("method", ["limit-sequence", "pair-infimum", "prime-pairs"])
@pytest.mark.parametrize("bad", ["a", "b"])
def test_non_dominant_growth_input_exits_two(tmp_path, capsys, method, bad):
    good = write(tmp_path / "good.json", [1.0, 2.0])
    weak = write(tmp_path / "weak.json", [0.5, -0.25])
    files = [weak, good] if bad == "a" else [good, weak]
    assert main(["growth", *files, "--method", method, "--prime-bound", "100"]) == 2
    assert "dominant" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["limit-sequence", "pair-infimum", "prime-pairs"])
def test_a_ratio_past_the_search_bound_with_a_non_dominant_b_exits_two(tmp_path, capsys, method):
    a = write(tmp_path / "a.json", [1.0, 1.0])
    b = write(tmp_path / "b.json", [-1.0, 2e12])
    assert main(["growth", a, b, "--method", method, "--prime-bound", "100"]) == 2
    # b is rejected before any bracket meets the ratio 2e12
    assert capsys.readouterr().err == "error: the order oracle needs a dominant base; its smallest site is -1.0\n"


def test_skeleton_grid_past_the_cap_exits_two(capsys):
    assert main(["skeleton", "--v", "1,1,1,1", "--grid", str(10**20)]) == 2
    assert "grid count" in capsys.readouterr().err


def limit_address_space():
    # an allocation past the cap then fails at once instead of filling the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


@pytest.mark.parametrize("command, spokes", [("qi-verify", 1_000), ("skeleton", 20_000)])
def test_spokes_past_the_trig_sample_cap_exit_two(command, spokes):
    # the trig arrays hold (sample angles) x (spokes) entries, and there are
    # about 100 to 200 sample angles per spoke
    zeros = ",".join(["0"] * spokes)
    argv = [command, "--v", zeros] + (["--w", zeros] if command == "qi-verify" else [])
    run = subprocess.run(
        [sys.executable, "-m", "cbmlab.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=limit_address_space,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "trig samples" in run.stderr


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
        # not options of accept, whose configuration is fixed
        ("--grid", str(10**20)),
        ("--grid", "63"),
        ("--prime-bound", str(10**8 + 1)),
        ("--prime-bound", "1"),
        ("--l-max", "0"),
        pytest.param("--l-max", str(10**400), id="--l-max-10^400"),
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
    argv = ["accept", f"{flag}={value}"]
    if flag == "--seed":
        assert main(argv) == 2
    else:  # the seed is accept's one option, so argparse rejects any other whatever its value
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert ran == []
    assert capsys.readouterr().out == ""


def test_accept_takes_only_the_seed(capsys):
    with pytest.raises(SystemExit):
        main(["accept", "--help"])
    assert capsys.readouterr().out.startswith("usage: cbmlab accept [-h] [-o OUT] [--seed SEED]\n")


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
    # l_max is checked under every method, though the prime-pair method only reports it
    a, b = growth_files(tmp_path)
    for l_max in ("0", "-1"):
        assert main(["growth", a, b, "--method", "prime-pairs", "--l-max", l_max]) == 2
    assert capsys.readouterr().err.count("l_max") == 2


def test_l_max_past_the_float_range_exits_two(tmp_path, capsys):
    # no double is derived from l_max: the bracket methods meet the search
    # bound, and the prime-pair method only reports it
    a, b = growth_files(tmp_path)
    assert main(["growth", a, b, "--l-max", str(10**400)]) == 2
    assert "exponent search exceeded bound" in capsys.readouterr().err
    argv = ["growth", a, b, "--method", "prime-pairs", "--l-max"]
    (code, report), (big_code, big) = (run(capsys, *argv, l_max) for l_max in ("1000", str(10**400)))
    assert (code, big_code) == (0, 0)
    assert big == dict(report, l_max=10**400)


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


def test_a_bad_vector_literal_exits_two(capsys):
    assert main(["skeleton", "--v", "abc"]) == 2
    assert capsys.readouterr().err.startswith("error: bad vector literal 'abc': ")


def test_nan_fiber_direction_exits_two(tmp_path, capsys):
    directions = GRID.directions.tolist()
    directions[5] = [math.nan, math.nan]
    payload = {"base_dim": 2, "fiber": {"dimension": 2, "radii": [1.0] * GRID.count, "directions": directions}}
    u = tmp_path / "u.json"
    u.write_text(json.dumps(payload))  # json writes NaN
    assert main(["csh", str(u)]) == 2
    assert "directions must be a 2-D array of finite numbers" in capsys.readouterr().err


def test_consecutive_calls_match_fresh_processes(tmp_path, capsys):
    n = 32
    f1 = np.linspace(-1, 1, n)
    p1 = write(tmp_path / "f1.json", {"weights": [1.0] * n, "half_dim": 2, "f": f1})
    # the reversal map pulls f2 back to f1
    p2 = write(tmp_path / "f2.json", {"weights": [1.0] * n, "half_dim": 2, "f": f1[::-1]})
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
    bound, violation = InvalidInputError("exponent search exceeded bound 10"), InvariantViolation("forced")
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
    ["min-power", "@0", "@1", "--l", "#0"],
    ["min-power", "@0", "@1", "--model", "multiplicative", "--variant", "strict-positive", "--l", "#0"],
    ["norm", "@0", "@1"],
    ["delta", "@0", "@1"],
    ["dcbm-toric", "@0", "@1"],
    ["csh", "@0"],
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
