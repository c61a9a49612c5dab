import json
import math

import numpy as np

from cbmlab import acceptance
from cbmlab.cli import main
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


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"radii": [1, 2,')
    code = main(["delta", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["csh", str(tmp_path / "nope.json")])
    assert code == 2


def test_input_precondition_exits_two(tmp_path, capsys):
    h = write(tmp_path / "h.json", [0.0] * 64)
    assert main(["ham2dom", h]) == 2


def test_failing_acceptance_item_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance, "ITEMS", [("00-forced-failure", lambda seed, cfg: {"passed": False})]
    )
    code = main(["accept", "--seed", "7", "-o", str(tmp_path / "r.json")])
    assert code == 1


def test_output_file_argument(tmp_path, capsys):
    a = write(tmp_path / "a.json", radial_set_to_dict(ball(1.0, GRID)))
    out = tmp_path / "report.json"
    code = main(["delta", a, a, "-o", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["delta"] == 1.0
