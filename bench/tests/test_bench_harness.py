"""The benchmark's own logic: span self times, the percentile rule, the answer
checks and the accept report check."""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geometry_stream
import measure
import order_stream
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


def _entry(module, kind, seed=5):
    shared = module.shared_objects(seed)
    specs = module.pool_specs(seed)
    index = next(i for i, spec in enumerate(specs) if spec[0] == kind)
    return module.make_entry(seed, index, specs[index], shared), shared


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # name, start, end, parent, op, hit
    trace = [
        ["ordered.growth_distance", 0.0, 10.0, -1, 0, True],
        ["ordered.rho_plus", 1.0, 4.0, 0, 0, True],
        ["primes.first_prime_in", 2.0, 3.0, 1, 0, True],
        ["ordered.rho_plus", 5.0, 6.0, 0, 0, True],
    ]
    assert spans.self_times(trace) == [6.0, 2.0, 1.0, 1.0]
    values = spans.layer_metrics(trace, overhead_frac=0.5)
    assert values["ordered.rho_plus.calls"] == 2
    assert values["ordered.rho_plus.self_s"] == 3.0
    assert values["ordered.self_s"] == 9.0
    assert values["primes.self_s"] == 1.0
    assert values["primes.first_prime_in.hit_ratio"] == 1.0
    assert values["trace.overhead_frac"] == 0.5


def test_tracer_records_parents_and_skips_calls_outside_ops():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("primes.first_prime_in", lambda x: None if x < 0 else x)
    outer = tracer.wrap("ordered.rho_plus_primes", lambda: [inner(1), inner(-1)])
    outer()
    assert tracer.spans == []
    tracer.op = 7
    outer()
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [
        ("ordered.rho_plus_primes", -1, 7, True),
        ("primes.first_prime_in", 0, 7, True),
        ("primes.first_prime_in", 0, 7, False),
    ]
    values = spans.layer_metrics(tracer.spans, 0.0)
    assert values["primes.first_prime_in.hit_ratio"] == 0.5
    assert values["ordered.rho_plus_primes.self_s"] == (5 - 0) - 1 - 1


def test_install_rebinds_every_importing_module():
    code = (
        "import spans, numpy as np\n"
        "from cbmlab import domains, starshape\n"
        "t = spans.Tracer(); spans.install(t)\n"
        "g = starshape.DirectionGrid.uniform_circle(64)\n"
        "u = domains.SplitToricDomain(2, starshape.ball(1.0, g))\n"
        "v = domains.SplitToricDomain(2, starshape.ball(2.0, g))\n"
        "t.op = 0; domains.dcbm_toric(u, v); t.op = None\n"
        "print([(s[0], s[3]) for s in t.spans])\n"
    )
    env = {"PYTHONPATH": f"{ROOT / 'bench'}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert eval(out.stdout) == [
        ("domains.dcbm_toric", -1),
        ("starshape.log_delta", 0),
        ("starshape.delta", 1),
    ]


def test_per_layer_names_match_benchmark_json():
    from cbmlab import acceptance

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == spans.metric_names()
    assert [name for name, _ in acceptance.ITEMS] == spans.ACCEPTANCE_ITEMS
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


# -- percentile rule ---------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    assert measure.percentile(samples, 99) == 990.0
    assert sum(x > 990.0 for x in samples) == measure.TAIL_SAMPLES
    with pytest.raises(ValueError):
        measure.percentile(samples[:999], 99)
    assert measure.percentile(samples[:20], 50) == 10.0


# -- answer checks -----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["min-power", "norm", "growth-multiplicative"])
def test_order_check_rejects_a_perturbed_answer(kind):
    entry, shared = _entry(order_stream, kind)
    result = order_stream.run_op(entry, shared)
    order_stream.check(entry, result, shared)
    if kind == "min-power":
        bad = result + 1
    elif kind == "norm":
        bad = type(result)(result.nu_plus, result.nu_minus - 1, result.nu, result.base, result.arg)
    else:
        bad = type(result)(result.rho_plus, math.nextafter(result.rho_minus, 2.0), result.gamma,
                           result.distance, result.l_max, result.method)
    with pytest.raises(measure.WrongAnswer):
        order_stream.check(entry, bad, shared)


def test_least_k_closed_form_matches_the_oracle():
    from cbmlab import ordered

    entry, _ = _entry(order_stream, "min-power")
    for l in (1, 2, 999):
        k = ordered.min_power(entry["model"], entry["a"], entry["b"], l)
        assert order_stream.least_k_additive(entry["A"], entry["B"], np.array([l]), entry["strict"])[0] == k


@pytest.mark.parametrize("kind", ["delta", "ham2dom", "squeezable", "qi-verify", "accept-item"])
def test_geometry_check_rejects_a_perturbed_report(kind):
    entry, shared = _entry(geometry_stream, kind)
    text = geometry_stream.run_op(entry, shared)
    geometry_stream.check(entry, text, shared)
    report = json.loads(text)
    if kind == "delta":
        report["delta"] = math.nextafter(report["delta"], 0.0)
    elif kind == "ham2dom":
        report["fiber"]["radii"][3] *= 1.0 + 2**-40
    elif kind == "qi-verify":
        report["linf"] = math.nextafter(report["linf"], 0.0)
    elif kind == "accept-item":
        report["passed"] = False
    else:
        report["squeezable"] = True
    from cbmlab import serialize

    with pytest.raises(measure.WrongAnswer):
        geometry_stream.check(entry, serialize.dumps_report(report), shared)


# -- accept report -------------------------------------------------------------------


def test_accept_check_rejects_a_modified_seed7_report():
    fake = b'{"config": {}, "items": [], "passed": true}\n'
    assert run.check_accept_report(11, 0, fake) == []
    problems = run.check_accept_report(7, 0, fake)
    assert any("seed-7" in p for p in problems)
    assert run.check_accept_report(11, 1, fake) == ["cbmlab accept exited 1"]
    assert run.check_accept_report(11, 0, fake.replace(b"true", b"false"))


def test_digest_record_flags_a_changed_report(tmp_path):
    digests = run.Digests(tmp_path / "digests.json", source="abc")
    first = hashlib.sha256(b"report").hexdigest()
    assert digests.agree("accept", 11, first)
    again = run.Digests(tmp_path / "digests.json", source="abc")
    assert again.agree("accept", 11, first)
    assert not again.agree("accept", 11, hashlib.sha256(b"report!").hexdigest())
    assert run.Digests(tmp_path / "digests.json", source="other").agree("accept", 11, "x")
