"""The summary that tools/bench_pairs.py writes into BENCH_<n>.json."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(**values):
    return {"metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}


def test_summary_of_alternating_pairs():
    bench_pairs = load()
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [90.0, 110.0, 100.0, 101.0, 150.0]
    pairs = [{"parent": run(t=p, rate=1 / p), "change": run(t=c, rate=1 / c)} for p, c in zip(parent, change)]
    summary = bench_pairs.summarize(pairs, {"t": "lower", "rate": "higher"})
    t = summary["t"]
    # inclusive quartiles of 100..140 are 110 and 130
    assert (t["parent"]["q1"], t["parent"]["median"], t["parent"]["q3"]) == (110.0, 120.0, 130.0)
    assert t["change"]["median"] == 101.0 and t["change"]["runs"] == change
    assert (t["wins"], t["ties"], t["pairs"]) == (3, 1, 5)
    assert t["median_gain_frac"] == pytest.approx(19 / 120)
    assert t["parent_iqr_frac"] == pytest.approx(20 / 120)
    # 3 wins of 5 and a gain inside the parent's spread: no gain shown
    assert not t["gain_shown"]
    rate = summary["rate"]
    assert (rate["wins"], rate["ties"], rate["better"]) == (3, 1, "higher")
    assert rate["median_gain_frac"] == pytest.approx((1 / 101 - 1 / 120) * 120)


def test_a_gain_is_shown_only_past_the_parent_spread_in_nine_tenths_of_the_pairs():
    bench_pairs = load()
    parent = [100.0 + i for i in range(10)]
    faster = [80.0 + i for i in range(10)]
    pairs = [{"parent": run(t=p), "change": run(t=c)} for p, c in zip(parent, faster)]
    assert bench_pairs.summarize(pairs, {"t": "lower"})["t"]["gain_shown"]
    pairs[0]["change"] = run(t=200.0)  # one lost pair of ten still passes
    assert bench_pairs.summarize(pairs, {"t": "lower"})["t"]["gain_shown"]
    pairs[1]["change"] = run(t=200.0)  # two do not
    assert not bench_pairs.summarize(pairs, {"t": "lower"})["t"]["gain_shown"]


def test_both_sides_run_under_one_fresh_bytecode_cache_outside_both_checkouts(tmp_path, monkeypatch):
    bench_pairs = load()
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        (checkout / "__pycache__").mkdir(parents=True)  # a stale in-tree cache, never read
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["end_to_end"]]
    line = json.dumps({"metrics": {name: {"value": 1.0} for name in names}, "failed": 0, "correct": True})
    seen = []
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")

    def fake_run(command, cwd, env, **kwargs):
        assert "PYTHONDONTWRITEBYTECODE" not in env  # each module compiles once, into the cache
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((Path(cwd), cache, cache.is_dir()))
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "out.json"
    args = [str(checkouts["parent"]), str(checkouts["change"]), "--pairs", "2", "--workload", "w", "-o", str(out)]
    assert bench_pairs.main(args) == 0
    assert [cwd for cwd, _, _ in seen] == [checkouts[side] for side in ("parent", "change", "change", "parent")]
    caches = {cache for _, cache, _ in seen}
    assert len(caches) == 1 and all(exists for _, _, exists in seen)
    cache = caches.pop()
    assert not any(cache.is_relative_to(checkout) for checkout in checkouts.values())
    assert not cache.exists()  # fresh for this record, and gone after it


@pytest.mark.parametrize(
    "stdout", ["", "order-stream: 1000 ops\nTraceback (most recent call last):\n"], ids=["nothing", "traceback"]
)
def test_a_run_without_a_json_last_line_names_its_checkout_workload_and_exit(tmp_path, monkeypatch, stdout):
    bench_pairs = load()

    def fake_run(command, cwd, env, **kwargs):
        return subprocess.CompletedProcess(command, 1, stdout=stdout, stderr="ValueError: bad op\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(RuntimeError) as err:
        bench_pairs.run_once(tmp_path, "order-stream", 11, 1.0, {})
    message = str(err.value)
    assert message.startswith(f"{tmp_path}: order-stream ended without a JSON line (exit 1)")
    assert message.endswith("ValueError: bad op\n")


def test_the_regression_verdict_reads_each_metric_against_its_bound():
    bench_pairs = load()
    parent = [100.0 + i for i in range(10)]  # inclusive quartiles 102.25 and 106.75: IQR 4.5 %

    def verdict(change, bound, direction="lower"):
        pairs = [{"parent": run(t=p), "change": run(t=c)} for p, c in zip(parent, change)]
        summary = bench_pairs.summarize(pairs, {"t": direction}, {"t": bound})
        return summary["t"]["regression"]

    # the median 104.5 moves to 109.5, 4.8 % worse: within a 5 % bound, past a 4.7 % one
    slower = [p + 5.0 for p in parent]
    assert verdict(slower, 0.05) == "within_bound"
    assert verdict(slower, 0.047) == "exceeds_bound"
    # a spread wider than the bound shows nothing, even at an equal median,
    # unless every change run beats every parent run
    assert verdict(parent, 0.04) == "unresolved"
    assert verdict(slower, 0.04) == "unresolved"
    assert verdict([p - 10.0 for p in parent], 0.04) == "within_bound"
    # a higher-is-better metric counts a lower change as worse
    assert verdict(slower, 0.05, "higher") == "within_bound"
    assert verdict([p - 5.0 for p in parent], 0.047, "higher") == "exceeds_bound"
    # no bounds, no verdict
    pairs = [{"parent": run(t=1.0), "change": run(t=1.0)}]
    assert "regression" not in bench_pairs.summarize(pairs, {"t": "lower"})["t"]
