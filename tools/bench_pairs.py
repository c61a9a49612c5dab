"""Alternating benchmark pairs of two checkouts, summarized per metric.

Runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` in
a parent checkout and in a change checkout, N pairs per workload, with the
side that runs first alternating from pair to pair (the parent first in the
odd pairs). Every run reads and writes its bytecode under one fresh
PYTHONPYCACHEPREFIX outside both checkouts, with writing on: a
``__pycache__`` left in either tree is never read, each module compiles
once, in the first process that imports it, and every later process of
either side reads it from there. Each run is read from the JSON object on
the last line of its output. For every workload and end-to-end metric of BENCHMARK.json the
summary gives each side's median and quartiles, the parent's interquartile
range as a share of its median, the change's median gain in the metric's
better direction, the pairs the change won and tied, whether the gain
passes the benchmark's claim rule (at least nine tenths of the pairs won and
a median gain beyond the parent's interquartile range), and the no-regression
verdict against the metric's BENCHMARK.json bound, a fraction of the
parent's median:

* ``unresolved``: the parent's interquartile range, as a fraction of its
  median, exceeds the bound, and not every change run beats every parent
  run; a spread that wide cannot show the metric unchanged;
* ``within_bound``: otherwise, if the change's median is not worse than the
  parent's by more than the bound;
* ``exceeds_bound``: otherwise.

Run from anywhere, with the standard library only:

    python tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed 11 \\
        --workload order-stream --workload geometry-stream -o BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One ``bench/run.py`` run in a checkout: its last output line, parsed."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):  # nothing printed, or a traceback after the human lines
        tail = done.stderr[-500:]
        raise RuntimeError(f"{checkout}: {workload} ended without a JSON line (exit {done.returncode}): {tail}") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), by the inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per-metric summary of pairs of runs, each {"parent": run, "change": run}.

    ``better`` maps each metric to "lower" or "higher", and ``bounds``, if
    given, to its BENCHMARK.json bound, which adds the ``regression``
    verdict. Gains are fractions of the parent's median, positive when the
    change is better.
    """
    summary = {}
    for metric, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        values = {side: [pair[side]["metrics"][metric]["value"] for pair in pairs] for side in SIDES}
        stats = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            stats[side] = {"median": median, "q1": q1, "q3": q3, "runs": values[side]}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        base = stats["parent"]["median"]
        gain = sign * (stats["change"]["median"] - base) / base
        spread = (stats["parent"]["q3"] - stats["parent"]["q1"]) / base
        summary[metric] = {
            "better": direction,
            **stats,
            "parent_iqr_frac": spread,
            "median_gain_frac": gain,
            "wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "gain_shown": wins >= 0.9 * len(pairs) and gain > spread,
        }
        if bounds is not None:  # the verdicts of the module docstring
            bound = bounds[metric]
            all_better = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
            verdict = "within_bound" if gain >= -bound else "exceeds_bound"
            summary[metric]["regression"] = "unresolved" if spread > bound and not all_better else verdict
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("-o", "--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    report = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "parent first in odd pairs, change first in even pairs",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        # without writes every spawn would compile the standard library and numpy, and that
        # would swamp the set-up time of the program being compared
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for workload in args.workload:
            pairs = []
            for index in range(args.pairs):
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                pair = {side: run_once(getattr(args, side), workload, args.seed, args.seconds, env) for side in order}
                pairs.append(pair)
                print(workload, index + 1, order[0], "first:", *(
                    f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']['value']:.4g}" for side in SIDES
                ), flush=True)
            report["workloads"][workload] = {
                "failed": {side: [pair[side]["failed"] for pair in pairs] for side in SIDES},
                "correct": {side: all(pair[side]["correct"] for pair in pairs) for side in SIDES},
                "metrics": summarize(pairs, better, bounds),
            }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
