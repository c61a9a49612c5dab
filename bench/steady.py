"""Steadiness check: repeat every workload with interleaved seeds and compare
each end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--sets 2] [--seconds S]
                            [--workload NAME ...] [--summary PATH]

Round r runs every workload once with seed SEED_BASE + r, so the workloads
interleave rather than running one workload's repeats back to back. Each set
repeats the same seeds, which also checks that a seed's digest repeats. For
every workload and metric it prints the median, the quartiles and the spread
(inter-quartile distance over the median) against the bound; a spread below
a third of the bound reads "steady". setup_s is exempt from the spread rule.
With two sets it also compares the second set's median with the first's, in
the metric's worse direction. --seconds defaults to run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    digest = next((line for line in lines if line.startswith("digest:")), "")
    return {
        "workload": workload,
        "seed": seed,
        "exit": proc.returncode,
        "elapsed_s": time.monotonic() - start,
        "correct": result.get("correct"),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "digest": digest,
    }


def summarize(runs: list[dict], spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in runs if metric["name"] in r["metrics"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2,
            "bound": metric["bound"],
            "better": metric["better"],
            "unit": metric["unit"],
            "runs": len(values),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--summary", default=str(ROOT / "bench" / "out" / "steady.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    sets = []
    for set_index in range(args.sets):
        runs = []
        for r in range(args.runs):
            for workload in workloads:
                res = run_once(workload, SEED_BASE + r, seconds)
                runs.append(res)
                print(f"set {set_index + 1} {workload:16s} seed {res['seed']} exit {res['exit']} "
                      f"correct {res['correct']} {res['elapsed_s']:.1f}s "
                      + " ".join(f"{k}={v:.4g}" for k, v in res["metrics"].items()), flush=True)
                ok = ok and res["exit"] == 0 and res["correct"] is True
        sets.append({"runs": runs, "summary": {w: summarize([x for x in runs if x["workload"] == w], spec) for w in workloads}})

    print()
    for set_index, s in enumerate(sets):
        for workload, metrics in s["summary"].items():
            for name, m in metrics.items():
                verdict = "steady" if m["spread"] < m["bound"] / 3 else ("within bound" if m["spread"] <= m["bound"] else "TOO NOISY")
                if name == "setup_s":
                    verdict = "(spread exempt)"
                else:
                    ok = ok and m["spread"] <= m["bound"]
                print(f"set {set_index + 1} {workload:16s} {name:12s} median {m['median']:.5g} {m['unit']:4s} "
                      f"q1 {m['q1']:.5g} q3 {m['q3']:.5g} spread {m['spread']:.3f} bound {m['bound']} {verdict}")
    if len(sets) > 1:
        for workload in workloads:
            for name, m1 in sets[0]["summary"][workload].items():
                m2 = sets[1]["summary"][workload][name]
                change = (m2["median"] - m1["median"]) / m1["median"]
                worse = change if m1["better"] == "lower" else -change
                ok = ok and worse <= m1["bound"]
                print(f"medians {workload:16s} {name:12s} {m1['median']:.5g} -> {m2['median']:.5g} "
                      f"({change:+.3f}) bound {m1['bound']} {'ok' if worse <= m1['bound'] else 'WORSE'}")
    digests: dict = {}
    for s in sets:
        for r in s["runs"]:
            digests.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    repeat_ok = all(len(d) == 1 for d in digests.values())
    ok = ok and repeat_ok
    print(f"digests repeat per seed: {repeat_ok}")

    env = measure.environment(ROOT, runs=args.runs, sets=args.sets, seconds=seconds, seed_base=SEED_BASE)
    Path(args.summary).parent.mkdir(parents=True, exist_ok=True)
    Path(args.summary).write_text(json.dumps({"env": env, "sets": sets}, indent=1, default=str) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
