"""cbmlab benchmark: three seeded closed-loop workloads, checked answers.

    python3 bench/run.py --workload {order-stream,geometry-stream,accept}
                         --seed N --seconds S --trace {0,1}

Run from the repository root. BENCHMARK.json gates the two streams; accept
(``cbmlab accept --seed S`` in a subprocess) runs the same way but is left out
of it, because on this host its spread between runs exceeds any bound. Every workload runs with one client in fresh
single-threaded child processes (OMP/OpenBLAS/MKL threads set to 1); the next
op starts only when the previous one has returned.

--trace 0 measures the end-to-end metrics with tracing off. Other tenants slow
whole stretches of a run on this 2-core host, each CPU independently, so an
op's latency is its best over the run's repeats of the same input, and the
repeats alternate between the CPUs: every stream input runs once per pass
over the pool, and accept runs twice (README.md has the definitions).
--trace 1 runs the workload untraced and then traced, and reports the
per-layer metrics computed from the spans (see spans.py).

Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every answer passed its check,
1 when one did not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("order-stream", "geometry-stream", "accept")
# Ops a stream run makes per second of --seconds, about half the best-repeat
# rate at the baseline commit. They fix the op count, so every commit does the
# same work; at --seconds 24 each input runs 20 times.
NOMINAL_OPS_PER_S = {"order-stream": 50.0, "geometry-stream": 100.0}
MIN_OPS = 1000  # p99 needs ten samples beyond it
ACCEPT_REPEATS = 2
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0
ACCEPT_SEED7 = (1627, "c9167f782e475c9cbf10ecc1323f17143e58cad75960af1268b58c90c6b0a09d")
END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class HarnessError(Exception):
    """The benchmark itself could not complete a run."""


class Child:
    """Spawns child processes and reads each one's own resource usage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env.pop("CBM_LAB_THREADS", None)  # accept runs with the default thread setting

    def run(self, argv: list[str], capture: bool = False, cpu: int | None = None) -> tuple[float, float, int, bytes]:
        """(seconds from spawn to exit, peak RSS in MB, exit code, stdout).

        With ``cpu`` the child starts pinned to that CPU.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("run deadline passed before a child could start")
        allowed = os.sched_getaffinity(0)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # inherited by the child
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
            )
        finally:
            os.sched_setaffinity(0, allowed)
        reaped = threading.Event()
        lock = threading.Lock()

        def kill():
            with lock:
                if not reaped.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out = proc.stdout.read() if capture else b""
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                reaped.set()
            timer.cancel()
            if capture:
                proc.stdout.close()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            raise HarnessError(f"child {argv[:2]} killed at the run deadline")
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, out


class Digests:
    """Run digests by workload, seed and source version; one seed, one digest."""

    def __init__(self, path: Path, source: str):
        self.path, self.source = path, source
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def agree(self, workload: str, seed: int, digest: str) -> bool:
        key = f"{workload}:{seed}:{self.source}"
        previous = self.known.setdefault(key, digest)
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        return previous == digest


def check_accept_report(seed: int, code: int, report: bytes) -> list[str]:
    """Reasons an accept run failed; empty when it passed."""
    problems = []
    if code != 0:
        problems.append(f"cbmlab accept exited {code}")
    try:
        passed = json.loads(report)["passed"] is True
    except (ValueError, KeyError, TypeError):
        passed = False
    if not passed:
        problems.append('report does not say "passed": true')
    if seed == 7:
        size, digest = ACCEPT_SEED7
        if len(report) != size or hashlib.sha256(report).hexdigest() != digest:
            problems.append(f"seed-7 report is not the {size}-byte report with sha256 {digest[:8]}")
    return problems


def stream_ops(workload: str, seconds: float, traced: bool) -> int:
    """Ops worth --seconds of work at the nominal rate (half for each traced-run
    phase); the worker rounds up to whole passes over its input pool."""
    target = seconds * NOMINAL_OPS_PER_S[workload]
    return math.ceil(target / 2) if traced else max(MIN_OPS, math.ceil(target))


def cpu_for(repeat: int) -> int:
    """The CPU for the n-th repeat: repeats alternate between the allowed CPUs,
    which other tenants slow independently of each other."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[repeat % len(cpus)]


def setup_samples(child: Child, workload: str, seed: int, repeats: range) -> list[float]:
    """Spawn-to-exit seconds of fresh set-up processes, one per repeat."""
    if workload == "accept":
        argv = ["-c", "import cbmlab.cli"]
    else:
        argv = [str(ROOT / "bench" / "worker.py"), "setup", workload, str(seed)]
    samples = []
    for repeat in repeats:
        elapsed, _, code, _ = child.run(argv, cpu=cpu_for(repeat))
        if code != 0:
            raise HarnessError(f"setup probe for {workload} exited {code}")
        samples.append(elapsed)
    return samples


class Run:
    def __init__(self, args, child: Child, digests: Digests):
        self.args, self.child, self.digests = args, child, digests
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}

    def note_digest(self, digest: str) -> None:
        self.notes.setdefault("digests", []).append(digest)
        if not self.digests.agree(self.args.workload, self.args.seed, digest):
            self.problems.append(f"digest {digest[:12]} differs from an earlier run of this seed")

    # -- accept ------------------------------------------------------------

    def accept_once(self, traced: bool, repeat: int) -> tuple[float, float]:
        seed = self.args.seed
        if traced:
            report_path = OUT / f"accept-seed{seed}-report.json"
            report_path.unlink(missing_ok=True)
            argv = [str(ROOT / "bench" / "worker.py"), "accept", str(seed), str(report_path), str(self.trace_path())]
            elapsed, rss, code, _ = self.child.run(argv, cpu=cpu_for(repeat))
            report = report_path.read_bytes() if report_path.exists() else b""
        else:
            elapsed, rss, code, report = self.child.run(
                ["-m", "cbmlab.cli", "accept", "--seed", str(seed)], capture=True, cpu=cpu_for(repeat)
            )
        problems = check_accept_report(seed, code, report)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems
        self.note_digest(hashlib.sha256(report).hexdigest())
        return elapsed, rss

    def accept(self) -> dict:
        runs = [self.accept_once(traced=False, repeat=k) for k in range(ACCEPT_REPEATS)]
        self.notes["latencies_s"] = [wall for wall, _ in runs]
        return {"best": [min(wall for wall, _ in runs)], "rss": max(rss for _, rss in runs)}

    # -- streams -----------------------------------------------------------

    def trace_path(self) -> Path:
        return OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"

    def stream(self, ops: int, traced: bool) -> dict:
        workload, seed = self.args.workload, self.args.seed
        result_path = OUT / f"result-{workload}-seed{seed}-trace{int(traced)}.json"
        argv = [str(ROOT / "bench" / "worker.py"), "run", workload, str(seed), str(ops), str(result_path)]
        if traced:
            argv.append(str(self.trace_path()))
        _, rss, code, _ = self.child.run(argv)
        if code != 0:
            raise HarnessError(f"{workload} worker exited {code}")
        result = json.loads(result_path.read_text())
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["errors"]
        self.note_digest(result["digest"])
        lat, pool = result["latencies"], result["pool"]
        if not traced:
            self.notes["raw_ops"] = len(lat)
            self.notes["raw_wall_s"] = sum(lat)
            try:
                self.notes["raw_op_p99_ms"] = 1000.0 * measure.percentile(lat, 99)
            except ValueError:
                self.notes["raw_op_p99_ms"] = None
        return {"best": [min(lat[j::pool]) for j in range(pool)], "rss": rss}

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self) -> dict:
        workload, seed = self.args.workload, self.args.seed
        # set-up probes on both sides of the timed phase, so their median spans the run
        half = SETUP_SAMPLES // 2 + 1
        setup = setup_samples(self.child, workload, seed, range(half))
        if workload == "accept":
            timed = self.accept()
        else:
            timed = self.stream(stream_ops(workload, self.args.seconds, traced=False), traced=False)
        setup += setup_samples(self.child, workload, seed, range(half, SETUP_SAMPLES))
        best = timed["best"]
        return {
            "wall_s": sum(best),
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": 1000.0 * statistics.median(best),
            "peak_rss_mb": timed["rss"],
            "setup_s": statistics.median(setup),
        }

    def per_layer(self) -> dict:
        workload = self.args.workload
        if workload == "accept":
            plain, _ = self.accept_once(traced=False, repeat=0)
            traced, _ = self.accept_once(traced=True, repeat=1)
        else:
            ops = stream_ops(workload, self.args.seconds, traced=True)
            plain = sum(self.stream(ops, traced=False)["best"])
            traced = sum(self.stream(ops, traced=True)["best"])
        trace = json.loads(self.trace_path().read_text())
        values = spans.layer_metrics(trace, traced / plain - 1.0)
        self.notes["untraced_wall_s"], self.notes["traced_wall_s"] = plain, traced
        self.notes["spans"] = len(trace)
        return values


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cbmlab" / "__init__.py").is_file():
        print(f"error: no cbmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = measure.environment(ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    run = Run(args, Child(time.monotonic() + RUN_DEADLINE_S), Digests(OUT / "digests.json", env["source_sha256"]))
    try:
        values = run.per_layer() if args.trace else run.end_to_end()
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        units = {name: unit for name, unit, _ in spans.metric_names()}
    else:
        units = dict(END_TO_END)
    print("env: " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"{name:48s} {_fmt(value):>14s} {units[name]}")
    if not args.trace and args.workload == "accept":
        walls = ", ".join(f"{w:.4g}" for w in run.notes["latencies_s"])
        print(f"{'op_p99_ms':48s} {'n/a':>14s} ms   ({ACCEPT_REPEATS} invocations: {walls} s)")
    elif not args.trace:
        p99 = run.notes["raw_op_p99_ms"]
        shown = _fmt(p99) if p99 is not None else "n/a"
        print(f"{'op_p99_ms':48s} {shown:>14s} ms   (all {run.notes['raw_ops']} ops; p99 needs >= {MIN_OPS})")
        print(f"{'raw_wall_s':48s} {_fmt(run.notes['raw_wall_s']):>14s} s    (every repeat, contention included)")
    else:
        print(f"untraced wall {run.notes['untraced_wall_s']:.4g} s, traced wall {run.notes['traced_wall_s']:.4g} s, {run.notes['spans']} spans")
        if args.workload == "accept":
            items = sum(v for k, v in values.items() if k.endswith(".total_s"))
            print(f"acceptance items cover {items:.4g} s of the traced {run.notes['traced_wall_s']:.4g} s accept run")
    print(f"{'failed_frac':48s} {_fmt(run.failed / max(run.attempted, 1)):>14s} ratio ({run.failed} of {run.attempted})")
    print("digest: sha256 " + ", ".join(sorted(set(run.notes.get("digests", [])))))
    for problem in run.problems:
        print(f"problem: {problem}")

    correct = not run.problems and run.failed == 0
    record = {"env": env, "values": values, "notes": run.notes, "problems": run.problems}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
