"""One phase of a benchmark run, in a fresh single-threaded interpreter.

    worker.py setup WORKLOAD SEED
        import cbmlab, build the workload's shared objects and run one
        untimed op of every kind, then exit (the parent times the process).
    worker.py run WORKLOAD SEED OPS RESULT [TRACE]
        build the seeded input pool, warm up, then run at least OPS ops, in
        whole passes over the pool, in a closed loop; each pass runs pinned to
        the next CPU in turn. Every answer of the first pass goes through the
        workload's check; later passes must render the same bytes. Writes latencies, failures and the run digest to RESULT, and
        with TRACE also the spans of a traced run.
    worker.py accept SEED REPORT TRACE
        the traced form of ``cbmlab accept --seed SEED``.

run.py starts these with PYTHONPATH pointing at the package sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import time
import traceback

import spans
from measure import WrongAnswer

MODULES = {"order-stream": "order_stream", "geometry-stream": "geometry_stream"}
MAX_ERRORS = 5


def _workload(name: str):
    return importlib.import_module(MODULES[name])


def _first_of_each_kind(specs) -> list[int]:
    first: dict[str, int] = {}
    for index, spec in enumerate(specs):
        first.setdefault(spec[0], index)
    return list(first.values())


def setup(workload: str, seed: int) -> None:
    module = _workload(workload)
    shared = module.shared_objects(seed)
    specs = module.pool_specs(seed)
    for index in _first_of_each_kind(specs):
        module.run_op(module.make_entry(seed, index, specs[index], shared), shared)


def run(workload: str, seed: int, ops: int, result_path: str, trace_path: str | None) -> None:
    module = _workload(workload)
    shared = module.shared_objects(seed)
    specs = module.pool_specs(seed)
    pool = [module.make_entry(seed, i, spec, shared) for i, spec in enumerate(specs)]
    tracer = spans.Tracer()
    if trace_path:
        spans.install(tracer)
    for index in _first_of_each_kind(specs):
        module.run_op(pool[index], shared)
    ops = -(-ops // len(pool)) * len(pool)

    latencies: list[float] = []
    hashes: list[str | None] = [None] * len(pool)
    failed = 0
    errors: list[str] = []
    clock = time.perf_counter
    cpus = sorted(os.sched_getaffinity(0))
    for op in range(ops):
        index = op % len(pool)
        if index == 0:
            # passes alternate between the CPUs, whose slowdowns by other tenants are independent
            os.sched_setaffinity(0, {cpus[op // len(pool) % len(cpus)]})
        entry = pool[index]
        tracer.op = op
        start = clock()
        try:
            result = module.run_op(entry, shared)
        except Exception as exc:  # an op that raises is a failed op, not the end of the run
            result = exc
        latencies.append(clock() - start)
        tracer.op = None
        try:
            if isinstance(result, Exception):
                raise result
            digest = hashlib.sha256(module.render(entry, result).encode()).hexdigest()
            if hashes[index] is None:
                module.check(entry, result, shared)
                hashes[index] = digest
            elif digest != hashes[index]:
                raise WrongAnswer("answer differs from the first pass over this input")
        except Exception as exc:
            failed += 1
            if len(errors) < MAX_ERRORS:
                errors.append(f"op {op} ({entry['kind']}): " + "".join(traceback.format_exception_only(exc)).strip())

    run_digest = hashlib.sha256("".join(h or "failed" for h in hashes).encode()).hexdigest()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "attempted": ops,
                "pool": len(pool),
                "failed": failed,
                "errors": errors,
                "digest": run_digest,
                "latencies": latencies,
            },
            fh,
        )
    if trace_path:
        tracer.dump(trace_path)


def accept(seed: int, report_path: str, trace_path: str) -> int:
    from cbmlab import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    buffer = io.StringIO()
    tracer.op = 0
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["accept", "--seed", str(seed)])
    tracer.op = None
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(buffer.getvalue())
    tracer.dump(trace_path)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        setup(rest[0], int(rest[1]))
        return 0
    if mode == "run":
        run(rest[0], int(rest[1]), int(rest[2]), rest[3], rest[4] if len(rest) > 4 else None)
        return 0
    if mode == "accept":
        return accept(int(rest[0]), rest[1], rest[2])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
