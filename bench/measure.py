"""The percentile rule, the answer-check exception and the environment record."""

from __future__ import annotations

import hashlib
import importlib.metadata
import math
import os
import platform
import subprocess
from pathlib import Path

# A reported tail percentile needs this many samples above its rank.
TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile with at least TAIL_SAMPLES samples beyond it.

    Raises ValueError when the run is too short for that percentile, so a
    p99 needs at least 1,000 samples.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; {TAIL_SAMPLES} needed"
        )
    return ordered[rank - 1]


def source_digest(root: Path) -> str:
    """sha256 over the package and benchmark sources, a commit stand-in
    outside git; a change to either can change a run's answers."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cbmlab").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, **extra) -> dict:
    return {
        "commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **extra,
    }


class WrongAnswer(Exception):
    """An op returned, but its answer failed the benchmark's own check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)
