"""The seed-7 run digests of the benchmark's two streams, recomputed in process.

A run digest is the sha256 of the concatenated sha256 of every rendered
answer, in pool order, as bench/worker.py writes it. The pinned values are
the digests of the current answers; a change to any answer's bytes fails here.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 7
DIGESTS = {
    "geometry_stream": "2d9c1c05c8f113a78f40f883c277a9664bcc6520a0b88836a83c6888ed49d09e",
    "order_stream": "60fb7cb831d134010566754dd1d513f81147b8faba1665009b8e693a247f2a29",
}


def run_digest(module, seed: int) -> str:
    shared = module.shared_objects(seed)
    hashes = []
    for index, spec in enumerate(module.pool_specs(seed)):
        entry = module.make_entry(seed, index, spec, shared)
        rendered = module.render(entry, module.run_op(entry, shared))
        hashes.append(hashlib.sha256(rendered.encode()).hexdigest())
    return hashlib.sha256("".join(hashes).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed7_stream_digest(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    assert run_digest(importlib.import_module(name), SEED) == DIGESTS[name]
