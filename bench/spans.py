"""Spans around the calls into cbmlab's public functions, and the per-layer
metrics computed from them.

The wrappers live in the benchmark, not in the package: `install` rebinds
each listed function in every ``cbmlab`` module that holds it, patches the
listed class attributes, and wraps the entries of ``acceptance.ITEMS``,
which captured the item functions at import. A span is recorded only while
an op id is set, so warm-up calls and the benchmark's own answer checks
stay out of the trace.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, metric name, owning class or None, attribute)
TARGETS = [
    ("ordered", "growth_distance", None, "growth_distance"),
    ("ordered", "rho_plus", None, "rho_plus"),
    ("ordered", "rho_plus_primes", None, "rho_plus_primes"),
    ("ordered", "min_power", None, "min_power"),
    ("primes", "PrimeTable", "PrimeTable", "__init__"),
    ("primes", "first_prime_in", "PrimeTable", "first_prime_in"),
    ("norms", "norm", None, "norm"),
    ("norms", "stabilization", None, "stabilization"),
    ("starshape", "from_angles", "DirectionGrid", "from_angles"),
    ("starshape", "sphere", "DirectionGrid", "sphere"),
    ("starshape", "delta", None, "delta"),
    ("starshape", "log_delta", None, "log_delta"),
    ("starshape", "skeleton_region", None, "skeleton_region"),
    ("starshape", "qi_verify", None, "qi_verify"),
    ("domains", "dcbm_toric", None, "dcbm_toric"),
    ("domains", "dc_toric", None, "dc_toric"),
    ("domains", "rgr_vs_cbm", None, "rgr_vs_cbm"),
    ("domains", "hamiltonian_to_domain", None, "hamiltonian_to_domain"),
    ("domains", "is_squeezable_toric", None, "is_squeezable_toric"),
    ("forms", "dcbm_forms_upper", None, "dcbm_forms_upper"),
    ("forms", "dcbm_forms_lower_volume", None, "dcbm_forms_lower_volume"),
    ("serialize", "dumps_report", None, "dumps_report"),
    ("serialize", "radial_set_from_dict", None, "radial_set_from_dict"),
    ("serialize", "domain_from_dict", None, "domain_from_dict"),
    ("serialize", "form_from_dict", None, "form_from_dict"),
    ("cli", "main", None, "main"),
]
LAYERS = ["ordered", "primes", "norms", "starshape", "domains", "forms", "serialize", "acceptance", "cli"]
ACCEPTANCE_ITEMS = [
    "01-growth-oracle",
    "02-prime-pairs",
    "03-product-inequality",
    "04-pseudo-metric-and-norms",
    "05-delta-anchors",
    "06-toric-exactness",
    "07-csh-functoriality",
    "08-qi-harness",
    "09-forms-pinch",
    "10-bridge",
    "11-squeezable-certificate",
    "12-schema-roundtrip",
]
HIT_RATIO = "primes.first_prime_in.hit_ratio"
OVERHEAD = "trace.overhead_frac"


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Each span is ``[name, start, end, parent index, op id, returned non-None]``;
    a span's index in ``spans`` is its id.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, op, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                span[5] = result is not None
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cbmlab" or mod_name.startswith("cbmlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function in TARGETS and every acceptance item."""
    import importlib

    for layer, metric, owner, attr in TARGETS:
        module = importlib.import_module(f"cbmlab.{layer}")
        name = f"{layer}.{metric}"
        if owner is None:
            _rebind(getattr(module, attr), tracer.wrap(name, getattr(module, attr)))
            continue
        cls = getattr(module, owner)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))
    acceptance = importlib.import_module("cbmlab.acceptance")
    acceptance.ITEMS[:] = [
        (item, tracer.wrap(f"acceptance.{item}", fn)) for item, fn in acceptance.ITEMS
    ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    names = []
    for layer, metric, _, _ in TARGETS:
        names.append((f"{layer}.{metric}.calls", "count", "lower"))
        names.append((f"{layer}.{metric}.self_s", "s", "lower"))
    names += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    names += [(f"acceptance.{item}.total_s", "s", "lower") for item in ACCEPTANCE_ITEMS]
    names.append((HIT_RATIO, "ratio", "higher"))
    names.append((OVERHEAD, "ratio", "lower"))
    return names


def layer_metrics(spans, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from one traced run; functions never called read 0."""
    values = {name: 0 if unit == "count" else 0.0 for name, unit, _ in metric_names()}
    hits = 0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        layer = name.split(".", 1)[0]
        values[f"{layer}.self_s"] += own
        if layer == "acceptance":
            values[f"{name}.total_s"] += span[2] - span[1]
            continue
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += own
        if name == "primes.first_prime_in" and span[5]:
            hits += 1
    calls = values["primes.first_prime_in.calls"]
    values[HIT_RATIO] = hits / calls if calls else 0.0
    values[OVERHEAD] = overhead_frac
    return values
