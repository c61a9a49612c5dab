"""geometry-stream: the geometry, domain, forms and report-writer layers.

Each op mirrors one CLI subcommand in process, without files: it parses a
JSON payload with ``json.loads`` and the ``serialize.*_from_dict`` readers,
computes, and renders the answer with ``serialize.dumps_report``. The two
subcommands that take no files, ``qi-verify`` and ``skeleton``, go through
``cli.main`` itself, and the geometry items of ``cbmlab accept`` run one per
op. The stream never calls the order oracle. Answers are checked against
numpy recomputation from the raw arrays the payloads were made from.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from cbmlab import acceptance, cli, domains, forms, serialize, starshape
from cbmlab.forms import SampledManifold
from cbmlab.starshape import DirectionGrid

from measure import expect

NAME = "geometry-stream"
DIRECTIONS = 1024
PLANAR_GRIDS = 4
FORM_SITES = 4096
FORM_MAPS = 32
QI_C0, QI_TOL, QI_C1 = 10.0, 1e-2, 1.5
SKELETON_C0 = 10.0
STREAM = 30_000  # Philox streams clear of the acceptance suite's

# op kind -> entries per pool pass; fixed composition, seeded values
MIX = {
    "delta": 15,
    "dc-toric": 15,
    "dcbm-toric": 15,
    "csh": 16,  # after rescale_cover by k in COVERS
    "squeezable": 14,  # half on 2-d, half on 3-d grids
    "qi-verify": 14,  # half with k=3, half with k=8 spoke pairs
    "skeleton": 10,
    "ham2dom": 13,
    "dcbm-forms": 8,  # half pure rescalings (the pinch), half random forms
    "accept-item": 5,  # one each of ACCEPT_ITEMS
}
COVERS = (2, 3, 5, 12)
# the acceptance items that never reach the order oracle (item 12 computes a
# growth distance), each well under a second
ACCEPT_ITEMS = (
    "05-delta-anchors",
    "06-toric-exactness",
    "07-csh-functoriality",
    "09-forms-pinch",
    "11-squeezable-certificate",
)
ACCEPT_CONFIG = {"l_max": 1000, "prime_bound": 10_000, "grid": DIRECTIONS}


def shared_objects(seed: int) -> dict:
    """The direction grids and sampled manifold the payloads are drawn on."""
    rng = acceptance.item_rng(seed, STREAM)
    planar = [
        DirectionGrid.from_angles(rng.uniform(0.0, 2.0 * math.pi, DIRECTIONS))
        for _ in range(PLANAR_GRIDS)
    ]
    manifold = SampledManifold(acceptance.quantized(rng, 0.5, 2.0, FORM_SITES), half_dim=2)
    return {"planar": planar, "sphere": DirectionGrid.sphere(DIRECTIONS, 3), "manifold": manifold}


def _radial(grid: DirectionGrid, radii: np.ndarray, with_directions: bool = True) -> dict:
    out = {"dimension": grid.dimension, "radii": radii.tolist()}
    if with_directions:
        out["directions"] = grid.directions.tolist()
    return out


def _domain(base_dim: int, fiber: dict) -> dict:
    return {"base_dim": base_dim, "liouville_weight": 1.0, "fiber": fiber, "label": "U", "cover": 1}


def _specs() -> list[tuple[str, int]]:
    """The pool composition as (kind, variant index)."""
    specs = []
    for kind, count in MIX.items():
        specs += [(kind, i if kind == "accept-item" else i % 2) for i in range(count)]
    return specs


def make_entry(seed: int, index: int, spec: tuple[str, int], shared: dict) -> dict:
    kind, variant = spec
    rng = acceptance.item_rng(seed, STREAM + 1 + index)
    entry: dict = {"kind": kind}
    if kind in ("delta", "dc-toric", "dcbm-toric", "csh"):
        grid = shared["planar"][int(rng.integers(PLANAR_GRIDS))]
        ra, rb = rng.uniform(0.5, 2.0, DIRECTIONS), rng.uniform(0.5, 2.0, DIRECTIONS)
        entry.update(ra=ra, rb=rb, directions=grid.directions)
        if kind == "dcbm-toric":
            payload = {"u": _domain(2, _radial(grid, ra)), "v": _domain(2, _radial(grid, rb))}
        elif kind == "csh":
            entry["k"] = COVERS[index % len(COVERS)]
            payload = {"u": _domain(2, _radial(grid, ra)), "k": entry["k"]}
        else:
            payload = {"a": _radial(grid, ra), "b": _radial(grid, rb)}
    elif kind == "squeezable":
        dimension = 2 + variant
        grid = shared["planar"][0] if dimension == 2 else shared["sphere"]
        entry["radii"] = rng.uniform(0.5, 2.0, DIRECTIONS)
        # no directions: the reader regenerates the uniform circle or sphere grid
        payload = _domain(dimension, _radial(grid, entry["radii"], with_directions=False))
    elif kind in ("qi-verify", "skeleton"):
        spokes = 2 * (3 if kind == "skeleton" or variant == 0 else 8)
        entry["v"] = rng.uniform(0.0, 4.0, spokes)
        payload = [kind, "--v", ",".join(map(repr, entry["v"].tolist())), "--grid", str(DIRECTIONS)]
        if kind == "qi-verify":
            entry["w"] = rng.uniform(0.0, 4.0, spokes)
            payload += ["--w", ",".join(map(repr, entry["w"].tolist()))]
            payload += ["--c0", repr(QI_C0), "--tol", repr(QI_TOL), "--c1", repr(QI_C1)]
        else:
            payload += ["--c0", repr(SKELETON_C0)]
    elif kind == "accept-item":
        entry["item"] = ACCEPT_ITEMS[variant]
        payload = {"item": entry["item"], "seed": seed}
    elif kind == "ham2dom":
        entry["h"] = acceptance.quantized(rng, 0.5, 2.5, DIRECTIONS)
        payload = entry["h"].tolist()
    else:
        manifold = shared["manifold"]
        f1 = rng.uniform(-1.0, 1.0, FORM_SITES)
        if variant == 0:
            entry["c"] = float(rng.uniform(1.5, 10.0))
            f2 = f1 + math.log(entry["c"])
        else:
            f2 = rng.uniform(-1.0, 1.0, FORM_SITES)
        perms = np.stack([rng.permutation(FORM_SITES) for _ in range(FORM_MAPS)])
        entry.update(f1=f1, f2=f2, perms=perms.astype(np.int32))
        weights = manifold.weights.tolist()
        payload = {
            "f1": {"weights": weights, "half_dim": 2, "f": f1.tolist()},
            "f2": {"weights": weights, "half_dim": 2, "f": f2.tolist()},
            "maps": [{"perm": p.tolist()} for p in perms],
        }
    entry["payload"] = json.dumps(payload)
    return entry


def pool_specs(seed: int) -> list[tuple]:
    """The pool composition in the seed's op order; spec[0] is the op kind."""
    specs = _specs()
    return [specs[j] for j in acceptance.item_rng(seed, STREAM - 1).permutation(len(specs))]


def run_op(entry: dict, shared: dict) -> str:
    kind = entry["kind"]
    data = json.loads(entry["payload"])
    if kind == "delta":
        a, b = serialize.radial_set_from_dict(data["a"]), serialize.radial_set_from_dict(data["b"])
        report = {"delta": starshape.delta(a, b), "log_delta": starshape.log_delta(a, b)}
    elif kind == "dc-toric":
        a, b = serialize.radial_set_from_dict(data["a"]), serialize.radial_set_from_dict(data["b"])
        report = domains.dc_toric(a, b).to_json_dict()
    elif kind == "dcbm-toric":
        u, v = serialize.domain_from_dict(data["u"]), serialize.domain_from_dict(data["v"])
        report = domains.dcbm_toric(u, v).to_json_dict()
    elif kind == "csh":
        u = serialize.domain_from_dict(data["u"])
        shape = domains.csh(domains.rescale_cover(u, data["k"]))
        report = {"csh": serialize.radial_set_to_dict(shape), "label": u.label}
    elif kind == "squeezable":
        report = domains.is_squeezable_toric(serialize.domain_from_dict(data)).to_json_dict()
    elif kind in ("qi-verify", "skeleton"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(data)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"cbmlab {kind} exited {code}")
        return out.getvalue()
    elif kind == "accept-item":
        report = dict(acceptance.ITEMS)[data["item"]](data["seed"], ACCEPT_CONFIG)
    elif kind == "ham2dom":
        result = domains.hamiltonian_to_domain(serialize.element_values_from_json(data))
        report = result.to_json_dict()
        report["fiber"] = serialize.radial_set_to_dict(result.fiber)
    else:
        f1, f2 = serialize.form_from_dict(data["f1"]), serialize.form_from_dict(data["f2"])
        maps = [serialize.map_from_dict(m, f1.manifold) for m in data["maps"]]
        report = forms.dcbm_forms(f1, f2, maps).to_json_dict()
    return serialize.dumps_report(report)


def render(entry: dict, result: str) -> str:
    return result


# -- checks --------------------------------------------------------------------


def _containment(ra: np.ndarray, rb: np.ndarray) -> float:
    return max(float(np.max(ra / rb)), float(np.max(rb / ra)), 1.0)


def _forms_bounds(entry: dict, weights: np.ndarray) -> tuple[float, float]:
    f1, f2, logw = entry["f1"], entry["f2"], np.log(weights)
    upper = float(np.max(np.abs(f1 - f2)))
    for perm in entry["perms"]:
        g = (logw[perm] - logw) / 2
        upper = min(upper, float(np.max(np.abs(f1 - (f2[perm] + g)))))
    vol1 = float(np.sum(np.exp(2 * f1) * weights) / 2)
    vol2 = float(np.sum(np.exp(2 * f2) * weights) / 2)
    return upper, abs(math.log(vol1 / vol2)) / 2


def check(entry: dict, text: str, shared: dict) -> None:
    kind = entry["kind"]
    out = json.loads(text)
    expect(serialize.dumps_report(out) == text, "report bytes do not survive a round trip")
    if kind in ("delta", "dc-toric", "dcbm-toric"):
        ratio = _containment(entry["ra"], entry["rb"])
        if kind == "delta":
            expect(out["delta"] == ratio, f"delta {out['delta']!r} != {ratio!r}")
            got = [out["log_delta"]]
        elif kind == "dc-toric":
            got = [out["value"]]
        else:
            got = [out["lower"], out["upper"]]  # the toric bracket collapses
        expect(all(g == math.log(ratio) for g in got), f"{kind} {got} != ln {ratio!r}")
    elif kind == "csh":
        expected = entry["ra"] * (1.0 / entry["k"])
        expect(np.array_equal(np.asarray(out["csh"]["radii"]), expected), "csh radii != fiber / k")
        expect(np.array_equal(np.asarray(out["csh"]["directions"]), entry["directions"]), "csh directions")
    elif kind == "squeezable":
        cert = out["certificate"]
        r = entry["radii"]
        expect(out["squeezable"] is False and "contradiction" in cert, "squeezable verdict")
        expect(repr(float(r.max())) in cert and repr(float(r.min())) in cert, "certificate radii")
    elif kind == "qi-verify":
        linf = float(np.max(np.abs(entry["v"] - entry["w"])))
        expect(out["pass"] is True and out["linf"] == linf, f"qi_verify {out}")
        expect(out["lower"] == linf - QI_TOL and out["upper"] == linf + math.log(QI_C1), "qi bounds")
        expect(out["lower"] <= out["log_delta"] <= out["upper"], "qi log_delta outside bounds")
    elif kind == "skeleton":
        v = entry["v"]
        lengths = SKELETON_C0 * np.exp(v)
        eps = 1.0 / (SKELETON_C0 * float(np.sum(np.exp(v))))
        radii = np.asarray(out["region"]["radii"])
        expect(out["epsilon"] == eps and out["spoke_count"] == v.size, "skeleton spec")
        expect(radii.min() >= eps / 2, "skeleton radius below the half width")
        expect(lengths.max() <= radii.max() <= math.hypot(lengths.max(), eps / 2) * (1 + 1e-12), "skeleton reach")
    elif kind == "accept-item":
        # the item's own verdict, and every boolean it reports
        expect(out["passed"] is True, f"acceptance item {entry['item']} failed: {out}")
        expect(all(v for v in out.values() if isinstance(v, bool)), f"item {entry['item']}: {out}")
    elif kind == "ham2dom":
        h = entry["h"]
        expect(np.array_equal(np.asarray(out["fiber"]["radii"]), 1.0 / h), "fiber radii != 1/h")
        expect(out["m_minus"] == h.min() and out["m_plus"] == h.max(), "ham2dom extremes")
        expect(out["s_empty"] == 1.0 / h.min() and out["s_full"] == 1.0 / h.max(), "ham2dom slices")
    else:
        if "c" in entry:
            target = math.log(entry["c"])
            expect(abs(out["upper"] - target) <= 1e-9 and abs(out["lower"] - target) <= 1e-9, "forms pinch")
            expect(out["pinched"] is True, "forms pinch flag")
        else:
            upper, lower = _forms_bounds(entry, shared["manifold"].weights)
            expect(out["upper"] == upper and out["lower"] == lower, f"forms bounds {out}")
            expect(out["pinched"] == (abs(upper - lower) <= 1e-9), "forms pinch flag")
