"""Deterministic input generator for the benchmark workloads.

Each generated workload is a complete experiment directory: a
correspondence file, one digitized pixel curve, one reference GeoJSON
curve and an `experiment.yaml`.  The generator does its own (affine)
arithmetic and imports nothing from `mapregister`, so the inputs stay the
same when the program under test changes.

The seed selects one of `VARIANTS` input sets per workload (seed modulo
`VARIANTS`).  The output check compares every run with references recorded
for that input set, so the number of distinct inputs is bounded by the
references kept in `refs/`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CONFIG = ROOT / "sample_data" / "experiment.yaml"

#: Distinct input sets per generated workload; the seed is taken modulo this.
VARIANTS = 16


@dataclass(frozen=True)
class Shape:
    """Size of one generated experiment."""

    n1: int  # grid nodes along x1
    n2: int  # grid nodes along x2
    region_cols: int
    region_rows: int
    landmarks: int  # per region
    source_points: int
    reference_points: int
    comparisons: tuple[tuple[str, str], ...]
    source_comparisons: tuple[tuple[str, str], ...] = ()
    dump_field: bool = False


# Why each workload exists (also recorded in BENCHMARK.json):
# - long_curves: a few hundred vertices per curve on a small grid, so the
#   quadratic anchor-distance pass dominates and the field is negligible.
# - large_grid: many regions on a large grid with short curves, so field
#   assembly, LU factorization and the affine cross-evaluation dominate.
# - dense_transform: one densely digitized curve, no Hausdorff comparison,
#   a field dump; field sampling, segment building, `direct` and the write
#   path dominate instead of the anchor pass.
SHAPES = {
    "long_curves": Shape(
        n1=240, n2=180, region_cols=3, region_rows=1, landmarks=6,
        source_points=75, reference_points=75,
        comparisons=(("reference", "source"), ("reference", "source upper")),
    ),
    "large_grid": Shape(
        n1=560, n2=420, region_cols=5, region_rows=4, landmarks=8,
        source_points=40, reference_points=30,
        comparisons=(("reference", "source"),),
    ),
    "dense_transform": Shape(
        n1=320, n2=240, region_cols=2, region_rows=2, landmarks=6,
        source_points=5000, reference_points=20,
        comparisons=(),
        source_comparisons=(("reference", "source"),),
        dump_field=True,
    ),
}

#: Self-test sizes: same structure, seconds instead of minutes.
TINY_SHAPES = {
    "long_curves": Shape(
        n1=60, n2=45, region_cols=3, region_rows=1, landmarks=6,
        source_points=12, reference_points=12,
        comparisons=SHAPES["long_curves"].comparisons,
    ),
    "large_grid": Shape(
        n1=80, n2=60, region_cols=3, region_rows=2, landmarks=8,
        source_points=10, reference_points=8,
        comparisons=SHAPES["large_grid"].comparisons,
    ),
    "dense_transform": Shape(
        n1=60, n2=45, region_cols=2, region_rows=2, landmarks=6,
        source_points=200, reference_points=6,
        comparisons=(),
        source_comparisons=SHAPES["dense_transform"].source_comparisons,
        dump_field=True,
    ),
}

WORKLOADS = ("sample", *SHAPES)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def file_digests(directory: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in sorted(names)}


def _affine(t, x1, x2):
    a1, a2, a3, a4, b1, b2 = t
    return a1 * x1 + a2 * x2 + b1, a3 * x1 + a4 * x2 + b2


def _densify(path, n):
    """n points evenly spaced by arc length along a pixel polyline."""
    cum = [0.0]
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        cum.append(cum[-1] + math.hypot(bx - ax, by - ay))
    out, k = [], 0
    for i in range(n):
        s = cum[-1] * i / (n - 1)
        while k < len(path) - 2 and cum[k + 1] < s:
            k += 1
        seg = cum[k + 1] - cum[k]
        u = min(max((s - cum[k]) / seg, 0.0), 1.0)
        (ax, ay), (bx, by) = path[k], path[k + 1]
        out.append((ax + u * (bx - ax), ay + u * (by - ay)))
    return out


def _fmt(v: float) -> str:
    return repr(float(v))


def generate(workload: str, seed: int, directory: Path, shape: Shape | None = None):
    """Write the inputs of one workload into `directory`.

    Returns (config path, {input file: sha256}).  `sample` is the shipped
    experiment, unchanged; its seed has no effect.
    """
    if workload == "sample":
        base = SAMPLE_CONFIG.parent
        names = ["experiment.yaml", "correspondences.txt", "river_pixels.txt",
                 "main_river.geojson", "side_river.geojson"]
        return SAMPLE_CONFIG, file_digests(base, names)

    shape = shape or SHAPES[workload]
    rng = random.Random(f"{workload}:{variant_of(seed)}")
    n1, n2 = shape.n1, shape.n2
    # About four degrees of longitude across the grid, rows run southward.
    s = 4.0 / n1 * rng.uniform(0.95, 1.05)
    base_t = (s, 0.05 * s, 0.03 * s, -0.65 * s, rng.uniform(7.0, 9.0), rng.uniform(50.0, 53.0))

    # Regions: star-shaped landmark rings, one per cell of a lattice that
    # keeps envelopes apart and clear of the domain boundary.
    margin = 4.0
    cw = (n1 - 1 - 2 * margin) / shape.region_cols
    ch = (n2 - 1 - 2 * margin) / shape.region_rows
    radius = 0.3 * min(cw, ch)
    lines = ["# x1 x2 lon lat label"]
    for r in range(shape.region_rows):
        for c in range(shape.region_cols):
            cx = 1 + margin + (c + 0.5) * cw + rng.uniform(-0.1, 0.1) * cw
            cy = 1 + margin + (r + 0.5) * ch + rng.uniform(-0.1, 0.1) * ch
            t = tuple(v * (1 + rng.uniform(-0.03, 0.03)) for v in base_t[:4]) + (
                base_t[4] + rng.uniform(-0.02, 0.02),
                base_t[5] + rng.uniform(-0.02, 0.02),
            )
            name = f"region {r}-{c}"
            lines.append(f"set {name}")
            phase = rng.uniform(0.0, 2 * math.pi)
            for k in range(shape.landmarks):
                ang = phase + 2 * math.pi * k / shape.landmarks
                rad = radius * rng.uniform(0.85, 1.0)
                x1, x2 = cx + rad * math.cos(ang), cy + rad * math.sin(ang)
                lon, lat = _affine(t, x1, x2)
                lon += rng.uniform(-1e-3, 1e-3)
                lat += rng.uniform(-1e-3, 1e-3)
                lines.append(f"{_fmt(x1)} {_fmt(x2)} {_fmt(lon)} {_fmt(lat)} {name.replace(' ', '_')}_{k}")
    (directory / "correspondences.txt").write_text("\n".join(lines) + "\n")

    # Source curve: a meandering west-east course through the whole grid.
    lo2, hi2 = 3.0, n2 - 2.0
    way = [(2.0, rng.uniform(lo2, hi2))]
    steps = 8
    for k in range(1, steps + 1):
        x1 = 2.0 + (n1 - 4.0) * k / steps
        x2 = min(max(way[-1][1] + rng.uniform(-0.3, 0.3) * n2, lo2), hi2)
        way.append((x1, x2))
    source = _densify(way, shape.source_points)
    (directory / "source.txt").write_text("".join(f"{_fmt(a)} {_fmt(b)}\n" for a, b in source))

    # Reference curve: the same course, jittered, mapped by the base affine.
    jitter = [(x1, x2 + rng.uniform(-1.5, 1.5)) for x1, x2 in way]
    ref = [_affine(base_t, a, b) for a, b in _densify(jitter, shape.reference_points)]
    fc = {
        "type": "FeatureCollection",
        "features": [{
            "type": "Feature",
            "properties": {"name": "reference"},
            "geometry": {"type": "LineString", "coordinates": [[lon, lat] for lon, lat in ref]},
        }],
    }
    (directory / "reference.geojson").write_text(json.dumps(fc, indent=2) + "\n")

    split_lon, split_lat = _affine(base_t, *way[steps // 2])
    pairs = lambda ps: "[" + ", ".join(f"[{a}, {b}]" for a, b in ps) + "]"
    config = f"""\
domain: {{x1_min: 1, x2_min: 1, x1_max: {n1}, x2_max: {n2}}}
correspondences: correspondences.txt
polygon_mode: order
source_curves:
  - {{name: source, file: source.txt}}
reference_curves:
  - {{name: reference, file: reference.geojson}}
splits:
  - {{curve: source, lon: {_fmt(split_lon)}, lat: {_fmt(split_lat)}, names: [source upper, source lower]}}
comparisons: {pairs(shape.comparisons)}
source_comparisons: {pairs(shape.source_comparisons)}
bands_km: [1, 5, 20]
output_dir: out
dump_field: {str(shape.dump_field).lower()}
"""
    (directory / "experiment.yaml").write_text(config)
    names = ["experiment.yaml", "correspondences.txt", "source.txt", "reference.geojson"]
    return directory / "experiment.yaml", file_digests(directory, names)
