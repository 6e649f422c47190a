"""Synthetic fixture generators, and a memory probe, shared by the test modules."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from pathlib import Path

from mapregister.affine import AffineParams, Correspondence, CorrespondenceSet, PixelPoint, apply_affine
from mapregister.geodesy import GeoPoint, walk

from oracles import SCALAR_WGS84, GeodesicLine, scalar_distance


def random_affine(rng: random.Random, base_lon=None, base_lat=None) -> AffineParams:
    """A well-conditioned transform whose images stay inside valid latitudes
    for pixels in roughly [0, 400]^2."""
    if base_lon is None:
        base_lon = rng.uniform(-30.0, 30.0)
    if base_lat is None:
        base_lat = rng.uniform(-45.0, 45.0)
    scale = rng.uniform(0.005, 0.03)
    theta = rng.uniform(0.0, 2 * math.pi)
    shear = rng.uniform(-0.3, 0.3)
    a1 = scale * math.cos(theta)
    a2 = scale * (math.sin(theta) + shear * math.cos(theta))
    a3 = -scale * math.sin(theta)
    a4 = scale * (math.cos(theta) - shear * math.sin(theta))
    return AffineParams(a1, a2, a3, a4, base_lon, base_lat)


def random_pixels(rng: random.Random, n: int, lo=0.0, hi=300.0) -> list[PixelPoint]:
    """n pixel points, re-drawn until they are comfortably non-collinear."""
    while True:
        pts = [PixelPoint(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]
        xs = [p.x1 for p in pts]
        ys = [p.x2 for p in pts]
        cx = sum(xs) / n
        cy = sum(ys) / n
        sxx = sum((x - cx) ** 2 for x in xs)
        syy = sum((y - cy) ** 2 for y in ys)
        sxy = sum((x - cx) * (y - cy) for x, y in zip(xs, ys))
        det = sxx * syy - sxy * sxy
        if det > 1e-4 * (sxx + syy) ** 2 / 4:
            return pts


def synth_set(
    name: str,
    t: AffineParams,
    pixels: list[PixelPoint],
    rng: random.Random | None = None,
    noise_deg: float = 0.0,
) -> CorrespondenceSet:
    """Correspondences whose targets are t(pixel), optionally perturbed."""
    pairs = []
    for i, px in enumerate(pixels):
        g = apply_affine(t, px)
        lon, lat = g.lon, g.lat
        if noise_deg and rng is not None:
            lon += rng.uniform(-noise_deg, noise_deg)
            lat += rng.uniform(-noise_deg, noise_deg)
        pairs.append(Correspondence(px, GeoPoint(lon, lat), f"p{i}"))
    return CorrespondenceSet(name, pairs)


def walk_points(a: GeoPoint, b: GeoPoint, step: float) -> list[GeoPoint]:
    """Sample the geodesic from a to b at the given spacing, ends included,
    with the scalar reference engine."""
    total = scalar_distance(a, b)
    if total == 0.0:
        return [a]
    n = max(1, int(total // step))
    inv = SCALAR_WGS84.inverse(a.lat, a.lon, b.lat, b.lon)
    line = GeodesicLine(SCALAR_WGS84, a.lat, a.lon, inv.azi1)
    pts = [a]
    for k in range(1, n):
        lat, lon = line.position(total * k / n)
        pts.append(GeoPoint(lon, lat))
    pts.append(b)
    return pts


def densify_polyline(points: list[GeoPoint], spacing: float) -> list[GeoPoint]:
    """Points along a polyline at roughly uniform spacing, vertices included."""
    dense: list[GeoPoint] = []
    for a, b in zip(points, points[1:]):
        seg = walk_points(a, b, spacing)
        if dense:
            seg = seg[1:]
        dense.extend(seg)
    return dense


def random_curve(
    rng: random.Random,
    name: str,
    n: int = 18,
    start: GeoPoint | None = None,
    step_m: float = 2000.0,
    heading: float | None = None,
) -> list[GeoPoint]:
    """A smooth random-walk polyline: n vertices, roughly step_m apart."""
    if start is None:
        start = GeoPoint(rng.uniform(-20, 20), rng.uniform(-50, 50))
    if heading is None:
        heading = rng.uniform(0, 360)
    pts = [start]
    for _ in range(n - 1):
        heading += rng.uniform(-35, 35)
        pts.append(walk(pts[-1], heading, step_m * rng.uniform(0.6, 1.4)))
    return pts


# --- synthetic end-to-end experiment -------------------------------------

EXPERIMENT_REGIONS = {
    "coast west": (AffineParams(0.043, 0.002, 0.001, -0.0342, 7.9, 52.1), (25.0, 25.0)),
    "inland": (AffineParams(0.040, -0.001, 0.002, -0.0350, 8.2, 51.8), (60.0, 55.0)),
    "coast east": (AffineParams(0.037, 0.003, -0.001, -0.0338, 8.6, 52.0), (95.0, 30.0)),
}

EXPERIMENT_WAYPOINTS = [
    (18.0, 20.0), (25.0, 25.0), (40.0, 40.0), (60.0, 55.0),
    (80.0, 42.0), (95.0, 30.0), (108.0, 26.0),
]


def ring_pixels(cx: float, cy: float, radius: float, n: int = 6) -> list[PixelPoint]:
    return [
        PixelPoint(
            cx + radius * math.cos(2 * math.pi * k / n),
            cy + radius * math.sin(2 * math.pi * k / n),
        )
        for k in range(n)
    ]


def experiment_probe_pixels(step: float = 1.5) -> list[PixelPoint]:
    pts: list[PixelPoint] = []
    for (ax, ay), (bx, by) in zip(EXPERIMENT_WAYPOINTS, EXPERIMENT_WAYPOINTS[1:]):
        n = max(1, int(math.hypot(bx - ax, by - ay) / step))
        for k in range(n):
            pts.append(PixelPoint(ax + (bx - ax) * k / n, ay + (by - ay) * k / n))
    pts.append(PixelPoint(*EXPERIMENT_WAYPOINTS[-1]))
    return pts


def write_experiment(directory, noise_deg: float = 0.0, bands=(10.0, 50.0, 100.0)):
    """Write a complete three-region experiment into `directory`.

    Returns (config_path, truth) where truth maps region names to the exact
    transforms that generated the correspondence targets.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(1234)

    sets = []
    for name, (t, (cx, cy)) in EXPERIMENT_REGIONS.items():
        pixels = ring_pixels(cx, cy, 7.0)
        sets.append(synth_set(name, t, pixels, rng, noise_deg=noise_deg))
    write_correspondences(directory / "correspondences.txt", sets)

    probe = experiment_probe_pixels()
    write_pixel_curve(directory / "probe.txt", probe)

    t_mid = EXPERIMENT_REGIONS["inland"][0]
    main_pts = [apply_affine(t_mid, p) for p in probe[::2]]
    side_pts = [GeoPoint(p.lon + 0.35, p.lat) for p in main_pts]
    write_geo_curve(directory / "main.geojson", "main", main_pts)
    write_geo_curve(directory / "side.geojson", "side", side_pts)

    split_at = apply_affine(t_mid, PixelPoint(60.0, 55.0))
    config = f"""\
domain: {{x1_min: 1, x2_min: 1, x1_max: 120, x2_max: 90}}
correspondences: correspondences.txt
polygon_mode: order
source_curves:
  - {{name: probe, file: probe.txt}}
reference_curves:
  - {{name: main, file: main.geojson}}
  - {{name: side, file: side.geojson}}
splits:
  - {{curve: probe, lon: {split_at.lon!r}, lat: {split_at.lat!r}, names: [probe_up, probe_down]}}
  - {{curve: main, lon: {split_at.lon!r}, lat: {split_at.lat!r}, names: [main_up, main_down]}}
comparisons:
  - [main, probe]
  - [main_up, probe_up]
  - [side, probe]
source_comparisons:
  - [main, probe]
  - [side, probe]
bands_km: [{", ".join(str(b) for b in bands)}]
output_dir: out
"""
    config_path = directory / "experiment.yaml"
    config_path.write_text(config)
    truth = {name: t for name, (t, _) in EXPERIMENT_REGIONS.items()}
    return config_path, truth


def write_correspondences(path, sets: list[CorrespondenceSet]) -> None:
    """Correspondence sets in the file format `formats.read_correspondences`
    reads, with every number at full round-trip precision."""
    lines = ["# x1 x2 lon lat label"]
    for s in sets:
        lines.append(f"set {s.name}")
        for c in s.pairs:
            lines.append(
                f"{c.source.x1!r} {c.source.x2!r} {c.target.lon!r} {c.target.lat!r}"
                + (f" {c.label}" if c.label else "")
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_pixel_curve(path, points: list[PixelPoint]) -> None:
    """A pixel curve file as `formats.read_pixel_curve` reads it."""
    Path(path).write_text("".join(f"{p.x1!r} {p.x2!r}\n" for p in points))


def write_geo_curve(path, name: str, points: list[GeoPoint], length_km: float | None = None) -> None:
    """A GeoJSON FeatureCollection of one LineString, laid out as
    `formats.render_geojson_curve` lays it out; `length_km` is written only
    when given."""
    props: dict = {"name": name, "point_count": len(points)}
    if length_km is not None:
        props["length_km"] = length_km
    feature = {
        "type": "Feature",
        "properties": props,
        "geometry": {
            "type": "LineString",
            "coordinates": [[p.lon, p.lat] for p in points],
        },
    }
    Path(path).write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}, indent=2) + "\n")


def traced_peak(fn):
    """Call `fn()` under tracemalloc: (its result, the peak of the bytes
    allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
