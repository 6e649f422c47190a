#!/usr/bin/env python3
"""Regenerate the synthetic demo inputs in this directory.

The fixtures mimic a small historical-map registration job: three landmark
regions with slightly different local transforms, one digitized source
curve crossing all three, and two reference curves on the current map.
Everything is synthetic; rerunning this script reproduces the files
byte for byte.
"""

import math
import random
import sys
from pathlib import Path

from mapregister.affine import AffineParams, Correspondence, CorrespondenceSet, PixelPoint, apply_affine
from mapregister.geodesy import GeoPoint

HERE = Path(__file__).parent
# The input writers live with the test fixtures, the package only reads.
sys.path.insert(0, str(HERE.parent / "tests"))
from synth import write_correspondences, write_geo_curve, write_pixel_curve  # noqa: E402

REGIONS = {
    "coast west": (AffineParams(0.043, 0.002, 0.001, -0.0342, 7.9, 52.1), (25.0, 25.0)),
    "inland": (AffineParams(0.040, -0.001, 0.002, -0.0350, 8.2, 51.8), (60.0, 55.0)),
    "coast east": (AffineParams(0.037, 0.003, -0.001, -0.0338, 8.6, 52.0), (95.0, 30.0)),
}

WAYPOINTS = [
    (18.0, 20.0), (25.0, 25.0), (40.0, 40.0), (60.0, 55.0),
    (80.0, 42.0), (95.0, 30.0), (108.0, 26.0),
]


def ring(cx, cy, radius, n=6):
    return [
        PixelPoint(cx + radius * math.cos(2 * math.pi * k / n),
                   cy + radius * math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]


def main():
    rng = random.Random(20240915)

    sets = []
    for name, (t, (cx, cy)) in REGIONS.items():
        pairs = []
        for i, px in enumerate(ring(cx, cy, 7.0)):
            g = apply_affine(t, px)
            lon = g.lon + rng.uniform(-0.02, 0.02)
            lat = g.lat + rng.uniform(-0.02, 0.02)
            pairs.append(Correspondence(px, GeoPoint(lon, lat), f"{name.replace(' ', '_')}_{i}"))
        sets.append(CorrespondenceSet(name, pairs))
    write_correspondences(HERE / "correspondences.txt", sets)

    pixels = []
    for (ax, ay), (bx, by) in zip(WAYPOINTS, WAYPOINTS[1:]):
        n = max(1, int(math.hypot(bx - ax, by - ay) / 1.5))
        for k in range(n):
            pixels.append(PixelPoint(ax + (bx - ax) * k / n, ay + (by - ay) * k / n))
    pixels.append(PixelPoint(*WAYPOINTS[-1]))
    write_pixel_curve(HERE / "river_pixels.txt", pixels)

    t_mid = REGIONS["inland"][0]
    main_pts = [apply_affine(t_mid, p) for p in pixels[::2]]
    side_pts = [GeoPoint(p.lon + 0.35, p.lat + 0.05) for p in main_pts]
    write_geo_curve(HERE / "main_river.geojson", "main river", main_pts)
    write_geo_curve(HERE / "side_river.geojson", "side river", side_pts)

    split_at = apply_affine(t_mid, PixelPoint(60.0, 55.0))
    (HERE / "experiment.yaml").write_text(f"""\
# Synthetic demo experiment: three landmark regions, one digitized source
# curve ("river"), two reference curves on the current map.
domain: {{x1_min: 1, x2_min: 1, x1_max: 120, x2_max: 90}}
correspondences: correspondences.txt
polygon_mode: order
source_curves:
  - {{name: river, file: river_pixels.txt}}
reference_curves:
  - {{name: main river, file: main_river.geojson}}
  - {{name: side river, file: side_river.geojson}}
splits:
  - {{curve: river, lon: {split_at.lon!r}, lat: {split_at.lat!r}, names: [river upper, river lower]}}
  - {{curve: main river, lon: {split_at.lon!r}, lat: {split_at.lat!r}, names: [main upper, main lower]}}
comparisons:
  - [main river, river]
  - [main upper, river upper]
  - [main lower, river lower]
  - [side river, river]
source_comparisons:
  - [main river, river]
  - [side river, river]
bands_km: [10, 50, 100]
output_dir: out
""")
    print(f"wrote demo inputs to {HERE}")


if __name__ == "__main__":
    main()
