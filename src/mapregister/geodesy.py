"""WGS84 positions and geodesic distance primitives.

All metric quantities in this package reduce to the operations here:
point-to-point geodesic distance, point-to-segment distance via a local
azimuthal equidistant projection, and polyline lengths.  Distances are in
meters, coordinates in degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geodesic import WGS84
from .errors import OutOfRangeError

#: Segments longer than this are densified before the local projection.
LONG_SEGMENT_M = 100_000.0
#: Step used to densify long segments.
DENSIFY_STEP_M = 1_000.0


def normalize_lon(lon: float) -> float:
    """Map a longitude to (-180, 180]."""
    r = math.fmod(lon + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


@dataclass(frozen=True)
class GeoPoint:
    """A position on the WGS84 ellipsoid (degrees, longitude first)."""

    lon: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise OutOfRangeError(f"non-finite coordinates ({self.lon}, {self.lat})")
        if not -90.0 <= self.lat <= 90.0:
            raise OutOfRangeError(f"latitude {self.lat} outside [-90, 90]")
        object.__setattr__(self, "lon", normalize_lon(self.lon))


@dataclass(frozen=True)
class GeoSegment:
    """A short geodesic segment between two points.

    Zero-length segments are allowed and reported by `is_degenerate`.
    """

    start: GeoPoint
    end: GeoPoint

    @property
    def is_degenerate(self) -> bool:
        return self.start == self.end


def geodesic_distance(p: GeoPoint, q: GeoPoint) -> float:
    """Length in meters of the shortest geodesic from p to q."""
    if p.lat == q.lat and p.lon == q.lon:
        return 0.0
    return WGS84.inverse(p.lat, p.lon, q.lat, q.lon).s12


def geodesic_distance_many(lat1, lon1, lat2, lon2) -> np.ndarray:
    """`geodesic_distance` on broadcast coordinate arrays (meters), with the
    same exact 0.0 for coincident points."""
    s12, _ = WGS84.inverse_many(lat1, lon1, lat2, lon2)
    return np.where((lat1 == lat2) & (lon1 == lon2), 0.0, s12)


def geodesic_midpoint(p: GeoPoint, q: GeoPoint) -> GeoPoint:
    """The point halfway along the geodesic from p to q."""
    if p == q:
        return p
    r = WGS84.inverse(p.lat, p.lon, q.lat, q.lon)
    lat, lon, _ = WGS84.direct(p.lat, p.lon, r.azi1, r.s12 / 2)
    return GeoPoint(lon, lat)


def walk(p: GeoPoint, azimuth_deg: float, distance_m: float) -> GeoPoint:
    """Destination after travelling distance_m along azimuth_deg from p."""
    lat, lon, _ = WGS84.direct(p.lat, p.lon, azimuth_deg, distance_m)
    return GeoPoint(lon, lat)


def polyline_length(points: list[GeoPoint]) -> float:
    """Sum of geodesic lengths over consecutive point pairs (meters)."""
    if not points:
        raise OutOfRangeError("polyline_length needs at least one point")
    return sum(geodesic_distance(a, b) for a, b in zip(points, points[1:]))


def _plane_coords(center: GeoPoint, p: GeoPoint) -> tuple[float, float]:
    # Azimuthal equidistant coordinates of p in the plane centered at
    # `center`: radial distance is the true geodesic distance.
    if p.lat == center.lat and p.lon == center.lon:
        return 0.0, 0.0
    r = WGS84.inverse(center.lat, center.lon, p.lat, p.lon)
    az = math.radians(r.azi1)
    return r.s12 * math.sin(az), r.s12 * math.cos(az)


def _origin_to_chord(ax: float, ay: float, bx: float, by: float) -> float:
    # Distance from the plane origin to the segment (ax,ay)-(bx,by).
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return math.hypot(ax, ay)
    t = -(ax * dx + ay * dy) / dd
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(ax + t * dx, ay + t * dy)


def _projected_distance(p: GeoPoint, a: GeoPoint, b: GeoPoint) -> float:
    ax, ay = _plane_coords(p, a)
    bx, by = _plane_coords(p, b)
    return _origin_to_chord(ax, ay, bx, by)


def point_to_segment_distance(p: GeoPoint, s: GeoSegment) -> float:
    """Minimum geodesic distance in meters from p to the segment s.

    The segment endpoints are projected into the azimuthal equidistant plane
    centered at p and the planar point-to-segment distance is taken; radial
    distances from the center are exact under this projection, so the error
    is negligible for the short segments digitized curves produce.  Segments
    longer than `LONG_SEGMENT_M` are first densified at `DENSIFY_STEP_M`
    steps and the minimum is refined around the best sample.
    """
    if s.is_degenerate:
        return geodesic_distance(p, s.start)
    inv = WGS84.inverse(s.start.lat, s.start.lon, s.end.lat, s.end.lon)
    if inv.s12 <= LONG_SEGMENT_M:
        return _projected_distance(p, s.start, s.end)

    line = WGS84.line(s.start.lat, s.start.lon, inv.azi1)
    steps = int(inv.s12 // DENSIFY_STEP_M)
    dists = [DENSIFY_STEP_M * k for k in range(steps + 1)]
    if dists[-1] < inv.s12:
        dists.append(inv.s12)
    samples = []
    for d in dists:
        lat, lon, _ = line.position(d)
        samples.append(GeoPoint(lon, lat))
    point_d = [geodesic_distance(p, q) for q in samples]
    k = min(range(len(samples)), key=point_d.__getitem__)
    lo = samples[max(k - 1, 0)]
    hi = samples[min(k + 1, len(samples) - 1)]
    return min(point_d[k], _projected_distance(p, lo, hi))
