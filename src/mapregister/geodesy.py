"""WGS84 positions and geodesic distance primitives.

All metric quantities in this package reduce to the operations here:
point-to-point geodesic distance, point-to-segment distance via a local
azimuthal equidistant (AEQD) projection, and polyline lengths.  Distances
are in meters, coordinates in degrees.

The planar-chord method exists once, on arrays: `plane_coords` projects
points into the AEQD planes of their centers and `origin_to_chord` measures
from a center to a projected edge.  Segments longer than `LONG_SEGMENT_M`
are sampled by `densify` and measured by `densified_distances`.  The curve
metrics and `point_to_segment_distance` both use these.  The straight chord
between `ecef` points (`chords`) bounds a geodesic distance from below; the
skip tests of the distance passes rest on it.
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
#: Margins of the chord-bound skip tests, far above the roundoff of the
#: chords, the geodesic lengths and the planar chords.
PRUNE_RTOL = 1e-9
PRUNE_ATOL_M = 1e-3


def normalize_lon(lon: float) -> float:
    """Map a longitude to (-180, 180]."""
    r = math.fmod(lon + 180.0, 360.0)
    if r <= 0.0:
        r += 360.0
    return r - 180.0


def normalize_lon_many(lon) -> np.ndarray:
    """`normalize_lon` on an array; `np.fmod` is exact, like `math.fmod`."""
    r = np.fmod(np.asarray(lon) + 180.0, 360.0)
    return np.where(r <= 0.0, r + 360.0, r) - 180.0


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
    lat, lon = WGS84.direct(p.lat, p.lon, r.azi1, r.s12 / 2)
    return GeoPoint(lon, lat)


def walk(p: GeoPoint, azimuth_deg: float, distance_m: float) -> GeoPoint:
    """Destination after travelling distance_m along azimuth_deg from p."""
    lat, lon = WGS84.direct(p.lat, p.lon, azimuth_deg, distance_m)
    return GeoPoint(lon, lat)


def polyline_length(points: list[GeoPoint]) -> float:
    """Sum of geodesic lengths over consecutive point pairs (meters)."""
    if not points:
        raise OutOfRangeError("polyline_length needs at least one point")
    lat = np.array([p.lat for p in points])
    lon = np.array([p.lon for p in points])
    return sum(geodesic_distance_many(lat[:-1], lon[:-1], lat[1:], lon[1:]).tolist())


def plane_coords(lat0, lon0, lat, lon) -> tuple[np.ndarray, np.ndarray]:
    """Azimuthal equidistant (x, y) in meters of the points (lat, lon) in
    the planes centered at (lat0, lon0), for broadcast arrays.

    The radial distance is the true geodesic distance; a point on its
    center maps to the exact origin without an inverse solution.
    """
    lat0, lon0, lat, lon = np.broadcast_arrays(lat0, lon0, lat, lon)
    off = (lat != lat0) | (lon != lon0)
    s12, azi1 = WGS84.inverse_many(lat0[off], lon0[off], lat[off], lon[off])
    az = np.radians(azi1)
    x, y = np.zeros((2, *off.shape))
    x[off] = s12 * np.sin(az)
    y[off] = s12 * np.cos(az)
    return x, y


def origin_to_chord(ax, ay, bx, by) -> np.ndarray:
    """Distance from the plane origin to each chord (ax, ay)-(bx, by)."""
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    zero = dd == 0.0
    t = np.clip(-(ax * dx + ay * dy) / np.where(zero, 1.0, dd), 0.0, 1.0)
    return np.where(zero, np.hypot(ax, ay), np.hypot(ax + t * dx, ay + t * dy))


def densify(lat1: float, lon1: float, lat2: float, lon2: float) -> tuple[np.ndarray, np.ndarray]:
    """Points every `DENSIFY_STEP_M` along the geodesic from (lat1, lon1) to
    (lat2, lon2), both ends included: (lat, lon) arrays, longitudes
    normalized as `GeoPoint` does."""
    s12, azi1 = WGS84.inverse_many(lat1, lon1, lat2, lon2)
    dists = DENSIFY_STEP_M * np.arange(int(s12 // DENSIFY_STEP_M) + 1)
    if dists[-1] < s12:
        dists = np.append(dists, s12)
    lat, lon = WGS84.direct_many(lat1, lon1, azi1, dists)
    return lat, normalize_lon_many(lon)


def densified_distances(lat, lon, slat, slon) -> np.ndarray:
    """Distance from each point (lat, lon) to a segment given by its
    `densify` samples: the distance to the nearest sample (the first of
    ties), or less if the chord between that sample's neighbours passes
    closer in the point's own plane.

    Only samples that could be nearest are solved: the straight (ECEF)
    chord to a sample is a lower bound on its geodesic distance, so a
    sample whose chord exceeds the geodesic distance to the chord-nearest
    sample (with a margin) is not the nearest and is skipped.  No (point,
    sample) pair is solved twice.
    """
    lat, lon = lat[:, None], lon[:, None]
    chord = chords(ecef(lat[:, 0], lon[:, 0]), ecef(slat, slon))
    near = chord.argmin(axis=1)[:, None]
    bound = geodesic_distance_many(lat, lon, slat[near], slon[near])
    d = np.full(chord.shape, np.inf)
    np.put_along_axis(d, near, bound, axis=1)
    rest = chord * (1 - PRUNE_RTOL) - PRUNE_ATOL_M <= bound
    np.put_along_axis(rest, near, False, axis=1)
    i, j = np.nonzero(rest)
    if i.size:
        d[i, j] = geodesic_distance_many(lat[i, 0], lon[i, 0], slat[j], slon[j])
    k = d.argmin(axis=1)[:, None]
    lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, len(slat) - 1)
    ax, ay = plane_coords(lat, lon, slat[lo], slon[lo])
    bx, by = plane_coords(lat, lon, slat[hi], slon[hi])
    best = np.take_along_axis(d, k, axis=1)
    return np.minimum(best, origin_to_chord(ax, ay, bx, by))[:, 0]


def ecef(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Earth-centred Cartesian coordinates (m, 3) in meters of geodetic
    positions; the straight chord between two of them is a lower bound on
    their geodesic distance."""
    phi, lam = np.radians(lat), np.radians(lon)
    n = WGS84.a / np.sqrt(1 - WGS84.e2 * np.sin(phi) ** 2)
    r = n * np.cos(phi)
    return np.stack([r * np.cos(lam), r * np.sin(lam), n * (1 - WGS84.e2) * np.sin(phi)], axis=1)


def chords(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Straight-line distances (n, m) between the `ecef` points p (n, 3)
    and q (m, 3)."""
    return np.sqrt(sum((p[:, None, i] - q[:, i]) ** 2 for i in range(3)))


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
    lat, lon = np.array([p.lat]), np.array([p.lon])
    if geodesic_distance(s.start, s.end) > LONG_SEGMENT_M:
        d = densified_distances(lat, lon, *densify(s.start.lat, s.start.lon, s.end.lat, s.end.lon))
        return float(d[0])
    x, y = plane_coords(p.lat, p.lon, [s.start.lat, s.end.lat], [s.start.lon, s.end.lon])
    return float(origin_to_chord(x[0], y[0], x[1], y[1]))
