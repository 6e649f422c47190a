"""WGS84 positions and geodesic distance primitives.

All metric quantities in this package reduce to the operations here:
point-to-point geodesic distance and the planar chord of an edge in a
local azimuthal equidistant (AEQD) projection.  Distances are in meters,
coordinates in degrees.

The planar-chord method exists once, on arrays, for the anchor-distance
pass of the curve metrics: `plane_coords` projects points into the AEQD
planes of their centers and `origin_to_chord` measures from a center to a
projected edge.  An edge longer than `LONG_SEGMENT_M` is measured as the
sub-edges between its `densify` samples, about 1 km each.  The straight
chord between `ecef` points (`chords`) bounds a geodesic distance from
below; the skip test of the distance pass rests on it.

Coincident points, zero-length walks and longitudes follow the engine's
exact rules; `normalize_lon_many` is its exact reduction to (-180, 180].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geodesic import WGS84, _ang_normalize_many as normalize_lon_many
from .errors import OutOfRangeError

#: Edges longer than this are measured as the sub-edges between their
#: `densify` samples.
LONG_SEGMENT_M = 100_000.0
#: Step used to densify long edges.
DENSIFY_STEP_M = 1_000.0


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
        object.__setattr__(self, "lon", float(normalize_lon_many(self.lon)))


def geodesic_distance(p: GeoPoint, q: GeoPoint) -> float:
    """Length in meters of the shortest geodesic from p to q."""
    return WGS84.inverse(p.lat, p.lon, q.lat, q.lon).s12


def geodesic_distance_many(lat1, lon1, lat2, lon2) -> np.ndarray:
    """`geodesic_distance` on broadcast coordinate arrays (meters)."""
    return WGS84.inverse_many(lat1, lon1, lat2, lon2)[0]


def walk(p: GeoPoint, azimuth_deg: float, distance_m: float) -> GeoPoint:
    """Destination after travelling distance_m along azimuth_deg from p."""
    lat, lon = WGS84.direct(p.lat, p.lon, azimuth_deg, distance_m)
    return GeoPoint(lon, lat)


def plane_coords(lat0, lon0, lat, lon) -> tuple[np.ndarray, np.ndarray]:
    """Azimuthal equidistant (x, y) in meters of the points (lat, lon) in
    the planes centered at (lat0, lon0), for broadcast arrays.

    The radial distance is the true geodesic distance, so a point on its
    center maps to the exact origin.
    """
    s12, azi1 = WGS84.inverse_many(lat0, lon0, lat, lon)
    az = np.radians(azi1)
    return s12 * np.sin(az), s12 * np.cos(az)


def origin_to_chord(ax, ay, bx, by) -> np.ndarray:
    """Distance from the plane origin to each chord (ax, ay)-(bx, by)."""
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    zero = dd == 0.0
    t = np.clip(-(ax * dx + ay * dy) / np.where(zero, 1.0, dd), 0.0, 1.0)
    return np.where(zero, np.hypot(ax, ay), np.hypot(ax + t * dx, ay + t * dy))


def densify(lat1: float, lon1: float, lat2: float, lon2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points every `DENSIFY_STEP_M` along the geodesic from (lat1, lon1) to
    (lat2, lon2): (lat, lon, distance from the start) arrays.  The first and
    last points are the two ends exactly as given; only the interior points
    are solved."""
    s12, azi1 = WGS84.inverse_many(lat1, lon1, lat2, lon2)
    dists = DENSIFY_STEP_M * np.arange(int(s12 // DENSIFY_STEP_M) + 1)
    if dists[-1] < s12:
        dists = np.append(dists, s12)
    lat, lon = WGS84.direct_many(lat1, lon1, azi1, dists)
    lat[[0, -1]], lon[[0, -1]] = (lat1, lat2), (lon1, lon2)
    return lat, lon, dists


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
