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
chord c between `ecef` points (`chords`) bounds a geodesic distance from
below, and `chord_bound` from above as a function of c alone; the skip
test of the distance pass rests on both.

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


def densify(lat1, lon1, lat2, lon2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points every `DENSIFY_STEP_M` along the geodesics from (lat1, lon1)
    to (lat2, lon2) of one edge or K edges (equal-length arrays): (lat, lon,
    distance from the edge's start), each edge's run in turn, from 0 to its
    length.  A run's ends are its edge's ends exactly as given; one
    `inverse_many` and one `direct_many` solve the interior points."""
    lat1, lon1, lat2, lon2 = np.atleast_1d(lat1, lon1, lat2, lon2)
    s12, azi1 = WGS84.inverse_many(lat1, lon1, lat2, lon2)
    steps = (s12 // DENSIFY_STEP_M).astype(int)  # whole steps within s12
    counts = steps + 1 + (DENSIFY_STEP_M * steps < s12)  # and s12 after a shorter step
    last = np.cumsum(counts) - 1
    first = last + 1 - counts
    edge = np.repeat(np.arange(len(counts)), counts)
    dists = np.minimum(DENSIFY_STEP_M * (np.arange(len(edge)) - first[edge]), s12[edge])  # the step past s12 is s12
    lat, lon = WGS84.direct_many(lat1[edge], lon1[edge], azi1[edge], dists)
    lat[first], lon[first] = lat1, lon1
    lat[last], lon[last] = lat2, lon2
    return lat, lon, dists


def ecef(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Earth-centred Cartesian coordinates (m, 3) in meters of geodetic
    positions."""
    phi, lam = np.radians(lat), np.radians(lon)
    n = WGS84.a / np.sqrt(1 - WGS84.e2 * np.sin(phi) ** 2)
    r = n * np.cos(phi)
    return np.stack([r * np.cos(lam), r * np.sin(lam), n * (1 - WGS84.e2) * np.sin(phi)], axis=1)


def chords(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Straight-line distances (n, m) between the `ecef` points p (n, 3)
    and q (m, 3)."""
    return np.sqrt(sum((p[:, None, i] - q[:, i]) ** 2 for i in range(3)))


def chord_bound(c: np.ndarray) -> np.ndarray:
    """An upper bound in meters on the geodesic distance of two points whose
    `ecef` chord is c: 2 r asin(c / 2 r), r = b^2 / a, below
    C0 = 2 b - pi (a - r) (about 12,579.4 km), and +inf from C0 up.

    Proof for P, Q with c < C0.  (1) The plane through the centre, P and Q
    cuts a great ellipse with semi-axes a and b' in [b, a], of curvature at
    most a / b'^2 <= 1 / r; the geodesic is no longer than its shorter arc
    L from P to Q.  (2) By Schur's comparison (the bow lemma), a plane
    convex arc of curvature at most 1 / r and L <= pi r has
    c >= 2 r sin(L / 2 r), so L <= 2 r asin(c / 2 r).  (3) That arc lies on
    a half of the ellipse from P to -P, at most pi a long; a point more than
    pi r along it is within pi (a - r) (about 134 km) of -P, so its chord
    from P is at least 2 |P| - pi (a - r) >= C0.  So c < C0 gives L <= pi r.
    """
    r = WGS84.b**2 / WGS84.a
    c0 = 2 * WGS84.b - math.pi * (WGS84.a - r)
    return np.where(c < c0, 2 * r * np.arcsin(np.minimum(c, c0) / (2 * r)), np.inf)
