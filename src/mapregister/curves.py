"""Discrete curves and geodesic similarity metrics.

A digitized course A = {a_1, ..., a_n} is carried by n segments built with
the midpoint rule: the first runs from a_1 to the midpoint of (a_1, a_2),
interior segment i joins the midpoints of its two adjacent edges through
a_i, and the last runs from the final midpoint to a_n.  Every metric here
reduces to the minimum geodesic distance from an anchor vertex a_i to the
other curve's segments: length-weighted means and maxima give the directed
Hausdorff quantities, a threshold gate on the same distances gives the
matching length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._geodesic import WGS84
from .errors import DegenerateCurveError, OutOfRangeError
from .geodesy import (
    LONG_SEGMENT_M,
    GeoPoint,
    GeoSegment,
    geodesic_distance,
    geodesic_midpoint,
    point_to_segment_distance,
)

#: Anchor x chain-point pairs projected per array batch in
#: `anchor_min_distances`; keeps its temporaries to a few megabytes.
ANCHOR_BATCH_PAIRS = 4096


@dataclass(frozen=True)
class BandThreshold:
    """Matching-band width d_t in meters."""

    meters: float

    def __post_init__(self):
        if not (self.meters > 0 and math.isfinite(self.meters)):
            raise OutOfRangeError(f"band threshold must be positive, got {self.meters}")

    @classmethod
    def from_km(cls, km: float) -> "BandThreshold":
        return cls(km * 1000.0)

    @property
    def km(self) -> float:
        return self.meters / 1000.0


@dataclass(frozen=True)
class CurveSegment:
    """One midpoint-rule segment: its anchor vertex and one or two geodesic
    pieces whose lengths sum to `length`."""

    anchor: GeoPoint
    pieces: tuple[GeoSegment, ...]
    length: float


@dataclass
class DiscreteCurve:
    """An ordered polyline on the ellipsoid with derived segments.

    `chain` interleaves the vertices with the edge midpoints; consecutive
    chain points delimit the segment pieces, and `edge_lengths[k]` is the
    geodesic length from chain[k] to chain[k + 1].  `length` is the sum of
    the segment lengths and agrees with the polyline length to roundoff.
    """

    name: str
    points: list[GeoPoint]
    segments: list[CurveSegment]
    chain: list[GeoPoint]
    edge_lengths: list[float]
    length: float

    @property
    def point_count(self) -> int:
        return len(self.points)


def build_segments(points: list[GeoPoint], name: str = "") -> DiscreteCurve:
    """Construct a curve and its midpoint-rule segments.

    Consecutive duplicate points are dropped first; fewer than two distinct
    points leave nothing to measure.  Midpoints are geodesic midpoints, so
    the two halves of an edge have equal geodesic length.
    """
    pts: list[GeoPoint] = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    if len(pts) < 2:
        raise DegenerateCurveError(f"curve '{name}' has {len(pts)} distinct points, need at least 2")

    n = len(pts)
    mids = [geodesic_midpoint(pts[i], pts[i + 1]) for i in range(n - 1)]
    left_half = [geodesic_distance(pts[i], mids[i]) for i in range(n - 1)]
    right_half = [geodesic_distance(mids[i], pts[i + 1]) for i in range(n - 1)]

    segments = [CurveSegment(pts[0], (GeoSegment(pts[0], mids[0]),), left_half[0])]
    for i in range(1, n - 1):
        pieces = (GeoSegment(mids[i - 1], pts[i]), GeoSegment(pts[i], mids[i]))
        segments.append(CurveSegment(pts[i], pieces, right_half[i - 1] + left_half[i]))
    segments.append(CurveSegment(pts[-1], (GeoSegment(mids[-1], pts[-1]),), right_half[-1]))

    chain: list[GeoPoint] = [pts[0]]
    edge_lengths: list[float] = []
    for i in range(n - 1):
        chain.append(mids[i])
        chain.append(pts[i + 1])
        edge_lengths.append(left_half[i])
        edge_lengths.append(right_half[i])
    total = sum(s.length for s in segments)
    return DiscreteCurve(name, pts, segments, chain, edge_lengths, total)


def anchor_min_distances(a: DiscreteCurve, b: DiscreteCurve) -> list[float]:
    """For every anchor vertex of A, the minimum geodesic distance in meters
    to B's segments.

    The segments of B partition its chain edges, so the minimum over
    segments equals the minimum over chain edges.  Per anchor, all chain
    points of B are projected into the azimuthal equidistant plane at the
    anchor and each edge is handled as a planar chord, exactly as
    `point_to_segment_distance` does; over-long edges fall back to that
    function's densified path.  Anchors are processed in batches of at most
    `ANCHOR_BATCH_PAIRS` pairs with the array inverse `WGS84.inverse_many`.
    """
    chain = b.chain
    blat = np.array([q.lat for q in chain])
    blon = np.array([q.lon for q in chain])
    alat = np.array([p.lat for p in a.points])
    alon = np.array([p.lon for p in a.points])
    step = max(1, ANCHOR_BATCH_PAIRS // len(chain))
    out: list[float] = []
    for start in range(0, len(alat), step):
        lat1, lon1 = alat[start : start + step, None], alon[start : start + step, None]
        # A chain point on the anchor projects to the exact origin.
        ia, ib = np.nonzero((blat != lat1) | (blon != lon1))
        s12, azi1 = WGS84.inverse_many(lat1[ia, 0], lon1[ia, 0], blat[ib], blon[ib])
        az = np.radians(azi1)
        xs = np.zeros((len(lat1), len(chain)))
        ys = np.zeros((len(lat1), len(chain)))
        xs[ia, ib] = s12 * np.sin(az)
        ys[ia, ib] = s12 * np.cos(az)
        ax, ay = xs[:, :-1], ys[:, :-1]
        dx, dy = xs[:, 1:] - ax, ys[:, 1:] - ay
        dd = dx * dx + dy * dy
        zero = dd == 0.0
        t = np.clip(-(ax * dx + ay * dy) / np.where(zero, 1.0, dd), 0.0, 1.0)
        d = np.where(zero, np.hypot(ax, ay), np.hypot(ax + t * dx, ay + t * dy))
        out.extend(d.min(axis=1).tolist())

    long_edges = [k for k, ln in enumerate(b.edge_lengths) if ln > LONG_SEGMENT_M]
    for k in long_edges:
        segment = GeoSegment(chain[k], chain[k + 1])
        for i, anchor in enumerate(a.points):
            out[i] = min(out[i], point_to_segment_distance(anchor, segment))
    return out


def directed_mean_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Segment-length-weighted mean anchor distance from A to B (meters)."""
    dists = anchor_min_distances(a, b)
    return sum(s.length * d for s, d in zip(a.segments, dists)) / a.length


def directed_max_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Largest anchor distance from A's vertices to B's segments (meters)."""
    return max(anchor_min_distances(a, b))


def mean_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Length-weighted symmetrization of the directed means (meters)."""
    dab = directed_mean_hausdorff(a, b)
    dba = directed_mean_hausdorff(b, a)
    return (a.length * dab + b.length * dba) / (a.length + b.length)


def max_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Larger of the two directed maxima (meters)."""
    return max(directed_max_hausdorff(a, b), directed_max_hausdorff(b, a))


def matching_length(a: DiscreteCurve, b: DiscreteCurve, band: BandThreshold) -> tuple[float, float]:
    """Length of A within the band around B: (meters, percent of L_A).

    A segment counts in full when its anchor vertex passes the strict
    distance test, regardless of where the rest of the segment lies.
    """
    dists = anchor_min_distances(a, b)
    lm = sum(s.length for s, d in zip(a.segments, dists) if d < band.meters)
    return lm, 100.0 * lm / a.length


def matching_average(a: DiscreteCurve, b: DiscreteCurve, band: BandThreshold) -> tuple[float, float]:
    """Two-direction matching average: (meters, percent of combined length)."""
    lab, _ = matching_length(a, b, band)
    lba, _ = matching_length(b, a, band)
    return (lab + lba) / 2.0, 100.0 * (lab + lba) / (a.length + b.length)


def source_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Geodesic distance between the two source points (index 0), in km."""
    if not a.points or not b.points:
        raise DegenerateCurveError("source_distance needs non-empty curves")
    return geodesic_distance(a.points[0], b.points[0]) / 1000.0


def split_at_nearest_vertex(
    curve: DiscreteCurve, ref: GeoPoint, names: tuple[str, str] | None = None
) -> tuple[DiscreteCurve, DiscreteCurve]:
    """Split a curve at the vertex closest to a reference point.

    The split vertex belongs to both halves; each half must keep at least
    two points.  Used to separate upper and lower river courses at a
    confluence or crossing supplied as configuration.
    """
    dists = [geodesic_distance(p, ref) for p in curve.points]
    k = min(range(len(dists)), key=dists.__getitem__)
    if k == 0 or k == len(curve.points) - 1:
        raise DegenerateCurveError(
            f"split point of '{curve.name}' falls on an endpoint (vertex {k})"
        )
    if names is None:
        names = (f"{curve.name}1", f"{curve.name}2")
    first = build_segments(curve.points[: k + 1], names[0])
    second = build_segments(curve.points[k:], names[1])
    return first, second
