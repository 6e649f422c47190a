"""Discrete curves and geodesic similarity metrics.

A digitized course A = {a_1, ..., a_n} is carried by n segments built with
the midpoint rule: the first runs from a_1 to the midpoint of (a_1, a_2),
interior segment i joins the midpoints of its two adjacent edges through
a_i, and the last runs from the final midpoint to a_n.  Every metric here
reduces to the minimum geodesic distance from an anchor vertex a_i to the
other curve's segments: length-weighted means and maxima give the directed
Hausdorff quantities, a threshold gate on the same distances gives the
matching length.  `DistanceProfile` holds those distances for one
direction, weighted by segment length, and is the one place where the
means, maxima and band lengths are reduced.

A `DiscreteCurve` keeps its geometry as arrays only: the chain of vertices
and edge midpoints, the chain's edge lengths and the segment lengths.
`GeoPoint` objects of its vertices are built on demand.
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
    chords,
    densify,
    ecef,
    geodesic_distance,
    geodesic_distance_many,
    normalize_lon_many,
    origin_to_chord,
    plane_coords,
)

#: Elements per chord batch (anchors x chain points) and per engine call in
#: `anchor_min_distances`; an engine call of this size peaks at about 14 MB.
ANCHOR_BATCH_PAIRS = 16384
#: Margins of the chord-bound skip test, far above the roundoff of the
#: chords, the geodesic lengths and the planar chords.
PRUNE_RTOL = 1e-9
PRUNE_ATOL_M = 1e-3


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


@dataclass(frozen=True)
class CurveSegment:
    """One midpoint-rule segment: its anchor vertex and its length."""

    anchor: GeoPoint
    length: float


@dataclass(eq=False)
class DiscreteCurve:
    """An ordered polyline on the ellipsoid with derived segments.

    `chain` is an (m, 2) array of (lon, lat) that interleaves the vertices
    with the edge midpoints, so m = 2 n - 1 for n vertices, and
    `edge_lengths[k]` is the geodesic length from chain[k] to chain[k + 1].
    `segment_lengths[i]` is the length of anchor i's segment; `length` is
    their sum and agrees with the polyline length to roundoff.
    """

    name: str
    chain: np.ndarray
    edge_lengths: np.ndarray
    segment_lengths: np.ndarray
    length: float

    @property
    def point_count(self) -> int:
        return (len(self.chain) + 1) // 2

    @property
    def points(self) -> list[GeoPoint]:
        """The vertices, chain[::2], as `GeoPoint`s."""
        return [GeoPoint(lon, lat) for lon, lat in self.chain[::2].tolist()]

    @property
    def segments(self) -> list[CurveSegment]:
        return [CurveSegment(p, ln) for p, ln in zip(self.points, self.segment_lengths.tolist())]


def build_segments(points: list[GeoPoint] | np.ndarray, name: str = "") -> DiscreteCurve:
    """Construct a curve and its midpoint-rule segments.

    `points` are `GeoPoint`s or an (n, 2) array of (lon, lat) with valid
    latitudes; longitudes are normalized as `GeoPoint` does.  Consecutive
    duplicate points are dropped first; fewer than two distinct points
    leave nothing to measure.  Midpoints are geodesic midpoints, so the two
    halves of an edge have equal geodesic length.  All edges are solved at
    once with the array geodesics.
    """
    if not isinstance(points, np.ndarray):
        points = [(p.lon, p.lat) for p in points]
    pts = np.array(points, dtype=float).reshape(-1, 2)
    pts[:, 0] = normalize_lon_many(pts[:, 0])
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[keep]
    if len(pts) < 2:
        raise DegenerateCurveError(f"curve '{name}' has {len(pts)} distinct points, need at least 2")

    chain = np.empty((2 * len(pts) - 1, 2))
    chain[::2] = pts
    lon, lat = chain[::2, 0], chain[::2, 1]
    s12, azi1 = WGS84.inverse_many(lat[:-1], lon[:-1], lat[1:], lon[1:])
    mlat, mlon = WGS84.direct_many(lat[:-1], lon[:-1], azi1, s12 / 2)
    chain[1::2, 0], chain[1::2, 1] = mlon, mlat
    edges = geodesic_distance_many(chain[:-1, 1], chain[:-1, 0], chain[1:, 1], chain[1:, 0])
    return _assemble(name, chain, edges)


def _assemble(name: str, chain: np.ndarray, edge_lengths: np.ndarray) -> DiscreteCurve:
    # A curve from its chain and the chain's edge lengths;
    # `build_segments` and the halves of `split_at_nearest_vertex` both end
    # here.  Interior segment i is the right half of edge i - 1 plus the
    # left half of edge i.
    left, right = edge_lengths[0::2], edge_lengths[1::2]
    seg = np.concatenate([left[:1], right[:-1] + left[1:], right[-1:]])
    return DiscreteCurve(name, chain, edge_lengths, seg, sum(seg.tolist()))


def anchor_min_distances(a: DiscreteCurve, b: DiscreteCurve) -> list[float]:
    """For every anchor vertex of A, the minimum geodesic distance in meters
    to B's segments.

    The segments of B partition its chain edges, so the minimum over
    segments equals the minimum over chain edges.  An edge longer than
    `LONG_SEGMENT_M` is first replaced by the sub-edges between its
    `densify` samples.  Per anchor, chain points of B are projected into
    the azimuthal equidistant (AEQD) plane at the anchor and each edge is
    handled as a planar chord.  Round 1 solves the geodesic distance s* to
    each anchor's chord-nearest chain point j*; round 2 runs the skip test
    below and projects the distinct ends of the kept edges only.  Chord
    batches and engine calls hold `ANCHOR_BATCH_PAIRS` elements at most.

    The planar chord of an edge of length L falls short by up to about
    2.1e-15 d L^2 m at distance d (measured against `stepped_min_distances`
    in tests/oracles.py): 0.05, 0.51 and 4.1 mm for 5 km edges at 1, 10 and
    80 km; 10.2 mm, 97 mm and 0.39 m for 8.1, 25 and 49.5 km edges at up to
    80 km.

    The skip test is a rigorous lower bound, so the result equals that of
    projecting every edge.  Let c_j be the straight (ECEF) chord from the
    anchor to chain point j, and U = s*.  Edge k (length l_k) is skipped
    when

        min(c_k, c_k+1) - kappa_k * l_k / 2 > U    (with a margin),

    kappa_k = x / sin x,  x = (s* + chain length from j* to the far end of
    edge k) / b,  b the semi-minor axis, and no skipping when x >= pi / 2.
    Sketch: every point of the planar chord lies within half its length of
    an endpoint, whose radius is its geodesic distance s_k >= c_k.  No
    point of the edge is farther than x b from the anchor, and there the
    AEQD map stretches lengths by at most s / m12 <= x / sin x, because
    the Gauss curvature of the ellipsoid is at most 1 / b^2 (Rauch
    comparison with the sphere of radius b); so the planar chord is at most
    kappa_k l_k long and its value exceeds U, which is at least the value
    of j*'s edges (never skipped, as c_j* <= s*).  The argument only needs
    the edges to be geodesics with known lengths, so it holds for sub-edges.
    """
    alon, alat = a.chain[::2, 0], a.chain[::2, 1]
    chain, lengths = _split_long_edges(b.chain, b.edge_lengths)
    blon, blat = chain[:, 0], chain[:, 1]
    m = len(blat)
    ea, eb = ecef(alat, alon), ecef(blat, blon)
    arc = np.concatenate([[0.0], np.cumsum(lengths)])

    def kept(ea_rows, u, j, anchor):
        # The skip test on one chord batch.  Edge k of anchor i is kept as
        # key i m + k, so its ends are the point keys i m + k and i m + k + 1.
        chord = chords(ea_rows, eb)
        reach = u + np.maximum(arc[1:] - arc[j], arc[j] - arc[:-1])
        x = np.minimum((reach * (1 + PRUNE_RTOL) + PRUNE_ATOL_M) / WGS84.b, math.pi / 2)
        half = np.where(x < math.pi / 2, lengths / 2 / np.sinc(x / math.pi), np.inf)  # kappa_k l_k / 2
        lower = np.minimum(chord[:, :-1], chord[:, 1:]) * (1 - PRUNE_RTOL) - half * (1 + PRUNE_RTOL)
        i, k = np.nonzero(lower - PRUNE_ATOL_M <= u)
        return anchor[i] * m + k

    # Round 1: the chord-nearest chain point j* of every anchor and U = s*.
    near = _batched(lambda e: chords(e, eb).argmin(axis=1), m, ea)
    upper = _batched(geodesic_distance_many, 1, alat, alon, blat[near], blon[near])
    # Round 2: the kept edges, then the plane coordinates of their ends.
    keys = _batched(kept, m, ea, upper[:, None], near[:, None], np.arange(len(alat)))
    ends = np.union1d(keys, keys + 1)
    anchor, point = np.divmod(ends, m)
    px, py = _batched(plane_coords, 1, alat[anchor], alon[anchor], blat[point], blon[point])
    e = np.searchsorted(ends, keys)
    out = np.full(len(alat), np.inf)
    np.minimum.at(out, keys // m, origin_to_chord(px[e], py[e], px[e + 1], py[e + 1]))
    return out.tolist()


def _split_long_edges(chain: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The chain and its edge lengths with every edge longer than
    # LONG_SEGMENT_M replaced by the sub-edges between its `densify`
    # samples, which start and end on the edge's own chain points.
    points, edges, start = [], [], 0
    for k in np.flatnonzero(lengths > LONG_SEGMENT_M).tolist():
        lat, lon, dists = densify(chain[k, 1], chain[k, 0], chain[k + 1, 1], chain[k + 1, 0])
        points += [chain[start:k], np.stack([lon, lat], axis=1)[:-1]]
        edges += [lengths[start:k], np.diff(dists)]
        start = k + 1
    return np.concatenate(points + [chain[start:]]), np.concatenate(edges + [lengths[start:]])


def _batched(f, per_row: int, *rows: np.ndarray) -> np.ndarray:
    # f on the rows of equal-length arrays, ANCHOR_BATCH_PAIRS // per_row
    # rows a call (one at least), joined along the last axis.
    step = max(1, ANCHOR_BATCH_PAIRS // per_row)
    return np.concatenate([f(*(v[i : i + step] for v in rows)) for i in range(0, len(rows[0]), step)], axis=-1)


class DistanceProfile:
    """The directed distance profile of curve A against curve B: every
    anchor's minimum distance to B (meters, from `anchor_min_distances`)
    weighted by the length of its segment.  All pair metrics reduce it.
    """

    def __init__(self, a: DiscreteCurve, distances: list[float]):
        self.distances = distances
        self.weights = a.segment_lengths.tolist()
        self.length = a.length

    def max(self) -> float:
        """Largest anchor distance: the directed max Hausdorff distance."""
        return max(self.distances)

    def mean(self) -> float:
        """Segment-length-weighted mean: the directed mean Hausdorff distance."""
        return sum(w * d for w, d in zip(self.weights, self.distances)) / self.length

    def within(self, meters: float) -> tuple[float, float]:
        """Matching length inside the band: (meters, percent of the length).

        A segment counts in full when its anchor vertex passes the strict
        distance test, regardless of where the rest of the segment lies.
        """
        lm = sum(w for w, d in zip(self.weights, self.distances) if d < meters)
        return lm, 100.0 * (lm / self.length)


def _profile(a: DiscreteCurve, b: DiscreteCurve) -> DistanceProfile:
    return DistanceProfile(a, anchor_min_distances(a, b))


def directed_mean_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Segment-length-weighted mean anchor distance from A to B (meters)."""
    return _profile(a, b).mean()


def directed_max_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Largest anchor distance from A's vertices to B's segments (meters)."""
    return _profile(a, b).max()


def mean_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Length-weighted symmetrization of the directed means (meters)."""
    dab = directed_mean_hausdorff(a, b)
    dba = directed_mean_hausdorff(b, a)
    return (a.length * dab + b.length * dba) / (a.length + b.length)


def max_hausdorff(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Larger of the two directed maxima (meters)."""
    return max(directed_max_hausdorff(a, b), directed_max_hausdorff(b, a))


def matching_length(a: DiscreteCurve, b: DiscreteCurve, band: BandThreshold) -> tuple[float, float]:
    """Length of A within the band around B: (meters, percent of L_A);
    see `DistanceProfile.within`."""
    return _profile(a, b).within(band.meters)


def source_distance(a: DiscreteCurve, b: DiscreteCurve) -> float:
    """Geodesic distance between the two source points (index 0), in km."""
    return geodesic_distance(GeoPoint(*a.chain[0].tolist()), GeoPoint(*b.chain[0].tolist())) / 1000.0


def split_at_nearest_vertex(
    curve: DiscreteCurve, ref: GeoPoint, names: tuple[str, str] | None = None
) -> tuple[DiscreteCurve, DiscreteCurve]:
    """Split a curve at the vertex closest to a reference point.

    The split vertex belongs to both halves; each half must keep at least
    two points.  Used to separate upper and lower river courses at a
    confluence or crossing supplied as configuration.
    """
    lon, lat = curve.chain[::2, 0], curve.chain[::2, 1]
    k = int(np.argmin(geodesic_distance_many(lat, lon, ref.lat, ref.lon)))
    if k == 0 or k == curve.point_count - 1:
        raise DegenerateCurveError(
            f"split point of '{curve.name}' falls on an endpoint (vertex {k})"
        )
    if names is None:
        names = (f"{curve.name}1", f"{curve.name}2")
    # Each half is what `build_segments` would make of its points: the
    # parent's vertices, midpoints and half-edge lengths on that side.
    first = _assemble(names[0], curve.chain[: 2 * k + 1], curve.edge_lengths[: 2 * k])
    second = _assemble(names[1], curve.chain[2 * k :], curve.edge_lengths[2 * k :])
    return first, second
