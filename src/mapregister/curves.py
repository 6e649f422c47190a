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
    chord_bound,
    chords,
    densify,
    ecef,
    geodesic_distance,
    geodesic_distance_many,
    normalize_lon_many,
    origin_to_chord,
    plane_coords,
)

#: Elements per chord batch (anchors x chain points, one anchor at least)
#: and kept edges pending before a fold in `anchor_min_distances`.
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
    `edge_lengths[k]` is chain edge k's length, s12 / 2 of its vertex edge.
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
    duplicate points are dropped first; fewer than two distinct points or
    a length of 0 leave nothing to measure.  One `inverse_many` solves every edge (s12,
    azimuth) and one `direct_many` walks s12 / 2 to its geodesic midpoint;
    both halves take the length s12 / 2 they were built from.
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

    lon, lat = pts.T
    s12, azi1 = WGS84.inverse_many(lat[:-1], lon[:-1], lat[1:], lon[1:])
    mlat, mlon = WGS84.direct_many(lat[:-1], lon[:-1], azi1, s12 / 2)
    chain = np.empty((2 * len(pts) - 1, 2))
    chain[::2], chain[1::2, 0], chain[1::2, 1] = pts, mlon, mlat
    return _assemble(name, chain, np.repeat(s12 / 2, 2))


def _assemble(name: str, chain: np.ndarray, edge_lengths: np.ndarray) -> DiscreteCurve:
    # A curve from its chain and the chain's edge lengths;
    # `build_segments` and the halves of `split_at_nearest_vertex` both end
    # here.  Interior segment i is the right half of edge i - 1 plus the
    # left half of edge i.  Every metric divides by the length, which is 0
    # for distinct points that the engine puts 0 m apart.
    left, right = edge_lengths[0::2], edge_lengths[1::2]
    seg = np.concatenate([left[:1], right[:-1] + left[1:], right[-1:]])
    length = sum(seg.tolist())
    if not length > 0:
        raise DegenerateCurveError(f"curve '{name}' has length 0, nothing to measure")
    return DiscreteCurve(name, chain, edge_lengths, seg, length)


def anchor_min_distances(a: DiscreteCurve, b: DiscreteCurve) -> list[float]:
    """For every anchor vertex of A, the minimum geodesic distance in meters
    to B's segments; `anchor_min_distances_many` on one direction.

    The segments of B partition its chain edges, so the minimum over
    segments equals the minimum over chain edges.  An edge longer than
    `LONG_SEGMENT_M` is first replaced by the sub-edges between its
    `densify` samples.  The ends of the edges that the skip test below
    keeps are projected into the azimuthal equidistant (AEQD) plane at the
    anchor, and each edge is measured as a planar chord, which falls short
    by up to about 2.1e-15 d L^2 m for length L at distance d (README.md
    tabulates it).  With N = `ANCHOR_BATCH_PAIRS`, a chord batch holds one
    anchor row at least, so a fold of fewer than N pending kept edges plus
    one chord batch holds fewer than N + max(N, m) edges for m split chain
    points, whatever is kept.

    The skip test is a rigorous lower bound, so the result equals that of
    projecting every edge.  With c_j the straight (ECEF) chord from the
    anchor to chain point j and g = `geodesy.chord_bound`, the geodesic
    distance s_j lies in [c_j, g(c_j)].  Edge k (length l_k) is skipped when

        min(c_k, c_k+1) - kappa_k * l_k / 2 > U = g(min_j c_j)  (with margins),

    kappa_k = x / sin x,  x = (g(c_k) + g(c_k+1) + l_k) / 2 b,  b the
    semi-minor axis, and no skipping when x >= pi / 2.  Sketch: by the
    triangle inequality at its two ends, every point of the edge is within
    x b of the anchor.  There the AEQD map stretches lengths by at most
    s / m12 <= x / sin x, as the Gauss curvature of the ellipsoid is at
    most 1 / b^2 (Rauch comparison with the sphere of radius b).  So the
    planar chord is at most kappa_k l_k long, each of its points lies
    within half that of an end of radius s_k >= c_k, and its value exceeds
    U >= s_j, which bounds the value of the chord-nearest point's edges.
    Edge lengths are as built (s12 / 2 halves, `densify` sub-edges), within
    3e-8 m + 1e-14 s12 (direct allowance) of true, far inside `PRUNE_ATOL_M`.
    """
    return anchor_min_distances_many([(a, b)])[0]


def anchor_min_distances_many(directions: list[tuple[DiscreteCurve, DiscreteCurve]]) -> list[list[float]]:
    """`anchor_min_distances(a, b)` for every direction (a, b), bit for bit,
    in one pass over the stacked anchors and split chains of all directions
    (m chain points).  Edge k of the chain at stacked point p, kept for
    stacked anchor i, is the key i m + p + k; its ends `key` and `key + 1`
    stay in that chain, so `divmod(end, m)` is (anchor, point).  Whenever
    `ANCHOR_BATCH_PAIRS` keys are pending, and once at the end, a fold
    minimizes them into one stacked array: one `union1d` of their ends, one
    `plane_coords` call and one `np.minimum.at`.  The engine is
    elementwise, so folds change no bit.  No directions make no engine call."""
    if not directions:
        return []
    splits = [_split_long_edges(b.chain, b.edge_lengths) for _, b in directions]
    alon, alat = np.concatenate([a.chain[::2] for a, _ in directions]).T
    blon, blat = np.concatenate([chain for chain, _ in splits]).T
    m, ea, eb = len(blat), ecef(alat, alon), ecef(blat, blon)
    starts = np.cumsum([0] + [a.point_count for a, _ in directions]).tolist()
    out, pending, count, p = np.full(len(alat), np.inf), [], 0, 0
    for (chain, lengths), i, end in zip(splits, starts, starts[1:]):
        step = max(1, ANCHOR_BATCH_PAIRS // len(chain))
        for s in range(i, end, step):
            rows, edges = _kept(ea[s : min(s + step, end)], eb[p : p + len(chain)], lengths)
            pending.append((rows + s) * m + p + edges)
            count += len(rows)
            if count >= ANCHOR_BATCH_PAIRS or min(s + step, end) == len(alat):  # full, or the last batch
                keys, pending, count = np.concatenate(pending), [], 0
                ends = np.union1d(keys, keys + 1)
                anchor, point = np.divmod(ends, m)
                px, py = plane_coords(alat[anchor], alon[anchor], blat[point], blon[point])
                e = np.searchsorted(ends, keys)
                np.minimum.at(out, keys // m, origin_to_chord(px[e], py[e], px[e + 1], py[e + 1]))
        p += len(chain)
    return [out[i:end].tolist() for i, end in zip(starts, starts[1:])]


def _kept(ea: np.ndarray, eb: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The skip test argued in `anchor_min_distances`, on one chord batch:
    # the (rows, edges) that anchors ea keep of chain eb's edges.
    chord = chords(ea, eb)
    bound = chord_bound(chord)
    u = bound.min(axis=1, keepdims=True) * (1 + PRUNE_RTOL) + PRUNE_ATOL_M
    reach = (bound[:, :-1] + bound[:, 1:] + lengths) / 2
    x = np.minimum((reach * (1 + PRUNE_RTOL) + PRUNE_ATOL_M) / WGS84.b, math.pi / 2)
    half = np.where(x < math.pi / 2, lengths / 2 / np.sinc(x / math.pi), np.inf)  # kappa_k l_k / 2
    lower = np.minimum(chord[:, :-1], chord[:, 1:]) * (1 - PRUNE_RTOL) - half * (1 + PRUNE_RTOL)
    return np.nonzero(lower - PRUNE_ATOL_M <= u)


def _split_long_edges(chain: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The chain and its edge lengths with every edge longer than
    # LONG_SEGMENT_M replaced by the sub-edges between its `densify`
    # samples, which start and end on the edge's own chain points.  One
    # `densify` call samples them all; a chain without one makes none.
    long = np.flatnonzero(lengths > LONG_SEGMENT_M)
    if not long.size:
        return chain, lengths
    lat, lon, dists = densify(chain[long, 1], chain[long, 0], chain[long + 1, 1], chain[long + 1, 0])
    runs = np.split(np.stack([lon, lat, dists], axis=1), np.flatnonzero(dists == 0)[1:])  # one per edge
    points, edges, start = [], [], 0
    for k, run in zip(long.tolist(), runs):
        points += [chain[start:k], run[:-1, :2]]
        edges += [lengths[start:k], np.diff(run[:, 2])]
        start = k + 1
    return np.concatenate(points + [chain[start:]]), np.concatenate(edges + [lengths[start:]])


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
    two points and a length above 0.  Used to separate upper and lower river courses at a
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
