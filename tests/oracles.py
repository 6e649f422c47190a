"""Independent reference implementations used only to check the library.

Distances come from Vincenty's 1975 nested-equation iteration, meridian arcs
from the complete elliptic integral, and point-to-segment distances from
brute-force densification; none of these share code with the package.  The
exceptions are the package's earlier scalar and direct paths, kept as the
references for the array paths that replaced them: `ScalarGeodesic`, its
Karney engine solving one geodesic at a time (on WGS84 `SCALAR_WGS84`,
with `scalar_distance`; it shares the package's series tables and their
helpers), which every scalar reference below uses, and the
allowance the array engine keeps to it (`assert_inverse_close`,
`assert_direct_close`); `scalar_point_to_segment_distance`, its
one-geodesic-at-a-time distance from a point to one edge, with the
planar-chord helpers it used; `polyline_length`, a polyline's length by
the scalar engine; `geodesic_midpoint`, its one-point midpoint on the
array engine, as `build_segments` places it;
`scalar_anchor_min_distances`, its one-inverse-per-pair anchor pass, which
measures long edges with that function; `full_anchor_min_distances`, its
array anchor pass before the chord-bound skip test; `coo_laplace_matrix`,
its Laplace matrix
assembled from reflected neighbor indices; `kronsum_laplacian`, its
five-point operator as a Kronecker sum; `lu_solve_field`, its sparse-LU
field solve; `indexed_newton_many`, its Newton loop of the
geodesic inverse that gathered and scattered full-length state each pass;
`scalar_write_field_dump`, its value-by-value field dump;
`scalar_transform_curve`, its pixel-by-pixel curve transform with
`scalar_sample_field` and `scalar_apply_affine`; `dict_fit_affine`, its
affine fit that merged repeated source pixels in a dict of
`Correspondence` lists; and `dict_render_csv_tables` and
`dict_render_human`, its two table renderers, each of which rounded,
recombined and cross-checked every entry's figures in its own code.  The
ground truth for long edges, `stepped_min_distances`, uses the array
engine alone and none of the package's distance code.  The test-only
readers of library outputs (`least_squares_objective`, `read_field_dump`)
live here too.
"""

from __future__ import annotations

import math

import scipy.special

from mapregister import _geodesic
from mapregister._geodesic import (
    _A1,
    _A2,
    _C1,
    _C1P,
    _C2,
    _TINY,
    _TOL0,
    _TOL1,
    _XTHRESH,
    WGS84,
    Geodesic,
    Inverse,
    _horner,
    _series,
    _sin_series,
)
from mapregister.report import (
    HausdorffEntry,
    MatchingBand,
    MatchingEntry,
    MetricsReport,
    _cross_check,
    average_row_faces,
    combined_max_face,
    combined_mean_face,
    km_face,
    pct_face,
)

WGS84_A = 6378137.0
WGS84_F = 1 / 298.257223563
WGS84_B = WGS84_A * (1 - WGS84_F)
WGS84_E2 = WGS84_F * (2 - WGS84_F)


class VincentyNoConvergence(Exception):
    pass


def vincenty_distance(lat1, lon1, lat2, lon2, tol=1e-13, maxit=500):
    """Inverse-problem distance in meters by Vincenty's formulae.

    Accurate to about 0.5 mm on WGS84; raises for the nearly antipodal
    pairs where the lambda iteration diverges.
    """
    a, b, f = WGS84_A, WGS84_B, WGS84_F
    ldiff = math.fmod(lon2 - lon1 + 540.0, 360.0) - 180.0
    lam_target = math.radians(ldiff)
    u1 = math.atan((1 - f) * math.tan(math.radians(lat1)))
    u2 = math.atan((1 - f) * math.tan(math.radians(lat2)))
    su1, cu1 = math.sin(u1), math.cos(u1)
    su2, cu2 = math.sin(u2), math.cos(u2)

    lam = lam_target
    for _ in range(maxit):
        sl, cl = math.sin(lam), math.cos(lam)
        sin_sig = math.hypot(cu2 * sl, cu1 * su2 - su1 * cu2 * cl)
        if sin_sig == 0.0:
            return 0.0
        cos_sig = su1 * su2 + cu1 * cu2 * cl
        sig = math.atan2(sin_sig, cos_sig)
        sin_alp = cu1 * cu2 * sl / sin_sig
        cos2_alp = 1.0 - sin_alp * sin_alp
        cos_2sm = cos_sig - 2 * su1 * su2 / cos2_alp if cos2_alp != 0.0 else 0.0
        c = f / 16 * cos2_alp * (4 + f * (4 - 3 * cos2_alp))
        lam_prev = lam
        lam = lam_target + (1 - c) * f * sin_alp * (
            sig + c * sin_sig * (cos_2sm + c * cos_sig * (-1 + 2 * cos_2sm * cos_2sm))
        )
        if abs(lam - lam_prev) < tol:
            break
    else:
        raise VincentyNoConvergence(f"({lat1},{lon1}) -> ({lat2},{lon2})")

    usq = cos2_alp * (a * a - b * b) / (b * b)
    big_a = 1 + usq / 16384 * (4096 + usq * (-768 + usq * (320 - 175 * usq)))
    big_b = usq / 1024 * (256 + usq * (-128 + usq * (74 - 47 * usq)))
    dsig = big_b * sin_sig * (
        cos_2sm
        + big_b / 4 * (
            cos_sig * (-1 + 2 * cos_2sm * cos_2sm)
            - big_b / 6 * cos_2sm * (-3 + 4 * sin_sig * sin_sig) * (-3 + 4 * cos_2sm * cos_2sm)
        )
    )
    return b * big_a * (sig - dsig)


def quarter_meridian() -> float:
    """Equator-to-pole meridian arc: a * E(e^2) with the complete elliptic
    integral of the second kind."""
    return WGS84_A * scipy.special.ellipe(WGS84_E2)


def equatorial_crossing_geodesic(lon12_deg: float) -> tuple[float, float]:
    """(distance, departure azimuth) between two points on the equator, by
    quadrature of the exact geodesic integrals.

    Two equator points are consecutive crossing nodes of their geodesic, so
    the arc spans exactly half a period in the auxiliary-sphere angle; the
    launch azimuth follows from matching the longitude swing.  Valid for
    (1-f)*180 < lon12 <= 180 where the connecting geodesic arcs over a pole.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    f = WGS84_F
    b = WGS84_B
    ep2 = WGS84_E2 / (1 - WGS84_F) ** 2

    def half_period(salp0):
        k2 = ep2 * (1 - salp0 * salp0)
        s = WGS84_B * quad(
            lambda sig: math.sqrt(1 + k2 * math.sin(sig) ** 2),
            0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-13,
        )[0]
        i3 = quad(
            lambda sig: (2 - f) / (1 + (1 - f) * math.sqrt(1 + k2 * math.sin(sig) ** 2)),
            0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-13,
        )[0]
        return s, math.pi - f * salp0 * i3

    target = math.radians(lon12_deg)
    if half_period(1e-9)[1] <= target:
        salp0 = 0.0
    else:
        salp0 = brentq(lambda s: half_period(s)[1] - target, 1e-9, 1 - 1e-9, xtol=1e-15)
    dist, _ = half_period(salp0)
    return dist, math.degrees(math.asin(salp0))


def equator_arc(deg: float) -> float:
    """Length of an equatorial arc spanning `deg` degrees of longitude (the
    equator is itself a geodesic)."""
    return WGS84_A * math.radians(deg)


def dense_directed_hausdorff(dist_fn, plane_fn, dense_a, dense_b, margin=1.0):
    """Directed mean and max Hausdorff between 1 m-densified point sets.

    `plane_fn(p)` maps a point into one shared local plane used only to
    shortlist nearest-neighbor candidates; every reported distance is then
    re-measured with `dist_fn` on the shortlisted pairs, so the plane only
    needs to be accurate to `margin` meters.  Returns (mean, max) over the
    dense points of A of the minimum distance to the dense points of B.
    """
    import numpy as np

    pb = np.array([plane_fn(q) for q in dense_b])
    pa = np.array([plane_fn(p) for p in dense_a])
    mins = []
    for k, p in enumerate(dense_a):
        d2 = np.hypot(pb[:, 0] - pa[k, 0], pb[:, 1] - pa[k, 1])
        cutoff = d2.min() + margin
        candidates = np.flatnonzero(d2 <= cutoff)
        mins.append(min(dist_fn(p, dense_b[int(j)]) for j in candidates))
    return sum(mins) / len(mins), max(mins)


def densified_point_to_segment(dist_fn, walk_points, p, a, b, coarse=50.0, fine=0.1):
    """Brute-force point-to-segment distance.

    `dist_fn(p, q)` measures point distances and `walk_points(a, b, step)`
    returns points sampled along the connecting geodesic at the given
    spacing (both ends included).  A coarse sweep locates candidate minima,
    each of which is then re-sampled at `fine` spacing.
    """
    samples = walk_points(a, b, coarse)
    d = [dist_fn(p, q) for q in samples]
    if len(samples) == 1:
        return d[0]
    best = min(d)
    candidates = [
        i
        for i in range(len(d))
        if d[i] <= d[max(i - 1, 0)] and d[i] <= d[min(i + 1, len(d) - 1)]
    ]
    for i in candidates:
        lo = samples[max(i - 1, 0)]
        hi = samples[min(i + 1, len(samples) - 1)]
        for q in walk_points(lo, hi, fine):
            dq = dist_fn(p, q)
            if dq < best:
                best = dq
    return best


def scalar_anchor_min_distances(a, b):
    """`curves.anchor_min_distances` with one scalar inverse per anchor and
    chain point, each chain edge handled as a planar chord in the anchor's
    azimuthal equidistant plane; an edge longer than `LONG_SEGMENT_M` is
    measured by `scalar_point_to_segment_distance` instead."""
    from mapregister.geodesy import LONG_SEGMENT_M, GeoPoint

    chain = [GeoPoint(lon, lat) for lon, lat in b.chain.tolist()]
    edge_len = [scalar_distance(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    out = []
    for anchor in a.points:
        alat, alon = anchor.lat, anchor.lon
        xs: list[float] = []
        ys: list[float] = []
        for q in chain:
            if q.lat == alat and q.lon == alon:
                xs.append(0.0)
                ys.append(0.0)
                continue
            r = SCALAR_WGS84.inverse(alat, alon, q.lat, q.lon)
            az = math.radians(r.azi1)
            xs.append(r.s12 * math.sin(az))
            ys.append(r.s12 * math.cos(az))
        best = math.inf
        for k in range(len(chain) - 1):
            if edge_len[k] > LONG_SEGMENT_M:
                d = scalar_point_to_segment_distance(anchor, chain[k], chain[k + 1])
            else:
                d = _origin_to_chord(xs[k], ys[k], xs[k + 1], ys[k + 1])
            if d < best:
                best = d
        out.append(best)
    return out


def full_anchor_min_distances(a, b):
    """`curves.anchor_min_distances` without its skip test: every edge of B
    longer than `LONG_SEGMENT_M` replaced, edge by edge, by the sub-edges
    between its `densify` samples, then every chain point projected into
    every anchor's plane, in array batches of at most 4096 anchor x point
    pairs."""
    import numpy as np

    from mapregister.geodesy import LONG_SEGMENT_M, densify, origin_to_chord, plane_coords

    points = [b.chain[:1]]
    for k, length in enumerate(b.edge_lengths.tolist()):
        if length > LONG_SEGMENT_M:
            lat, lon, _ = densify(b.chain[k, 1], b.chain[k, 0], b.chain[k + 1, 1], b.chain[k + 1, 0])
            points.append(np.stack([lon[1:-1], lat[1:-1]], axis=1))
        points.append(b.chain[k + 1 : k + 2])
    chain = np.concatenate(points)
    alon, alat = a.chain[::2, 0], a.chain[::2, 1]
    blon, blat = chain[:, 0], chain[:, 1]
    step = max(1, 4096 // len(blat))
    out = np.empty(len(alat))
    for i in range(0, len(alat), step):
        batch = slice(i, i + step)
        x, y = plane_coords(alat[batch, None], alon[batch, None], blat, blon)
        out[batch] = origin_to_chord(x[:, :-1], y[:, :-1], x[:, 1:], y[:, 1:]).min(axis=1)
    return out.tolist()


def _ecef(lat, lon):
    # Earth-centred Cartesian coordinates (n, 3) of geodetic positions.
    import numpy as np

    phi, lam = np.radians(lat), np.radians(lon)
    n = WGS84_A / np.sqrt(1 - WGS84_E2 * np.sin(phi) ** 2)
    r = n * np.cos(phi)
    return np.stack([r * np.cos(lam), r * np.sin(lam), n * (1 - WGS84_E2) * np.sin(phi)], axis=-1)


#: The planar chord of a chain edge of length L, seen from an anchor at
#: geodesic distance d, falls short of the true distance by at most about
#: CHORD_SHORTFALL_PER_M2 * d * L**2 meters, roughly 1 / (12 R^2) for the
#: Earth's radius R.  The worst ratio against `stepped_min_distances` over
#: 12,000 anchors up to 80 km from 300 random curves of two vertices, with
#: chain edges of 0.5-8.1 km, was 2.06e-15.
CHORD_SHORTFALL_PER_M2 = 2.1e-15


def _stops(lo, hi, step):
    # Evenly spaced positions from lo to hi, both included, at most step apart.
    import numpy as np

    return np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1)


def stepped_min_distances(lat, lon, chain_lat, chain_lon, steps=(20.0, 0.2, 0.02, 1e-4)):
    """Ground truth for the distance in meters from each point (lat, lon)
    to a chain of geodesic edges, by the array engine alone, with no plane:
    the smallest geodesic distance to evenly spaced points at most steps[0]
    meters apart along each edge (both ends included), then at most
    steps[1] apart between the neighbours of each edge's nearest point, and
    so on.  The finest step bounds the error, also for a point on the chain.
    The spacing is even because a last point a hair short of the end, once
    roundoff makes the end the nearest, would leave a window a hair wide
    (26 mm wrong for an anchor 1 km beside a 5 km edge).

    Distance along an edge changes by at most the distance travelled, so an
    edge whose nearest coarse point is more than steps[0] / 2 farther than
    the nearest of all cannot hold the minimum and is not refined; and
    since the straight ECEF chord never exceeds the geodesic distance,
    coarse points whose chord exceeds that reach are not solved.  Refining
    one window per edge assumes the distance along an edge has one minimum,
    as it has for edges far shorter than a half meridian.
    """
    import numpy as np

    lat, lon = np.asarray(lat, dtype=float), np.asarray(lon, dtype=float)
    chain_lat, chain_lon = np.asarray(chain_lat, dtype=float), np.asarray(chain_lon, dtype=float)
    coarse = steps[0]
    s12, azi1 = WGS84.inverse_many(chain_lat[:-1], chain_lon[:-1], chain_lat[1:], chain_lon[1:])
    along = [_stops(0.0, s, coarse) for s in s12.tolist()]
    first = np.cumsum([0] + [len(t) for t in along])
    edge = np.repeat(np.arange(len(along)), np.diff(first))

    def points(e, t):
        # Positions t meters along the edges e.
        return WGS84.direct_many(chain_lat[e], chain_lon[e], azi1[e], t)

    def chord(q):
        # Straight-line distances from the Cartesian point q to the coarse points.
        return np.sqrt(((xyz - q) ** 2).sum(axis=1))

    def around(t, m):
        # The stretch between the neighbours of t[m].
        return t[max(m - 1, 0)], t[min(m + 1, len(t) - 1)]

    plat, plon = points(edge, np.concatenate(along))
    xyz, anchors = _ecef(plat, plon), _ecef(lat, lon)
    near = [int(chord(q).argmin()) for q in anchors]
    reach = WGS84.inverse_many(lat, lon, plat[near], plon[near])[0] + coarse / 2
    solve = [np.flatnonzero(chord(q) <= r) for q, r in zip(anchors, reach.tolist())]
    sizes = [len(j) for j in solve]
    k, j = np.repeat(np.arange(len(lat)), sizes), np.concatenate(solve)
    solved = np.split(WGS84.inverse_many(lat[k], lon[k], plat[j], plon[j])[0], np.cumsum(sizes)[:-1])
    best = np.array([d.min() for d in solved])

    windows = []  # (point, edge, start, end) of the stretches to refine
    for p, (j, dj) in enumerate(zip(solve, solved)):
        d = np.full(len(plat), np.inf)
        d[j] = dj
        for e, t in enumerate(along):
            de = d[first[e] : first[e + 1]]
            if de.min() - coarse / 2 <= best[p]:
                windows.append((p, e, *around(t, int(de.argmin()))))
    for step in steps[1:]:
        ts = [_stops(lo, hi, step) for *_, lo, hi in windows]
        sizes = [len(t) for t in ts]
        p, e = (np.repeat([w[n] for w in windows], sizes) for n in (0, 1))
        d = WGS84.inverse_many(lat[p], lon[p], *points(e, np.concatenate(ts)))[0]
        np.minimum.at(best, p, d)
        d = np.split(d, np.cumsum(sizes)[:-1])
        windows = [(w[0], w[1], *around(t, int(x.argmin()))) for w, t, x in zip(windows, ts, d)]
    return best.tolist()


def _plane_coords(center, p):
    # Azimuthal equidistant coordinates of p in the plane centered at
    # `center`: radial distance is the true geodesic distance.
    if p.lat == center.lat and p.lon == center.lon:
        return 0.0, 0.0
    r = SCALAR_WGS84.inverse(center.lat, center.lon, p.lat, p.lon)
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


def _projected_distance(p, a, b) -> float:
    ax, ay = _plane_coords(p, a)
    bx, by = _plane_coords(p, b)
    return _origin_to_chord(ax, ay, bx, by)


def scalar_point_to_segment_distance(p, a, b) -> float:
    """The distance from p to the geodesic edge from a to b, with one scalar
    geodesic per projected point and per densification sample: an edge
    longer than `LONG_SEGMENT_M` is the smallest planar chord between
    consecutive samples, which start and end on a and b."""
    from mapregister.geodesy import DENSIFY_STEP_M, LONG_SEGMENT_M, GeoPoint

    inv = SCALAR_WGS84.inverse(a.lat, a.lon, b.lat, b.lon)
    if inv.s12 <= LONG_SEGMENT_M:
        return _projected_distance(p, a, b)

    line = GeodesicLine(SCALAR_WGS84, a.lat, a.lon, inv.azi1)
    steps = int(inv.s12 // DENSIFY_STEP_M)
    samples = [a]
    for k in range(1, steps + 1):
        if DENSIFY_STEP_M * k < inv.s12:
            lat, lon = line.position(DENSIFY_STEP_M * k)
            samples.append(GeoPoint(lon, lat))
    samples.append(b)
    xy = [_plane_coords(p, q) for q in samples]
    return min(_origin_to_chord(*u, *v) for u, v in zip(xy, xy[1:]))


def polyline_length(points) -> float:
    """Sum of the scalar geodesic lengths of consecutive points (meters)."""
    return sum(scalar_distance(p, q) for p, q in zip(points, points[1:]))


def geodesic_midpoint(p, q):
    """The point halfway along the geodesic from p to q, by one inverse and
    one direct of the array engine, as `build_segments` places an edge's
    midpoint."""
    from mapregister.geodesy import GeoPoint

    r = WGS84.inverse(p.lat, p.lon, q.lat, q.lon)
    lat, lon = WGS84.direct(p.lat, p.lon, r.azi1, r.s12 / 2)
    return GeoPoint(lon, lat)


def scalar_sample_field(f, x):
    """`field.sample_field` at one pixel with Python scalars."""
    from mapregister.affine import AffineParams
    from mapregister.errors import OutOfDomainError

    fi, fj = x.x1 - f.grid.origin.x1 + 1.0, x.x2 - f.grid.origin.x2 + 1.0
    n1, n2 = f.grid.n1, f.grid.n2
    eps = 1e-9
    if not (1.0 - eps <= fi <= n1 + eps and 1.0 - eps <= fj <= n2 + eps):
        raise OutOfDomainError(
            f"pixel ({x.x1}, {x.x2}) lies outside the field domain "
            f"[{f.grid.origin.x1}, {f.grid.origin.x1 + n1 - 1}] x "
            f"[{f.grid.origin.x2}, {f.grid.origin.x2 + n2 - 1}]"
        )
    fi = min(max(fi, 1.0), float(n1))
    fj = min(max(fj, 1.0), float(n2))
    i0 = min(int(math.floor(fi)), n1 - 1)
    j0 = min(int(math.floor(fj)), n2 - 1)
    s = fi - i0
    t = fj - j0
    g = f.params
    v = (
        g[i0 - 1, j0 - 1] * (1 - s) * (1 - t)
        + g[i0, j0 - 1] * s * (1 - t)
        + g[i0 - 1, j0] * (1 - s) * t
        + g[i0, j0] * s * t
    )
    return AffineParams(*v)


def scalar_apply_affine(t, x):
    """`affine.apply_affine` with Python scalars."""
    from mapregister.errors import OutOfRangeError
    from mapregister.geodesy import GeoPoint

    lon = t.a1 * x.x1 + t.a2 * x.x2 + t.b1
    lat = t.a3 * x.x1 + t.a4 * x.x2 + t.b2
    if not -90.0 <= lat <= 90.0:
        raise OutOfRangeError(
            f"pixel ({x.x1}, {x.x2}) transforms to latitude {lat}, outside [-90, 90]"
        )
    return GeoPoint(lon, lat)


def scalar_transform_curve(f, pixels, name=""):
    """`pipeline.transform_curve` one pixel at a time: one `AffineParams`
    and one `GeoPoint` per pixel, then `build_segments` on the points.  A
    latitude error names the curve and the point like a domain error."""
    from mapregister.curves import build_segments
    from mapregister.errors import OutOfDomainError, OutOfRangeError

    geo = []
    for idx, p in enumerate(pixels):
        try:
            params = scalar_sample_field(f, p)
        except OutOfDomainError as exc:
            raise OutOfDomainError(f"curve '{name}', point {idx}: {exc}") from exc
        try:
            geo.append(scalar_apply_affine(params, p))
        except OutOfRangeError as exc:
            raise OutOfRangeError(f"curve '{name}', point {idx}: {exc}") from exc
    return build_segments(geo, name)


def dict_fit_affine(cset):
    """`affine.fit_affine` merging repeated source pixels object by object:
    a dict groups the pairs by pixel, keyed by the first listed; groups are
    taken in pixel order, and each repeated pixel's targets are sorted by
    (lon, lat, label) and averaged with Python's `sum`.  The normal
    equations that follow are the package's."""
    import numpy as np

    from mapregister.affine import AffineParams, Correspondence, PixelPoint
    from mapregister.errors import DegenerateConfigurationError
    from mapregister.geodesy import GeoPoint

    groups = {}
    for c in cset.pairs:
        groups.setdefault((c.source.x1, c.source.x2), []).append(c)
    pairs = []
    for (x1, x2), members in sorted(groups.items()):
        if len(members) == 1:
            pairs.append(members[0])
            continue
        members = sorted(members, key=lambda c: (c.target.lon, c.target.lat, c.label))
        lon = sum(c.target.lon for c in members) / len(members)
        lat = sum(c.target.lat for c in members) / len(members)
        pairs.append(Correspondence(PixelPoint(x1, x2), GeoPoint(lon, lat), members[0].label))
    n = len(pairs)
    if n < 3:
        raise DegenerateConfigurationError(
            f"set '{cset.name}' has {n} distinct source points, need at least 3"
        )
    xs = np.array([(c.source.x1, c.source.x2) for c in pairs], dtype=float)
    ys = np.array([(c.target.lon, c.target.lat) for c in pairs], dtype=float)

    centroid = xs.mean(axis=0)
    u = xs - centroid
    svals = np.linalg.svd(u, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1.0):
        raise DegenerateConfigurationError(f"set '{cset.name}' has collinear source points")

    m = np.empty((3, 3))
    m[0, 0] = np.dot(u[:, 0], u[:, 0])
    m[0, 1] = m[1, 0] = np.dot(u[:, 0], u[:, 1])
    m[1, 1] = np.dot(u[:, 1], u[:, 1])
    m[0, 2] = m[2, 0] = u[:, 0].sum()
    m[1, 2] = m[2, 1] = u[:, 1].sum()
    m[2, 2] = n
    rhs = np.stack(
        [
            (np.dot(ys[:, k], u[:, 0]), np.dot(ys[:, k], u[:, 1]), ys[:, k].sum())
            for k in (0, 1)
        ],
        axis=1,
    )
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfigurationError(f"set '{cset.name}': normal matrix singular") from exc

    a1, a2, b1c = sol[:, 0]
    a3, a4, b2c = sol[:, 1]
    b1 = b1c - a1 * centroid[0] - a2 * centroid[1]
    b2 = b2c - a3 * centroid[0] - a4 * centroid[1]
    return AffineParams(a1, a2, a3, a4, b1, b2)


def _dict_hausdorff_faces(e: HausdorffEntry) -> dict[str, str]:
    f = {
        "dir_max_ab": km_face(e.dir_max_ab_km),
        "dir_max_ba": km_face(e.dir_max_ba_km),
        "dir_mean_ab": km_face(e.dir_mean_ab_km),
        "dir_mean_ba": km_face(e.dir_mean_ba_km),
        "length_a": km_face(e.length_a_km),
        "length_b": km_face(e.length_b_km),
    }
    f["max"] = combined_max_face(f["dir_max_ab"], f["dir_max_ba"])
    f["mean"] = combined_mean_face(
        f["dir_mean_ab"], f["dir_mean_ba"], f["length_a"], f["length_b"]
    )
    # Rounded inputs shift the weighted mean by the input quantum plus a
    # weight perturbation proportional to the directed spread.
    spread = abs(e.dir_mean_ab_km - e.dir_mean_ba_km)
    tol = 0.0011 + 0.0011 * spread / (e.length_a_km + e.length_b_km)
    _cross_check(f["max"], e.max_km, 0.0011, f"max Hausdorff {e.a}/{e.b}")
    _cross_check(f["mean"], e.mean_km, tol, f"mean Hausdorff {e.a}/{e.b}")
    return f


def _dict_matching_faces(e: MatchingEntry, band: MatchingBand) -> dict[str, str]:
    f = {
        "lm_ab": km_face(band.lm_ab_km),
        "pct_ab": pct_face(band.pct_ab),
        "lm_ba": km_face(band.lm_ba_km),
        "pct_ba": pct_face(band.pct_ba),
        "length_a": km_face(e.length_a_km),
        "length_b": km_face(e.length_b_km),
    }
    f["avg"], f["avg_pct"] = average_row_faces(
        f["lm_ab"], f["lm_ba"], f["length_a"], f["length_b"]
    )
    total = e.length_a_km + e.length_b_km
    _cross_check(f["avg"], band.average_km(), 0.0011, f"matching average {e.a}/{e.b}")
    _cross_check(
        f["avg_pct"],
        band.average_pct(e.length_a_km, e.length_b_km),
        0.051 + 0.25 / total,
        f"matching average percent {e.a}/{e.b}",
    )
    return f


def dict_render_csv_tables(report: MetricsReport) -> dict[str, str]:
    """`report.render_csv_tables` with each entry's printed figures in a
    string-keyed dict, rounded and cross-checked per table."""
    out: dict[str, str] = {}

    te = report.transform_errors
    for kind, matrix in (("mean", te.mean_km), ("max", te.max_km)):
        lines = ["transform," + ",".join(te.set_names)]
        for name, row in zip(te.transform_names, matrix):
            lines.append(name + "," + ",".join(km_face(v) for v in row))
        out[f"transform_errors_{kind}.csv"] = "\n".join(lines) + "\n"

    lines = [
        "A,B,L_A_km,L_B_km,dir_max_AB_km,dir_max_BA_km,max_km,dir_mean_AB_km,dir_mean_BA_km,mean_km"
    ]
    for e in report.hausdorff:
        f = _dict_hausdorff_faces(e)
        lines.append(
            f"{e.a},{e.b},{f['length_a']},{f['length_b']},{f['dir_max_ab']},"
            f"{f['dir_max_ba']},{f['max']},{f['dir_mean_ab']},{f['dir_mean_ba']},{f['mean']}"
        )
    out["hausdorff.csv"] = "\n".join(lines) + "\n"

    lines = ["A,L_A_km,B,band_km,matching_km,percent"]
    for e in report.matching:
        for band in e.bands:
            f = _dict_matching_faces(e, band)
            bkm = km_face(band.band_km)
            lines.append(f"{e.a},{f['length_a']},{e.b},{bkm},{f['lm_ab']},{f['pct_ab']}")
            lines.append(f"{e.b},{f['length_b']},{e.a},{bkm},{f['lm_ba']},{f['pct_ba']}")
            lines.append(f"Average,,,{bkm},{f['avg']},{f['avg_pct']}")
    out["matching.csv"] = "\n".join(lines) + "\n"

    lines = ["A,B,distance_km"]
    for s in report.sources:
        lines.append(f"{s.a},{s.b},{km_face(s.distance_km)}")
    out["sources.csv"] = "\n".join(lines) + "\n"

    lines = ["curve,points,length_km"]
    for c in report.curves:
        lines.append(f"{c.name},{c.point_count},{km_face(c.length_km)}")
    out["curves.csv"] = "\n".join(lines) + "\n"

    return out


def dict_render_human(report: MetricsReport) -> str:
    """`report.render_human` reading the float entries itself, through the
    same per-entry dicts as `dict_render_csv_tables`."""
    w = []
    te = report.transform_errors
    if te.transform_names:
        name_w = max(len(n) for n in te.transform_names + ["transform"])
        col_w = max(len(s) for s in te.set_names + ["0000.000"]) + 2
        for kind, matrix in (("mean", te.mean_km), ("max", te.max_km)):
            w.append(f"Transformation errors, {kind} [km]")
            w.append(
                "  " + "transform".ljust(name_w) + "".join(s.rjust(col_w) for s in te.set_names)
            )
            for name, row in zip(te.transform_names, matrix):
                w.append("  " + name.ljust(name_w) + "".join(km_face(v).rjust(col_w) for v in row))
            w.append("")

    if report.curves:
        w.append("Curves")
        w.append("  " + "name".ljust(12) + "points".rjust(8) + "length [km]".rjust(14))
        for c in report.curves:
            w.append("  " + c.name.ljust(12) + str(c.point_count).rjust(8) + km_face(c.length_km).rjust(14))
        w.append("")

    if report.sources:
        w.append("Source distances [km]")
        for s in report.sources:
            w.append(f"  {s.a} - {s.b}: {km_face(s.distance_km)}")
        w.append("")

    if report.hausdorff:
        nw = max(
            [len(e.a) for e in report.hausdorff] + [len(e.b) for e in report.hausdorff] + [1]
        ) + 2
        w.append("Hausdorff distances [km]   (directed value, then combined)")
        head = "  " + "A".ljust(nw) + "B".ljust(nw)
        head += "max HD".rjust(10) + "d_H".rjust(10) + "mean HD".rjust(10) + "mean d_H".rjust(10)
        w.append(head)
        for e in report.hausdorff:
            f = _dict_hausdorff_faces(e)
            w.append(
                "  " + e.a.ljust(nw) + e.b.ljust(nw)
                + f["dir_max_ab"].rjust(10) + f["max"].rjust(10)
                + f["dir_mean_ab"].rjust(10) + f["mean"].rjust(10)
            )
            w.append(
                "  " + e.b.ljust(nw) + e.a.ljust(nw)
                + f["dir_max_ba"].rjust(10) + "".rjust(10)
                + f["dir_mean_ba"].rjust(10) + "".rjust(10)
            )
        w.append("")

    if report.matching:
        nw = max(
            [len(e.a) for e in report.matching] + [len(e.b) for e in report.matching] + [7]
        ) + 2
        w.append("Matching lengths [km] (percent of curve length)")
        bands = [km_face(b) for b in report.bands_km]
        head = "  " + "A".ljust(nw) + "L_A".rjust(10) + "  " + "B".ljust(nw)
        for b in bands:
            head += f"d_t={b}".rjust(22)
        w.append(head)
        for e in report.matching:
            faces = [_dict_matching_faces(e, band) for band in e.bands]
            row = "  " + e.a.ljust(nw) + faces[0]["length_a"].rjust(10) + "  " + e.b.ljust(nw)
            for f in faces:
                row += f"{f['lm_ab']} ({f['pct_ab']}%)".rjust(22)
            w.append(row)
            row = "  " + e.b.ljust(nw) + faces[0]["length_b"].rjust(10) + "  " + e.a.ljust(nw)
            for f in faces:
                row += f"{f['lm_ba']} ({f['pct_ba']}%)".rjust(22)
            w.append(row)
            row = "  " + "Average".ljust(nw) + "".rjust(10) + "  " + "".ljust(nw)
            for f in faces:
                row += f"{f['avg']} ({f['avg_pct']}%)".rjust(22)
            w.append(row)
        w.append("")

    return "\n".join(w)


def least_squares_objective(t, cset):
    """The fitted objective: summed squared degree-space residuals."""
    total = 0.0
    for c in cset.pairs:
        r1 = c.target.lon - (t.a1 * c.source.x1 + t.a2 * c.source.x2 + t.b1)
        r2 = c.target.lat - (t.a3 * c.source.x1 + t.a4 * c.source.x2 + t.b2)
        total += r1 * r1 + r2 * r2
    return total


def read_field_dump(path):
    """One parameter grid read back from a `write_field_dump` file, indexed
    [x1, x2]; raises ValueError if the grid disagrees with its header."""
    import numpy as np

    rows = []
    n1 = n2 = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "n1:" in line:
                parts = line.replace("#", "").split()
                n1 = int(parts[parts.index("n1:") + 1])
                n2 = int(parts[parts.index("n2:") + 1])
            continue
        rows.append([float(v) for v in line.split(",")])
    arr = np.array(rows).T  # rows were x2, columns x1
    if n1 is not None and arr.shape != (n1, n2):
        raise ValueError(f"{path}: grid shape {arr.shape} does not match header ({n1}, {n2})")
    return arr


def coo_laplace_matrix(dirichlet_mask):
    """`field.assemble_from_masks`'s matrix built as it was before the
    Kronecker sum: index reflection in four directions and COO lists summed
    into CSR."""
    import numpy as np
    import scipy.sparse as sp

    n1, n2 = dirichlet_mask.shape
    n = n1 * n2
    lin = np.arange(n).reshape(n1, n2)
    dir_flat = dirichlet_mask.reshape(-1)
    rows = [lin.reshape(-1)]
    cols = [lin.reshape(-1)]
    vals = [np.where(dir_flat, 1.0, 4.0)]
    ii, jj = np.meshgrid(np.arange(1, n1 + 1), np.arange(1, n2 + 1), indexing="ij")
    free = ~dirichlet_mask
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ni = ii + di
        nj = jj + dj
        # Zero-Neumann boundary: reflect the off-grid neighbor back inside.
        ni = np.where(ni == 0, 2, ni)
        ni = np.where(ni == n1 + 1, n1 - 1, ni)
        nj = np.where(nj == 0, 2, nj)
        nj = np.where(nj == n2 + 1, n2 - 1, nj)
        rows.append(lin[free])
        cols.append(((ni - 1) * n2 + (nj - 1))[free])
        vals.append(np.full(free.sum(), -1.0))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def kronsum_laplacian(grid):
    """`field._laplacian` as it was built before its five diagonals: the
    Kronecker sum of one 1-D second difference per grid side, with
    zero-Neumann ends where the neighbor reflected across an end folds onto
    the inner one."""
    import numpy as np
    import scipy.sparse as sp

    def second_difference(n):
        lower = np.full(n - 1, -1.0)
        upper = lower.copy()
        lower[-1] = upper[0] = -2.0
        return sp.diags([lower, np.full(n, 2.0), upper], [-1, 0, 1])

    return sp.kronsum(second_difference(grid.n2), second_difference(grid.n1), "csr")


def indexed_newton_many(self, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1):
    """`_geodesic.Geodesic._newton_many` as it was before its state held
    only the live elements: each pass gathered the live elements out of
    full-length state (a 4 x n bracket matrix among it) by an index and
    scattered them back, and it updated salp1 and calp1 in place.  `self` is
    a `Geodesic`; it returns s12, salp1, calp1, salp2, calp2."""
    import numpy as np

    from mapregister._geodesic import _NEWTON_PASSES, _TOLB, _norm_many
    from mapregister.errors import ConvergenceError

    n = lam12.size
    s12, salp2, calp2, ov = np.zeros((4, n))
    trip, bisected = np.zeros((2, n), dtype=bool)
    bracket = np.array([[_TINY], [1.0], [_TINY], [-1.0]]).repeat(n, axis=1)
    act = np.arange(n)
    for it in range(_geodesic._MAXIT if n else 0):
        sb1, cb1, sb2, cb2 = sbet1[act], cbet1[act], sbet2[act], cbet2[act]
        sa1, ca1 = salp1[act], calp1[act]
        nlam12, sa2, ca2, sig12, ssig1, csig1, ssig2, csig2, eps = self._lambda12_many(
            sb1, cb1, sb2, cb2, sa1, ca1
        )
        s12b, m12a = self._lengths(eps, sig12, ssig1, csig1, ssig2, csig2, cb1, cb2)
        v = nlam12 - lam12[act]
        stop = ~(np.abs(v) > _TINY) | trip[act]
        # A Newton stop after a step that made |v| grow iterates on.
        stop &= bisected[act] | (np.abs(v) <= np.maximum(_TOL1, ov[act]))
        if stop.any():
            k = act[stop]
            s12[k] = s12b[stop] * self.b
            salp2[k], calp2[k] = sa2[stop], ca2[stop]
            go = ~stop
            act = act[go]
            if not act.size:
                break
            sb1, cb1, cb2, sa1, ca1, ca2, v, m12a = (x[go] for x in (sb1, cb1, cb2, sa1, ca1, ca2, v, m12a))
        sa, ca, sb, cb = bracket[:, act]
        past = it >= _NEWTON_PASSES
        up = (v > 0) & (past | (ca1 * sb > cb * sa1))
        down = (v < 0) & (past | (ca1 * sa < ca * sa1))
        sa, ca = np.where(down, sa1, sa), np.where(down, ca1, ca)
        sb, cb = np.where(up, sa1, sb), np.where(up, ca1, cb)
        bracket[:, act] = sa, ca, sb, cb
        # d(lambda12)/d(alp1), with its limit at a vertex (calp2 == 0).
        vertex = ca2 == 0
        dv = np.where(vertex, -2 * np.sqrt(1 - self.e2 * cb1 * cb1), m12a) / np.where(vertex, sb1, ca2 * cb2)
        dalp1 = -v / dv
        sdalp1, cdalp1 = np.sin(dalp1), np.cos(dalp1)
        nsalp1 = sa1 * cdalp1 + ca1 * sdalp1
        ca1 = ca1 * cdalp1 - sa1 * sdalp1
        newton = (dv > 0) & (nsalp1 > 0) & (np.abs(dalp1) < math.pi) & (not past)
        sa1, ca1 = _norm_many(np.where(newton, nsalp1, (sa + sb) / 2), np.where(newton, ca1, (ca + cb) / 2))
        closed = (np.abs(sa - sa1) + (ca - ca1) < _TOLB) | (np.abs(sa1 - sb) + (ca1 - cb) < _TOLB)
        salp1[act], calp1[act] = sa1, ca1
        trip[act] = np.where(newton, ~((np.abs(v) >= _TOL1) & (v * v >= ov[act] * _TOL0)), closed)
        bisected[act] = ~newton
        ov[act] = np.abs(v)
    if act.size:
        raise ConvergenceError(
            f"geodesic inverse did not converge in {_geodesic._MAXIT} passes ({act.size} of {n} pairs)"
        )
    return s12, salp1, calp1, salp2, calp2


def lu_solve_field(system):
    """`field.solve_field` by one sparse LU factorization of the assembled
    matrix and two iterative refinement passes."""
    import numpy as np
    import scipy.sparse.linalg as spla

    from mapregister.errors import ConvergenceError, SingularSystemError
    from mapregister.field import RESIDUAL_RTOL, ParameterField, _check_maximum_principle

    if not system.dirichlet_mask.any():
        raise SingularSystemError("no Dirichlet nodes: the pure-Neumann system is singular")
    try:
        lu = spla.splu(system.matrix.tocsc())
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc

    m, rhs = system.matrix, system.rhs
    u = lu.solve(rhs)
    for _ in range(2):
        r = rhs - m @ u
        if np.abs(r).max() == 0.0:
            break
        u += lu.solve(r)

    dir_flat = system.dirichlet_mask.reshape(-1)
    u[dir_flat] = rhs[dir_flat]

    scale = np.maximum(1.0, np.abs(rhs).max(axis=0))
    residuals = np.abs(m @ u - rhs).max(axis=0)
    worst = float((residuals / scale).max())
    if worst > RESIDUAL_RTOL:
        raise ConvergenceError(
            f"residual contract unmet: {worst:.3e} > {RESIDUAL_RTOL:.0e} (per-parameter "
            f"residuals {residuals.tolist()})"
        )

    n1, n2 = system.grid.n1, system.grid.n2
    grids = u.reshape(n1, n2, 6)
    _check_maximum_principle(grids, system.values)
    grids.setflags(write=False)
    return ParameterField(system.grid, grids, system.dirichlet_mask.copy(), worst)


def scalar_write_field_dump(field, directory):
    """`formats.write_field_dump` formatting one numpy scalar at a time."""
    from pathlib import Path

    from mapregister.affine import AffineParams

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = field.grid
    written = []
    for k, pname in enumerate(AffineParams.PARAM_NAMES):
        out = directory / f"{pname}.csv"
        values = field.params[:, :, k]
        lines = [
            f"# parameter: {pname}",
            f"# n1: {grid.n1} n2: {grid.n2}",
            f"# origin_x1: {grid.origin.x1!r} origin_x2: {grid.origin.x2!r}",
        ]
        for j in range(grid.n2):
            lines.append(",".join(repr(float(values[i, j])) for i in range(grid.n1)))
        out.write_text("\n".join(lines) + "\n")
        written.append(out)
    return written


# The package's scalar Karney engine, one geodesic at a time with the `math`
# functions: the reference for `Geodesic.inverse_many` and
# `Geodesic.direct_many`, which replaced it.  It shares the series tables
# (`_A1`, `_C1`, `_C1P` and the ellipsoid's A3 and C3), the helpers that
# read them (`_horner`, `_series`, `_sin_series`) and the constants with the
# package.  Where its Newton iteration fails it keeps Karney's over-the-pole
# length, which the package no longer has.

_MAXIT = _geodesic._MAXIT


def _sincosd(x: float) -> tuple[float, float]:
    """sin and cos of an angle in degrees, exact at quadrant boundaries.

    The sign of a zero argument is preserved (sin(-0) = -0): the inverse
    problem's canonical form encodes hemisphere information in signed
    zeros for points exactly on the equator.
    """
    r = math.fmod(x, 360.0)
    q = int(round(r / 90.0))
    r = math.radians(r - 90.0 * q)
    s, c = math.sin(r), math.cos(r)
    q %= 4
    if q == 1:
        s, c = c, -s
    elif q == 2:
        s, c = -s, -c
    elif q == 3:
        s, c = -c, s
    if x != 0.0:
        s, c = 0.0 + s, 0.0 + c
    return s, c


def _atan2d(y: float, x: float) -> float:
    """atan2 in degrees, with exact values on the axes."""
    q = 0
    if abs(y) > abs(x):
        x, y = y, x
        q = 2
    if x < 0:
        x = -x
        q += 1
    ang = math.degrees(math.atan2(y, x))
    if q == 1:
        ang = (180.0 if y >= 0 else -180.0) - ang
    elif q == 2:
        ang = 90.0 - ang
    elif q == 3:
        ang = -90.0 + ang
    return ang


def _ang_normalize(x: float) -> float:
    """Reduce an angle to (-180, 180]."""
    y = math.remainder(x, 360.0)
    return 180.0 if y <= -180.0 else y


def _ang_round(x: float) -> float:
    # Flush tiny angles (< 1/2^57 deg) to zero so near-singular
    # configurations collapse onto their exact special case.
    z = 1.0 / 16.0
    y = abs(x)
    if y < z:
        y = z - (z - y)
    return -y if x < 0 else y


def _norm(s: float, c: float) -> tuple[float, float]:
    r = math.hypot(s, c)
    return s / r, c / r


def _astroid(x: float, y: float) -> float:
    # Positive root k of k^4 + 2k^3 - (x^2+y^2-1) k^2 - 2y^2 k - y^2 = 0,
    # used to seed the azimuth for nearly antipodal inverse problems.
    p = x * x
    q = y * y
    r = (p + q - 1) / 6
    if not (q == 0 and r <= 0):
        s = p * q / 4
        r2 = r * r
        r3 = r * r2
        disc = s * (s + 2 * r3)
        u = r
        if disc >= 0:
            t3 = s + r3
            t3 += -math.sqrt(disc) if t3 < 0 else math.sqrt(disc)
            t = math.copysign(abs(t3) ** (1.0 / 3.0), t3)
            u += t + (r2 / t if t != 0 else 0.0)
        else:
            ang = math.atan2(math.sqrt(-disc), -(s + r3))
            u += 2 * r * math.cos(ang / 3)
        v = math.sqrt(u * u + q)
        uv = q / (v - u) if u < 0 else u + v
        w = (uv - q) / (2 * v)
        return uv / (math.sqrt(uv + w * w) + w)
    return 0.0


class ScalarGeodesic(Geodesic):
    """`Geodesic` whose `inverse` and `direct` solve one geodesic at a time."""

    def _lengths(self, eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2):
        # `Geodesic._lengths` with `math.sqrt`, which keeps every value a
        # Python float: the same bits, without NumPy's scalar overhead.
        eps2 = eps * eps
        c1a = _series(_C1, eps, eps2)
        c2a = _series(_C2, eps, eps2)
        a1m1 = (_horner(_A1, eps2) / 256 + eps) / (1 - eps)
        ab1 = (1 + a1m1) * (_sin_series(ssig2, csig2, c1a) - _sin_series(ssig1, csig1, c1a))
        a2m1 = _horner(_A2, eps2) / 256 * (1 - eps) - eps
        ab2 = (1 + a2m1) * (_sin_series(ssig2, csig2, c2a) - _sin_series(ssig1, csig1, c2a))
        j12 = (a1m1 - a2m1) * sig12 + (ab1 - ab2)
        w1 = math.sqrt(1 - self.e2 * cbet1 * cbet1)
        w2 = math.sqrt(1 - self.e2 * cbet2 * cbet2)
        m12a = (w2 * (csig1 * ssig2) - w1 * (ssig1 * csig2)) - self.f1 * csig1 * csig2 * j12
        s12b = (1 + a1m1) * sig12 + ab1
        return s12b, m12a

    def _inverse_start(self, sbet1, cbet1, sbet2, cbet2, lam12):
        # Starting azimuth for Newton's method; sig12 >= 0 signals that the
        # short-line approximation already solved the problem.
        sig12 = -1.0
        salp2 = calp2 = math.nan
        sbet12 = sbet2 * cbet1 - cbet2 * sbet1
        cbet12 = cbet2 * cbet1 + sbet2 * sbet1
        sbet12a = sbet2 * cbet1 + cbet2 * sbet1

        shortline = cbet12 >= 0 and sbet12 < 0.5 and lam12 <= math.pi / 6
        omg12 = lam12 / math.sqrt(1 - self.e2 * cbet1 * cbet1) if shortline else lam12
        somg12, comg12 = math.sin(omg12), math.cos(omg12)

        salp1 = cbet2 * somg12
        calp1 = (
            sbet12 + cbet2 * sbet1 * somg12 * somg12 / (1 + comg12)
            if comg12 >= 0
            else sbet12a - cbet2 * sbet1 * somg12 * somg12 / (1 - comg12)
        )

        ssig12 = math.hypot(salp1, calp1)
        csig12 = sbet1 * sbet2 + cbet1 * cbet2 * comg12

        if shortline and ssig12 < self._etol2:
            salp2 = cbet1 * somg12
            calp2 = sbet12 - cbet1 * sbet2 * somg12 * somg12 / (1 + comg12)
            salp2, calp2 = _norm(salp2, calp2)
            sig12 = math.atan2(ssig12, csig12)
        elif csig12 >= 0 or ssig12 >= 3 * abs(self.f) * math.pi * cbet1 * cbet1:
            # The zeroth-order spherical start is adequate.
            pass
        else:
            # Nearly antipodal: rescale to the astroid coordinate system
            # (x, y) with the antipode at the origin (oblate case).
            k2 = sbet1 * sbet1 * self.ep2
            eps = k2 / (2 * (1 + math.sqrt(1 + k2)) + k2)
            lamscale = self.f * cbet1 * _horner(self._a3, eps) * math.pi
            betscale = lamscale * cbet1
            x = (lam12 - math.pi) / lamscale
            y = sbet12a / betscale
            if y > -_TOL1 and x > -1 - _XTHRESH:
                salp1 = min(1.0, -x)
                calp1 = -math.sqrt(1 - salp1 * salp1)
            else:
                k = _astroid(x, y)
                omg12a = lamscale * (-x * k / (1 + k))
                somg12 = math.sin(omg12a)
                comg12 = -math.cos(omg12a)
                salp1 = cbet2 * somg12
                calp1 = sbet12a - cbet2 * sbet1 * somg12 * somg12 / (1 - comg12)
        salp1, calp1 = _norm(salp1, calp1)
        return sig12, salp1, calp1, salp2, calp2

    def _lambda12(self, sbet1, cbet1, sbet2, cbet2, salp1, calp1, diffp):
        if sbet1 == 0 and calp1 == 0:
            # Break the degeneracy of the equatorial line.
            calp1 = -_TINY

        salp0 = salp1 * cbet1
        calp0 = math.hypot(calp1, salp1 * sbet1)

        ssig1 = sbet1
        somg1 = salp0 * sbet1
        csig1 = comg1 = calp1 * cbet1
        ssig1, csig1 = _norm(ssig1, csig1)

        salp2 = salp0 / cbet2 if cbet2 != cbet1 else salp1
        calp2 = (
            math.sqrt(
                (calp1 * cbet1) ** 2
                + ((cbet2 - cbet1) * (cbet1 + cbet2) if cbet1 < -sbet1 else (sbet1 - sbet2) * (sbet1 + sbet2))
            )
            / cbet2
            if cbet2 != cbet1 or abs(sbet2) != -sbet1
            else abs(calp1)
        )
        ssig2 = sbet2
        somg2 = salp0 * sbet2
        csig2 = comg2 = calp2 * cbet2
        ssig2, csig2 = _norm(ssig2, csig2)

        sig12 = math.atan2(max(0.0, csig1 * ssig2 - ssig1 * csig2), csig1 * csig2 + ssig1 * ssig2)
        omg12 = math.atan2(max(0.0, comg1 * somg2 - somg1 * comg2), comg1 * comg2 + somg1 * somg2)

        k2 = calp0 * calp0 * self.ep2
        eps = k2 / (2 * (1 + math.sqrt(1 + k2)) + k2)
        c3a = _series(self._c3, eps, eps)
        b312 = _sin_series(ssig2, csig2, c3a) - _sin_series(ssig1, csig1, c3a)
        h0 = -self.f * _horner(self._a3, eps)
        domg12 = salp0 * h0 * (sig12 + b312)
        lam12 = omg12 + domg12

        if diffp:
            if calp2 == 0:
                dlam12 = -2 * math.sqrt(1 - self.e2 * cbet1 * cbet1) / sbet1
            else:
                _, dlam12 = self._lengths(eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2)
                dlam12 /= calp2 * cbet2
        else:
            dlam12 = math.nan

        return lam12, salp2, calp2, sig12, ssig1, csig1, ssig2, csig2, eps, domg12, dlam12

    def inverse(self, lat1: float, lon1: float, lat2: float, lon2: float) -> Inverse:
        """Shortest geodesic between two points; total for all inputs."""
        lon12 = _ang_round(_ang_normalize(_ang_normalize(lon2) - _ang_normalize(lon1)))
        lonsign = 1 if lon12 >= 0 else -1
        lon12 *= lonsign
        if lon12 == 180:
            lonsign = 1
        lat1 = _ang_round(lat1)
        lat2 = _ang_round(lat2)
        # Canonical arrangement: point 1 at the higher absolute latitude,
        # southern hemisphere, eastward longitude difference.
        swapp = 1 if abs(lat1) >= abs(lat2) else -1
        if swapp < 0:
            lonsign *= -1
            lat2, lat1 = lat1, lat2
        latsign = 1 if lat1 < 0 else -1
        lat1 *= latsign
        lat2 *= latsign

        sbet1, cbet1 = _sincosd(lat1)
        sbet1 *= self.f1
        if lat1 == -90:
            cbet1 = _TINY
        sbet1, cbet1 = _norm(sbet1, cbet1)

        sbet2, cbet2 = _sincosd(lat2)
        sbet2 *= self.f1
        if abs(lat2) == 90:
            cbet2 = _TINY
        sbet2, cbet2 = _norm(sbet2, cbet2)

        # Force bet2 = +/- bet1 exactly when the latitudes agree; this keeps
        # the Newton iteration away from removable singularities.
        if cbet1 < -sbet1:
            if cbet2 == cbet1:
                sbet2 = sbet1 if sbet2 < 0 else -sbet1
        else:
            if abs(sbet2) == -sbet1:
                cbet2 = cbet1

        lam12 = math.radians(lon12)
        slam12, clam12 = _sincosd(lon12)

        s12 = math.nan
        salp1 = calp1 = salp2 = calp2 = math.nan

        meridian = lat1 == -90 or slam12 == 0
        done = False

        if meridian:
            calp1, salp1 = clam12, slam12
            calp2, salp2 = 1.0, 0.0
            ssig1, csig1 = sbet1, calp1 * cbet1
            ssig2, csig2 = sbet2, calp2 * cbet2
            sig12 = math.atan2(max(0.0, csig1 * ssig2 - ssig1 * csig2), csig1 * csig2 + ssig1 * ssig2)
            s12x, m12x = self._lengths(self.n, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2)
            if sig12 < 1 or m12x >= 0:
                s12 = s12x * self.b
                done = True
            else:
                # Nearly antipodal on a meridian: the meridional path is not
                # shortest, fall through to the general machinery.
                meridian = False

        if not done and not meridian and sbet1 == 0 and lam12 <= math.pi - self.f * math.pi:
            # Equatorial line.
            calp1 = calp2 = 0.0
            salp1 = salp2 = 1.0
            s12 = self.a * lam12
            done = True

        if not done and not meridian:
            sig12, salp1, calp1, salp2, calp2 = self._inverse_start(sbet1, cbet1, sbet2, cbet2, lam12)
            if sig12 >= 0:
                # Short-line case solved directly by the starting guess.
                w1 = math.sqrt(1 - self.e2 * cbet1 * cbet1)
                s12 = sig12 * self.a * w1
                done = True
            else:
                ov = 0.0
                numit = 0
                trip = 0
                eps = 0.0
                ssig1 = csig1 = ssig2 = csig2 = math.nan
                while numit < _MAXIT:
                    (nlam12, salp2, calp2, sig12, ssig1, csig1, ssig2, csig2, eps, _, dv) = self._lambda12(
                        sbet1, cbet1, sbet2, cbet2, salp1, calp1, trip < 1
                    )
                    v = nlam12 - lam12
                    if not (abs(v) > _TINY) or not (trip < 1):
                        if not (abs(v) <= max(_TOL1, ov)):
                            numit = _MAXIT
                        break
                    dalp1 = -v / dv
                    sdalp1, cdalp1 = math.sin(dalp1), math.cos(dalp1)
                    nsalp1 = salp1 * cdalp1 + calp1 * sdalp1
                    calp1 = calp1 * cdalp1 - salp1 * sdalp1
                    salp1 = max(0.0, nsalp1)
                    salp1, calp1 = _norm(salp1, calp1)
                    if not (abs(v) >= _TOL1 and v * v >= ov * _TOL0):
                        trip += 1
                    ov = abs(v)
                    numit += 1

                if numit >= _MAXIT:
                    return self._antipodal_fallback(lat1 * latsign, lat2 * latsign)

                s12x, _ = self._lengths(eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2)
                s12 = s12x * self.b
                done = True

        if swapp < 0:
            salp2, salp1 = salp1, salp2
            calp2, calp1 = calp1, calp2
        salp1 *= swapp * lonsign
        calp1 *= swapp * latsign
        return Inverse(0.0 + s12, _atan2d(salp1, calp1))

    def _antipodal_fallback(self, lat1: float, lat2: float) -> Inverse:
        # Length of the path running over the nearest pole; exact for truly
        # antipodal points on an oblate ellipsoid, a few meters otherwise.
        up1 = self.inverse(lat1, 0.0, 90.0, 0.0).s12
        up2 = self.inverse(lat2, 0.0, 90.0, 0.0).s12
        return Inverse(up1 + up2, 0.0)

    def direct(self, lat1: float, lon1: float, azi1: float, s12: float) -> tuple[float, float]:
        """Destination (lat2, lon2) after s12 meters along azi1."""
        return GeodesicLine(self, lat1, lon1, azi1).position(s12)


class GeodesicLine:
    """Points along a single geodesic, parameterized by distance."""

    def __init__(self, g: Geodesic, lat1: float, lon1: float, azi1: float):
        self._g = g
        self.lat1 = lat1
        self.lon1 = lon1
        self.azi1 = _ang_normalize(azi1)
        salp1, calp1 = _sincosd(_ang_round(self.azi1))
        sbet1, cbet1 = _sincosd(_ang_round(lat1))
        sbet1 *= g.f1
        sbet1, cbet1 = _norm(sbet1, cbet1)
        cbet1 = max(_TINY, cbet1)

        self._salp0 = salp1 * cbet1
        self._calp0 = math.hypot(calp1, salp1 * sbet1)
        self._ssig1 = sbet1
        self._somg1 = self._salp0 * sbet1
        self._csig1 = self._comg1 = cbet1 * calp1 if sbet1 != 0 or calp1 != 0 else 1.0
        self._ssig1, self._csig1 = _norm(self._ssig1, self._csig1)

        k2 = self._calp0 * self._calp0 * g.ep2
        eps = k2 / (2 * (1 + math.sqrt(1 + k2)) + k2)
        eps2 = eps * eps
        self._a1m1 = (_horner(_A1, eps2) / 256 + eps) / (1 - eps)
        self._c1a = _series(_C1, eps, eps2)
        self._b11 = _sin_series(self._ssig1, self._csig1, self._c1a)
        s, c = math.sin(self._b11), math.cos(self._b11)
        # tau1 = sig1 + B11
        self._stau1 = self._ssig1 * c + self._csig1 * s
        self._ctau1 = self._csig1 * c - self._ssig1 * s
        self._c1pa = _series(_C1P, eps, eps2)
        self._c3a = _series(g._c3, eps, eps)
        self._a3c = -g.f * self._salp0 * _horner(g._a3, eps)
        self._b31 = _sin_series(self._ssig1, self._csig1, self._c3a)

    def position(self, s12: float) -> tuple[float, float]:
        """(lat2, lon2) at distance s12 meters from the start point."""
        g = self._g
        tau12 = s12 / (g.b * (1 + self._a1m1))
        s, c = math.sin(tau12), math.cos(tau12)
        # tau2 = tau1 + tau12; invert the distance series for sigma.
        b12 = -_sin_series(self._stau1 * c + self._ctau1 * s, self._ctau1 * c - self._stau1 * s, self._c1pa)
        sig12 = tau12 - (b12 - self._b11)
        ssig12, csig12 = math.sin(sig12), math.cos(sig12)

        ssig2 = self._ssig1 * csig12 + self._csig1 * ssig12
        csig2 = self._csig1 * csig12 - self._ssig1 * ssig12
        sbet2 = self._calp0 * ssig2
        cbet2 = math.hypot(self._salp0, self._calp0 * csig2)
        if cbet2 == 0:
            cbet2 = csig2 = _TINY
        somg2 = self._salp0 * ssig2
        comg2 = csig2

        omg12 = math.atan2(
            somg2 * self._comg1 - comg2 * self._somg1, comg2 * self._comg1 + somg2 * self._somg1
        )
        lam12 = omg12 + self._a3c * (
            sig12 + (_sin_series(ssig2, csig2, self._c3a) - self._b31)
        )
        lon12 = _ang_normalize(math.degrees(lam12))
        lon2 = _ang_normalize(_ang_normalize(self.lon1) + lon12)
        return _atan2d(sbet2, g.f1 * cbet2), lon2




#: The scalar engine on WGS84.
SCALAR_WGS84 = ScalarGeodesic(WGS84.a, WGS84.f)

# The allowance of the array engine against the scalar one.  The array
# engine takes arctan2, hypot and cbrt from NumPy, which differ from the
# `math` functions by an ulp on a few percent of arguments, and the
# inverse's cancellations turn an ulp into nanometres.  Worst cases measured
# on 1.4M inverse pairs (uniform; within 2 deg; 1e-8 to 0.03 deg apart;
# within 0.5 deg of the antipode, also near the equator; 1e-9 to 1e-2 deg
# from it; exactly antipodal; meridians; the equator; pole endpoints), of
# which 4.7% changed:
#   |ds12|         2.1e-9 m below 100 km, 1.1e-8 m at most (s12 near 2e7 m);
#   |dazi1| s12    1.7e-9 m below 100 km; |dazi1| 1.1e-12 rad beyond 1 km;
# and on 1.2M direct lines (uniform; from the poles and the equator;
# azimuths 0, +-90 and +-180 deg; 0 to 4e7 m), of which 6.3% changed:
#   the distance between the destinations   3.2e-9 m below 100 km (2.1e-9 m
#                  at s12 = 0, an ulp of a coordinate), 1.2e-8 m at most.
# Each allowance is about ten times its worst case (9.4 times for direct
# lines shorter than a meter).  The anchor distances of the array pass keep
# to the distance allowance too: 2.8e-9 m at worst over 3,645 anchors of
# 480 random curve pairs and long-edge cases.
ENGINE_ABS_M = 3e-8
INVERSE_REL = 5e-15
AZIMUTH_RAD = 5e-12
DIRECT_REL = 1e-14


def assert_inverse_close(s12: float, azi1: float, ref: Inverse) -> None:
    """An array inverse (s12, azi1) within the allowance of the scalar
    `ref`: the distance, and the departure azimuth as the sideways offset
    |dazi1| * s12 it makes over the line, both within ENGINE_ABS_M plus a
    multiple of s12."""
    assert abs(s12 - ref.s12) <= ENGINE_ABS_M + INVERSE_REL * ref.s12, (s12, ref)
    dazi = math.radians(abs((azi1 - ref.azi1 + 180.0) % 360.0 - 180.0))
    assert dazi * ref.s12 <= ENGINE_ABS_M + AZIMUTH_RAD * ref.s12, (azi1, ref)


def assert_direct_close(got: tuple[float, float], lat1: float, lon1: float, azi1: float, s12: float) -> None:
    """An array direct position `got` = (lat2, lon2) within the allowance
    of the scalar one: the geodesic distance between them, in meters."""
    want = SCALAR_WGS84.direct(lat1, lon1, azi1, s12)
    gap = SCALAR_WGS84.inverse(*got, *want).s12
    assert gap <= ENGINE_ABS_M + DIRECT_REL * abs(s12), ((lat1, lon1, azi1, s12), got, want)


def scalar_distance(p, q) -> float:
    """`geodesy.geodesic_distance` by the scalar engine."""
    if p.lat == q.lat and p.lon == q.lon:
        return 0.0
    return SCALAR_WGS84.inverse(p.lat, p.lon, q.lat, q.lon).s12
