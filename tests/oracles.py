"""Independent reference implementations used only to check the library.

Distances come from Vincenty's 1975 nested-equation iteration, meridian arcs
from the complete elliptic integral, and point-to-segment distances from
brute-force densification; none of these share code with the package.  The
one exception is `scalar_anchor_min_distances`, the package's earlier
one-inverse-per-pair anchor pass, kept as the reference for the array pass.
"""

from __future__ import annotations

import math

import scipy.special

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
    """`curves.anchor_min_distances` with one scalar `Geodesic.inverse` call
    per anchor and chain point, each chain edge handled as a planar chord in
    the anchor's azimuthal equidistant plane."""
    from mapregister._geodesic import WGS84
    from mapregister.geodesy import LONG_SEGMENT_M, GeoSegment, geodesic_distance, point_to_segment_distance

    chain = b.chain
    edge_len = [geodesic_distance(chain[k], chain[k + 1]) for k in range(len(chain) - 1)]
    long_edges = [k for k, ln in enumerate(edge_len) if ln > LONG_SEGMENT_M]
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
            r = WGS84.inverse(alat, alon, q.lat, q.lon)
            az = math.radians(r.azi1)
            xs.append(r.s12 * math.sin(az))
            ys.append(r.s12 * math.cos(az))
        best = math.inf
        for k in range(len(chain) - 1):
            ax, ay, bx, by = xs[k], ys[k], xs[k + 1], ys[k + 1]
            dx, dy = bx - ax, by - ay
            dd = dx * dx + dy * dy
            if dd == 0.0:
                d = math.hypot(ax, ay)
            else:
                t = -(ax * dx + ay * dy) / dd
                t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                d = math.hypot(ax + t * dx, ay + t * dy)
            if d < best:
                best = d
        for k in long_edges:
            d = point_to_segment_distance(anchor, GeoSegment(chain[k], chain[k + 1]))
            if d < best:
                best = d
        out.append(best)
    return out
