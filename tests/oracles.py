"""Independent reference implementations used only to check the library.

Distances come from Vincenty's 1975 nested-equation iteration, meridian arcs
from the complete elliptic integral, and point-to-segment distances from
brute-force densification; none of these share code with the package.  The
exceptions are the package's earlier scalar and direct paths, kept as the
references for the array paths that replaced them:
`scalar_point_to_segment_distance`, its one-geodesic-at-a-time
point-to-segment distance with the planar-chord helpers it used;
`scalar_anchor_min_distances`, its one-inverse-per-pair anchor pass, whose
long-edge fallback is that function; `full_anchor_min_distances`, its array
anchor pass before the chord-bound skip test; `scalar_build_segments`, its
edge-by-edge segment building; `lu_solve_field`, its sparse-LU field solve;
and `scalar_write_field_dump`, its value-by-value field dump.  The test-only
readers of library outputs (`least_squares_objective`, `read_field_dump`)
live here too.
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
    from mapregister.geodesy import LONG_SEGMENT_M, GeoPoint, GeoSegment, geodesic_distance

    chain = [GeoPoint(lon, lat) for lon, lat in b.chain.tolist()]
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
            d = scalar_point_to_segment_distance(anchor, GeoSegment(chain[k], chain[k + 1]))
            if d < best:
                best = d
        out.append(best)
    return out


def full_anchor_min_distances(a, b):
    """`curves.anchor_min_distances` without its skip test: every chain
    point of B projected into every anchor's plane, in array batches of at
    most 4096 anchor x point pairs."""
    import numpy as np

    from mapregister.geodesy import LONG_SEGMENT_M, densified_distances, densify, origin_to_chord, plane_coords

    alon, alat = a.chain[::2, 0], a.chain[::2, 1]
    blon, blat = b.chain[:, 0], b.chain[:, 1]
    step = max(1, 4096 // len(blat))
    out = np.empty(len(alat))
    for i in range(0, len(alat), step):
        batch = slice(i, i + step)
        x, y = plane_coords(alat[batch, None], alon[batch, None], blat, blon)
        out[batch] = origin_to_chord(x[:, :-1], y[:, :-1], x[:, 1:], y[:, 1:]).min(axis=1)
    for k in np.flatnonzero(b.edge_lengths > LONG_SEGMENT_M):
        slat, slon = densify(blat[k], blon[k], blat[k + 1], blon[k + 1])
        out = np.minimum(out, densified_distances(alat, alon, slat, slon))
    return out.tolist()


def _plane_coords(center, p):
    # Azimuthal equidistant coordinates of p in the plane centered at
    # `center`: radial distance is the true geodesic distance.
    from mapregister._geodesic import WGS84

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


def _projected_distance(p, a, b) -> float:
    ax, ay = _plane_coords(p, a)
    bx, by = _plane_coords(p, b)
    return _origin_to_chord(ax, ay, bx, by)


def scalar_point_to_segment_distance(p, s) -> float:
    """`geodesy.point_to_segment_distance` with one scalar geodesic per
    projected point and per densification sample."""
    from mapregister._geodesic import WGS84, GeodesicLine
    from mapregister.geodesy import DENSIFY_STEP_M, LONG_SEGMENT_M, GeoPoint, geodesic_distance

    if s.is_degenerate:
        return geodesic_distance(p, s.start)
    inv = WGS84.inverse(s.start.lat, s.start.lon, s.end.lat, s.end.lon)
    if inv.s12 <= LONG_SEGMENT_M:
        return _projected_distance(p, s.start, s.end)

    line = GeodesicLine(WGS84, s.start.lat, s.start.lon, inv.azi1)
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


def scalar_build_segments(points):
    """`curves.build_segments` edge by edge with the scalar geodesics:
    returns (vertices, chain, edge_lengths, segment lengths, length)."""
    from mapregister.geodesy import geodesic_distance, geodesic_midpoint

    pts = []
    for p in points:
        if not pts or p != pts[-1]:
            pts.append(p)
    mids = [geodesic_midpoint(p, q) for p, q in zip(pts, pts[1:])]
    left = [geodesic_distance(p, m) for p, m in zip(pts, mids)]
    right = [geodesic_distance(m, q) for m, q in zip(mids, pts[1:])]
    chain = [pts[0]]
    edge_lengths = []
    for i in range(len(mids)):
        chain += [mids[i], pts[i + 1]]
        edge_lengths += [left[i], right[i]]
    seg = [left[0]] + [right[i - 1] + left[i] for i in range(1, len(pts) - 1)] + [right[-1]]
    return pts, chain, edge_lengths, seg, sum(seg)


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
        lu = spla.splu(system.matrix)
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
    _check_maximum_principle(grids, system.dirichlet_mask, rhs, dir_flat)
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
