"""Ellipsoidal geodesic engine: inverse and direct problems on WGS84.

Implements the series-expansion method of C. F. F. Karney, "Algorithms for
geodesics", J. Geodesy 87, 43-55 (2013), with sixth-order expansions in the
third flattening.  The expansions are data, one table per series of the
paper (A1 and C1, C1', A2 and C2, A3 and C3), read by one Horner routine,
one routine for the Fourier coefficients and one Clenshaw sum.  The inverse
problem is solved by Newton iteration on the departure azimuth, seeded with
the astroid construction for nearly antipodal pairs, inside a bracket on
the azimuth that it bisects where a Newton step would leave it (as in
GeographicLib).  Its state holds only the elements still iterating, each
written to the result once when it stops; if some have not converged after
`_MAXIT` passes it raises `ConvergenceError`.  Accuracy on WGS84 is far
below a millimeter.

Both problems are solved on arrays, by `Geodesic.inverse_many` for batches
of point pairs and `Geodesic.direct_many` for batches of lines; every
special case of the method (meridians, the equator, the astroid start) is a
masked branch of the batch, and `Geodesic.inverse` and `Geodesic.direct` are
one-element views of them.  Both solve their flattened broadcast
arguments in slices of at most `_SLICE` elements; each element is solved
on its own, so slicing moves no bit.  Only the pieces this package needs
are provided: distance and departure azimuth for the inverse problem,
position for the direct problem.  Coincident points are exactly 0.0
apart, a line of length 0 ends exactly on its start, and every longitude
returned is reduced to (-180, 180] by `_ang_normalize_many`, which is
exact.

The transcendental steps are NumPy's own (sin, cos, arctan2, hypot, cbrt).
They differ from the `math` functions of Karney's scalar formulation by an
ulp on a few percent of arguments, which the inverse's cancellations turn
into nanometres.  The tests keep that scalar formulation as the reference
and hold the engine to a measured allowance against it (`tests/oracles.py`):
distances within 3e-8 m + 5e-15 s12, departure azimuths within a sideways
offset |dazi1| s12 of 3e-8 m + 5e-12 s12, and direct positions within 3e-8 m
+ 1e-14 s12 of the reference's.  Each is about ten times the worst case
measured on over a million random and special-case problems.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

_TINY = math.sqrt(math.ldexp(1.0, -1022))
_TOL0 = 2.220446049250313e-16
_TOL1 = 200 * _TOL0
_TOL2 = math.sqrt(_TOL0)
_TOLB = _TOL0 * _TOL2
_XTHRESH = 1000 * _TOL2
_MAXIT = 100
_NEWTON_PASSES = 20
#: Elements per solve of `inverse_many` and `direct_many`; at about 900 B
#: of transients per element, a solve of this size peaks near 14 MB.
_SLICE = 16384


# Angle helpers on arrays.


def _ang_normalize_many(x):
    # Reduce an angle to (-180, 180]: fmod plus one shift by 360, exact by
    # Sterbenz's lemma, gives the representative math.remainder would.
    y = np.fmod(x, 360.0)
    y = np.where(y > 180.0, y - 360.0, y)
    return np.where(y <= -180.0, y + 360.0, y)


def _ang_round_many(x):
    # Flush tiny angles (< 1/2^57 deg) to zero so near-singular
    # configurations collapse onto their exact special case.
    z = 1.0 / 16.0
    y = np.abs(x)
    y = np.where(y < z, z - (z - y), y)
    return np.where(x < 0, -y, y)


def _sincosd_many(x):
    # sin and cos of angles in degrees, exact at quadrant boundaries.  The
    # sign of a zero argument is preserved (sin(-0) = -0): the inverse
    # problem's canonical form encodes hemisphere information in signed
    # zeros for points exactly on the equator.
    r = np.fmod(x, 360.0)
    q = np.round(r / 90.0)
    r = np.radians(r - 90.0 * q)
    s, c = np.sin(r), np.cos(r)
    q = q.astype(np.int64) % 4
    s, c = np.choose(q, (s, c, -s, -c)), np.choose(q, (c, -s, -c, s))
    nonzero = x != 0.0
    return np.where(nonzero, 0.0 + s, s), np.where(nonzero, 0.0 + c, c)


def _atan2d_many(y, x):
    # atan2 in degrees, with exact values on the axes.
    swap = np.abs(y) > np.abs(x)
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    neg = x < 0
    ang = np.degrees(np.arctan2(y, np.where(neg, -x, x)))
    q = 2 * swap + neg
    return np.choose(q, (ang, np.where(y >= 0, 180.0, -180.0) - ang, 90.0 - ang, -90.0 + ang))


def _eps(k2):
    # Karney's expansion parameter eps of k^2 = e'^2 cos^2 alp0.
    return k2 / (2 * (1 + np.sqrt(1 + k2)) + k2)


def _norm_many(s, c):
    r = np.hypot(s, c)
    return s / r, c / r


def _astroid_many(x, y):
    # Positive root k of k^4 + 2k^3 - (x^2+y^2-1) k^2 - 2y^2 k - y^2 = 0,
    # used to seed the azimuth for nearly antipodal inverse problems; 0
    # where y = 0 and x^2 <= 1.  Each root is taken on the branch its
    # discriminant selects; the divisions are guarded where a branch is
    # not taken.
    p = x * x
    q = y * y
    r = (p + q - 1) / 6
    k = np.zeros(x.shape)
    j = np.flatnonzero(~((q == 0) & (r <= 0)))
    p, q, r = p[j], q[j], r[j]
    s = p * q / 4
    r2 = r * r
    r3 = r * r2
    disc = s * (s + 2 * r3)
    root = np.sqrt(np.abs(disc))
    t3 = s + r3
    t3 = t3 + np.where(t3 < 0, -root, root)
    t = np.cbrt(t3)
    cubic = t + np.where(t != 0, r2 / np.where(t != 0, t, 1.0), 0.0)
    trig = 2 * r * np.cos(np.arctan2(root, -(s + r3)) / 3)
    u = r + np.where(disc >= 0, cubic, trig)
    v = np.sqrt(u * u + q)
    uv = np.where(u < 0, q / np.where(u < 0, v - u, 1.0), u + v)
    w = (uv - q) / (2 * v)
    k[j] = uv / (np.sqrt(uv + w * w) + w)
    return k


# Karney's series to sixth order in eps as data.  A polynomial is a tuple of
# coefficients, highest power first; a table has one row (den_k, p_k) per
# Fourier coefficient eps^k p_k(x) / den_k, k = 1, 2, ....  The helpers take
# floats (the scalar reference engine) or arrays; none may update an
# argument in place (d = d * eps, never d *= eps), since the caller's eps
# would change with it.

# Distance, I1: A1 - 1 = (_A1(eps^2) / 256 + eps) / (1 - eps), and C1(eps^2).
# The coefficients are floats: Python's float arithmetic is slower on ints.
_A1 = (1.0, 4.0, 64.0, 0.0)
_C1 = ((32, (-1.0, 6.0, -16.0)), (2048, (-9.0, 64.0, -128.0)), (768, (9.0, -16.0)),
       (512, (3.0, -5.0)), (1280, (-7.0,)), (2048, (-7.0,)))
# The inverse of the distance series, for the direct problem: C1'(eps^2).
_C1P = ((1536, (205.0, -432.0, 768.0)), (12288, (4005.0, -4736.0, 3840.0)), (384, (-225.0, 116.0)),
        (7680, (-7173.0, 2695.0)), (7680, (3467.0,)), (61440, (38081.0,)))
# Reduced length, I2: A2 - 1 = _A2(eps^2) / 256 (1 - eps) - eps, and C2(eps^2).
_A2 = (25.0, 36.0, 64.0, 0.0)
_C2 = ((32, (1.0, 2.0, 16.0)), (2048, (35.0, 64.0, 384.0)), (768, (15.0, 80.0)),
       (512, (7.0, 35.0)), (1280, (63.0,)), (2048, (77.0,)))
# Longitude, I3: the coefficients of A3(eps) and of each C3_k(eps), highest
# power of eps first, are polynomials in n, evaluated by `Geodesic.__init__`.
_A3 = ((128, (-3,)), (64, (-2, -3)), (16, (-1, -3, -1)), (8, (3, -1, -2)), (2, (1, -1)), (1, (1,)))
_C3 = (
    ((128, (3,)), (128, (2, 5)), (64, (-1, 3, 3)), (8, (-1, 0, 1)), (4, (-1, 1))),
    ((256, (5,)), (128, (1, 3)), (64, (-3, -2, 3)), (32, (1, -3, 2))),
    ((512, (7,)), (384, (-10, 9)), (192, (5, -9, 5))),
    ((512, (7,)), (512, (-14, 7))),
    ((2560, (21,)),),
)


def _horner(p, x):
    # The polynomial p at x.
    y = p[0]
    for c in p[1:]:
        y = y * x + c
    return y


def _series(table, eps, x):
    # The Fourier coefficients eps^k p_k(x) / den_k of a table.
    c = []
    d = 1.0
    for den, p in table:
        d = d * eps
        c.append(d * _horner(p, x) / den)
    return c


def _sin_series(sinx, cosx, c):
    # Clenshaw summation of sum(c[k] sin(2 (k + 1) x)), k = 0 .. len(c) - 1.
    ar = 2 * (cosx - sinx) * (cosx + sinx)
    k = len(c)
    y0 = c[k - 1] if k & 1 else 0.0
    y1 = 0.0
    k -= k & 1
    while k:
        y1 = ar * y0 - y1 + c[k - 1]
        y0 = ar * y1 - y0 + c[k - 2]
        k -= 2
    return 2 * sinx * cosx * y0


def _sliced(solve, *args):
    # `solve` on the flattened broadcast arguments in slices of at most
    # _SLICE elements, joined in the broadcast shape; zero elements make
    # one empty slice.
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    shape, flat = args[0].shape, [v.ravel() for v in args]
    starts = range(0, flat[0].size, _SLICE) or [0]
    parts = [solve(*(v[i : i + _SLICE] for v in flat)) for i in starts]
    return tuple(np.concatenate(r).reshape(shape) for r in zip(*parts))


class Inverse(NamedTuple):
    """Result of the inverse problem: distance in meters, departure azimuth
    in degrees."""

    s12: float
    azi1: float


class Geodesic:
    """Geodesic calculations on an oblate ellipsoid of revolution."""

    def __init__(self, a: float, f: float):
        self.a = float(a)
        self.f = float(f)
        self.f1 = 1 - self.f
        self.e2 = self.f * (2 - self.f)
        self.ep2 = self.e2 / (self.f1 * self.f1)
        self.n = self.f / (2 - self.f)
        self.b = self.a * self.f1
        self._etol2 = _TOL2 / max(0.1, math.sqrt(abs(self.e2)))
        # A3 and the C3 table: their coefficients are polynomials in n.
        self._a3 = tuple(_horner(p, self.n) / den for den, p in _A3)
        self._c3 = tuple((1.0, tuple(_horner(p, self.n) / den for den, p in row)) for row in _C3)

    def _lengths(self, eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2):
        # Distance and reduced length along an arc of the auxiliary sphere;
        # both come back without their a/b factors.
        eps2 = eps * eps
        c1a = _series(_C1, eps, eps2)
        c2a = _series(_C2, eps, eps2)
        a1m1 = (_horner(_A1, eps2) / 256 + eps) / (1 - eps)
        ab1 = (1 + a1m1) * (_sin_series(ssig2, csig2, c1a) - _sin_series(ssig1, csig1, c1a))
        a2m1 = _horner(_A2, eps2) / 256 * (1 - eps) - eps
        ab2 = (1 + a2m1) * (_sin_series(ssig2, csig2, c2a) - _sin_series(ssig1, csig1, c2a))
        j12 = (a1m1 - a2m1) * sig12 + (ab1 - ab2)
        w1 = np.sqrt(1 - self.e2 * cbet1 * cbet1)
        w2 = np.sqrt(1 - self.e2 * cbet2 * cbet2)
        # Reduced length over a, distance over b.
        m12a = (w2 * (csig1 * ssig2) - w1 * (ssig1 * csig2)) - self.f1 * csig1 * csig2 * j12
        s12b = (1 + a1m1) * sig12 + ab1
        return s12b, m12a

    def inverse(self, lat1: float, lon1: float, lat2: float, lon2: float) -> Inverse:
        """Shortest geodesic between two points."""
        s12, azi1 = self.inverse_many(lat1, lon1, lat2, lon2)
        return Inverse(float(s12), float(azi1))

    def inverse_many(self, lat1, lon1, lat2, lon2) -> tuple[np.ndarray, np.ndarray]:
        """Shortest geodesics between broadcast arrays of points: (s12,
        azi1), distances in meters and departure azimuths in degrees.

        Each element is put in the canonical arrangement and solved by one
        branch: along a meridian, along the equator, by the short-line
        formula, or by bracketed Newton iteration on lambda12 (started from
        the astroid for nearly antipodal pairs).  A branch runs only on the
        elements that take it, and a Newton pass only on those still
        iterating.  Distances and azimuths keep to the measured allowance
        against the scalar reference (see the module docstring).
        """
        return _sliced(self._inverse_slice, lat1, lon1, lat2, lon2)

    def _inverse_slice(self, lat1, lon1, lat2, lon2):
        # Canonical arrangement: point 1 at the higher absolute latitude,
        # southern hemisphere, eastward longitude difference.
        lon12 = _ang_round_many(_ang_normalize_many(_ang_normalize_many(lon2) - _ang_normalize_many(lon1)))
        lonsign = np.where(lon12 >= 0, 1.0, -1.0)
        lon12 = lon12 * lonsign
        lonsign = np.where(lon12 == 180, 1.0, lonsign)
        lat1 = _ang_round_many(lat1)
        lat2 = _ang_round_many(lat2)
        swapp = np.where(np.abs(lat1) >= np.abs(lat2), 1.0, -1.0)
        lonsign = lonsign * swapp
        lat1, lat2 = np.where(swapp < 0, lat2, lat1), np.where(swapp < 0, lat1, lat2)
        latsign = np.where(lat1 < 0, 1.0, -1.0)
        lat1 = lat1 * latsign
        lat2 = lat2 * latsign

        sbet1, cbet1 = _sincosd_many(lat1)
        cbet1 = np.where(lat1 == -90, _TINY, cbet1)
        sbet1, cbet1 = _norm_many(sbet1 * self.f1, cbet1)
        sbet2, cbet2 = _sincosd_many(lat2)
        cbet2 = np.where(np.abs(lat2) == 90, _TINY, cbet2)
        sbet2, cbet2 = _norm_many(sbet2 * self.f1, cbet2)
        # Force bet2 = +/- bet1 exactly when the latitudes agree; this keeps
        # the Newton iteration away from removable singularities.
        steep = cbet1 < -sbet1
        sbet2 = np.where(steep & (cbet2 == cbet1), np.where(sbet2 < 0, sbet1, -sbet1), sbet2)
        cbet2 = np.where(~steep & (np.abs(sbet2) == -sbet1), cbet1, cbet2)
        lam12 = np.radians(lon12)
        slam12, clam12 = _sincosd_many(lon12)
        s12, salp1, calp1, salp2, calp2 = np.zeros((5, lam12.size))

        # Along a meridian, unless the pair is nearly antipodal and the
        # meridional path is not the shortest: those join the general case.
        meridian = (lat1 == -90) | (slam12 == 0)
        k = np.flatnonzero(meridian)
        if k.size:
            sb1, cb1, sb2, cb2 = sbet1[k], cbet1[k], sbet2[k], cbet2[k]
            csig1 = clam12[k] * cb1
            sig12 = np.arctan2(np.maximum(csig1 * sb2 - sb1 * cb2, 0.0), csig1 * cb2 + sb1 * sb2)
            s12x, m12x = self._lengths(self.n, sig12, sb1, csig1, sb2, cb2, cb1, cb2)
            shortest = (sig12 < 1) | (m12x >= 0)
            meridian[k[~shortest]] = False
            k = k[shortest]
            s12[k] = s12x[shortest] * self.b
            salp1[k], calp1[k], calp2[k] = slam12[k], clam12[k], 1.0

        # Along the equator, up to (1 - f) 180 degrees of longitude apart.
        equator = ~meridian & (sbet1 == 0) & (lam12 <= math.pi - self.f * math.pi)
        k = np.flatnonzero(equator)
        s12[k] = self.a * lam12[k]
        salp1[k] = salp2[k] = 1.0

        g = np.flatnonzero(~(meridian | equator))
        s12[g], salp1[g], calp1[g], salp2[g], calp2[g] = self._general_many(
            sbet1[g], cbet1[g], sbet2[g], cbet2[g], lam12[g]
        )

        # Undo the canonical arrangement; only azi1 is needed.
        swapped = swapp < 0
        salp1 = np.where(swapped, salp2, salp1) * (swapp * lonsign)
        calp1 = np.where(swapped, calp2, calp1) * (swapp * latsign)
        return 0.0 + s12, _atan2d_many(salp1, calp1)

    def _general_many(self, sbet1, cbet1, sbet2, cbet2, lam12):
        # The general case on canonical arrays: short-line, spherical or
        # astroid start, then Newton's method.  Returns s12 and the azimuth
        # sines and cosines at both ends.
        sbet12 = sbet2 * cbet1 - cbet2 * sbet1
        cbet12 = cbet2 * cbet1 + sbet2 * sbet1
        sbet12a = sbet2 * cbet1 + cbet2 * sbet1
        shortline = (cbet12 >= 0) & (sbet12 < 0.5) & (lam12 <= math.pi / 6)
        w1 = np.sqrt(1 - self.e2 * cbet1 * cbet1)
        omg12 = np.where(shortline, lam12 / w1, lam12)
        somg12, comg12 = np.sin(omg12), np.cos(omg12)
        salp1 = cbet2 * somg12
        up = comg12 >= 0
        den = np.where(up, 1 + comg12, 1 - comg12)
        calp1 = np.where(
            up,
            sbet12 + cbet2 * sbet1 * somg12 * somg12 / den,
            sbet12a - cbet2 * sbet1 * somg12 * somg12 / den,
        )
        ssig12 = np.hypot(salp1, calp1)
        csig12 = sbet1 * sbet2 + cbet1 * cbet2 * comg12
        short = shortline & (ssig12 < self._etol2)
        k = np.flatnonzero(~short & ~((csig12 >= 0) | (ssig12 >= 3 * abs(self.f) * math.pi * cbet1 * cbet1)))
        if k.size:
            salp1[k], calp1[k] = self._astroid_start(sbet1[k], cbet1[k], cbet2[k], lam12[k], sbet12a[k])
        salp1, calp1 = _norm_many(salp1, calp1)

        s12, salp2, calp2 = np.zeros((3, lam12.size))
        k = np.flatnonzero(short)
        s12[k] = np.arctan2(ssig12[k], csig12[k]) * self.a * w1[k]
        salp2[k], calp2[k] = _norm_many(
            cbet1[k] * somg12[k], sbet12[k] - cbet1[k] * sbet2[k] * somg12[k] * somg12[k] / (1 + comg12[k])
        )

        k = np.flatnonzero(~short)
        s12[k], salp1[k], calp1[k], salp2[k], calp2[k] = self._newton_many(
            sbet1[k], cbet1[k], sbet2[k], cbet2[k], lam12[k], salp1[k], calp1[k]
        )
        return s12, salp1, calp1, salp2, calp2

    def _astroid_start(self, sbet1, cbet1, cbet2, lam12, sbet12a):
        # Starting azimuth (salp1, calp1), not normalized, of nearly
        # antipodal pairs: rescale to the astroid coordinate system (x, y)
        # with the antipode at the origin (oblate case).
        eps = _eps(sbet1 * sbet1 * self.ep2)
        lamscale = self.f * cbet1 * _horner(self._a3, eps) * math.pi
        betscale = lamscale * cbet1
        x = (lam12 - math.pi) / lamscale
        y = sbet12a / betscale
        # lam12 <= pi, so x <= 0 and salp1 lies in [0, 1].
        salp1 = np.minimum(1.0, -x)
        calp1 = -np.sqrt(1 - salp1 * salp1)
        k = np.flatnonzero(~((y > -_TOL1) & (x > -1 - _XTHRESH)))
        if k.size:
            r = _astroid_many(x[k], y[k])
            omg12a = lamscale[k] * (-x[k] * r / (1 + r))
            somg12, comg12 = np.sin(omg12a), -np.cos(omg12a)
            salp1[k] = cbet2[k] * somg12
            calp1[k] = sbet12a[k] - cbet2[k] * sbet1[k] * somg12 * somg12 / (1 - comg12)
        return salp1, calp1

    def _newton_many(self, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1):
        # Newton's method on lambda12 for arrays of canonical problems: rows
        # s12, salp1, calp1, salp2, calp2.  As in GeographicLib, lambda12
        # increases with alp1 on (0, pi), so each evaluation narrows a
        # bracket (sa, ca)-(sb, cb) on alp1; a Newton step is taken in the
        # first _NEWTON_PASSES passes if it descends (dv > 0) and stays in
        # (0, pi), else alp1 moves to the bracket's midpoint, and such a
        # bisection stops once the bracket has closed.  Stopping elements
        # (at idx) go to the result; the others' step uses the reduced length.
        n = lam12.size
        out, idx = np.zeros((5, n)), np.arange(n)
        sa, ca, sb, cb, ov = np.array([[_TINY], [1.0], [_TINY], [-1.0], [0.0]]).repeat(n, axis=1)
        trip, bisected = np.zeros((2, n), dtype=bool)
        for it in range(_MAXIT if n else 0):
            nlam12, salp2, calp2, sig12, ssig1, csig1, ssig2, csig2, eps = self._lambda12_many(
                sbet1, cbet1, sbet2, cbet2, salp1, calp1
            )
            s12b, m12a = self._lengths(eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2)
            v = nlam12 - lam12
            stop = ~(np.abs(v) > _TINY) | trip
            # A Newton stop after a step that made |v| grow iterates on.
            stop &= bisected | (np.abs(v) <= np.maximum(_TOL1, ov))
            if stop.any():
                out[:, idx[stop]] = s12b[stop] * self.b, salp1[stop], calp1[stop], salp2[stop], calp2[stop]
                go = ~stop
                idx, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1, calp2, v, m12a = (
                    x[go] for x in (idx, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1, calp2, v, m12a)
                )
                sa, ca, sb, cb, ov, trip, bisected = (x[go] for x in (sa, ca, sb, cb, ov, trip, bisected))
                if not idx.size:
                    break
            past = it >= _NEWTON_PASSES
            up = (v > 0) & (past | (calp1 * sb > cb * salp1))
            down = (v < 0) & (past | (calp1 * sa < ca * salp1))
            sa, ca = np.where(down, salp1, sa), np.where(down, calp1, ca)
            sb, cb = np.where(up, salp1, sb), np.where(up, calp1, cb)
            # d(lambda12)/d(alp1), with its limit at a vertex (calp2 == 0).
            vertex = calp2 == 0
            dv = np.where(vertex, -2 * np.sqrt(1 - self.e2 * cbet1 * cbet1), m12a)
            dv = dv / np.where(vertex, sbet1, calp2 * cbet2)
            dalp1 = np.divide(-v, dv, out=np.zeros_like(v), where=dv > 0)
            sdalp1, cdalp1 = np.sin(dalp1), np.cos(dalp1)
            nsalp1 = salp1 * cdalp1 + calp1 * sdalp1
            ncalp1 = calp1 * cdalp1 - salp1 * sdalp1
            newton = (dv > 0) & (nsalp1 > 0) & (np.abs(dalp1) < math.pi) & (not past)
            salp1, calp1 = _norm_many(np.where(newton, nsalp1, (sa + sb) / 2), np.where(newton, ncalp1, (ca + cb) / 2))
            closed = (np.abs(sa - salp1) + (ca - calp1) < _TOLB) | (np.abs(salp1 - sb) + (calp1 - cb) < _TOLB)
            trip = np.where(newton, ~((np.abs(v) >= _TOL1) & (v * v >= ov * _TOL0)), closed)
            bisected = ~newton
            ov = np.abs(v)
        if idx.size:
            raise ConvergenceError(f"geodesic inverse did not converge in {_MAXIT} passes ({idx.size} of {n} pairs)")
        return out

    def _lambda12_many(self, sbet1, cbet1, sbet2, cbet2, salp1, calp1):
        # lambda12 and the arc quantities of the geodesic leaving point 1 at
        # azimuth alp1, for arrays; no derivative.
        # Break the degeneracy of the equatorial line.
        calp1 = np.where((sbet1 == 0) & (calp1 == 0), -_TINY, calp1)
        salp0 = salp1 * cbet1
        calp0 = np.hypot(calp1, salp1 * sbet1)
        somg1 = salp0 * sbet1
        csig1 = comg1 = calp1 * cbet1
        ssig1, csig1 = _norm_many(sbet1, csig1)

        salp2 = np.where(cbet2 != cbet1, salp0 / cbet2, salp1)
        calp2 = np.where(
            (cbet2 != cbet1) | (np.abs(sbet2) != -sbet1),
            np.sqrt(
                (calp1 * cbet1) * (calp1 * cbet1)
                + np.where(
                    cbet1 < -sbet1, (cbet2 - cbet1) * (cbet1 + cbet2), (sbet1 - sbet2) * (sbet1 + sbet2)
                )
            )
            / cbet2,
            np.abs(calp1),
        )
        somg2 = salp0 * sbet2
        csig2 = comg2 = calp2 * cbet2
        ssig2, csig2 = _norm_many(sbet2, csig2)

        sig12 = np.arctan2(np.maximum(csig1 * ssig2 - ssig1 * csig2, 0.0), csig1 * csig2 + ssig1 * ssig2)
        omg12 = np.arctan2(np.maximum(comg1 * somg2 - somg1 * comg2, 0.0), comg1 * comg2 + somg1 * somg2)

        eps = _eps(calp0 * calp0 * self.ep2)
        c3a = _series(self._c3, eps, eps)
        b312 = _sin_series(ssig2, csig2, c3a) - _sin_series(ssig1, csig1, c3a)
        h0 = -self.f * _horner(self._a3, eps)
        lam12 = omg12 + salp0 * h0 * (sig12 + b312)
        return lam12, salp2, calp2, sig12, ssig1, csig1, ssig2, csig2, eps

    def direct(self, lat1: float, lon1: float, azi1: float, s12: float) -> tuple[float, float]:
        """Destination (lat2, lon2) after s12 meters along azi1."""
        lat2, lon2 = self.direct_many(lat1, lon1, azi1, s12)
        return float(lat2), float(lon2)

    def direct_many(self, lat1, lon1, azi1, s12) -> tuple[np.ndarray, np.ndarray]:
        """Destinations (lat2, lon2) after s12 meters along azi1 from
        (lat1, lon1), for broadcast arrays.

        The special cases of a line (a start on a pole, a line along the
        equator, a point reaching a pole) are masks.  Destinations keep to
        the measured allowance against the scalar reference (see the module
        docstring).
        """
        return _sliced(self._direct_slice, lat1, lon1, azi1, s12)

    def _direct_slice(self, lat1, lon1, azi1, s12):
        # The geodesic line through the start point.
        salp1, calp1 = _sincosd_many(_ang_round_many(_ang_normalize_many(azi1)))
        sbet1, cbet1 = _sincosd_many(_ang_round_many(lat1))
        sbet1, cbet1 = _norm_many(sbet1 * self.f1, cbet1)
        cbet1 = np.maximum(_TINY, cbet1)
        salp0 = salp1 * cbet1
        calp0 = np.hypot(calp1, salp1 * sbet1)
        somg1 = salp0 * sbet1
        csig1 = comg1 = np.where((sbet1 != 0) | (calp1 != 0), cbet1 * calp1, 1.0)
        ssig1, csig1 = _norm_many(sbet1, csig1)
        eps = _eps(calp0 * calp0 * self.ep2)
        eps2 = eps * eps
        a1m1 = (_horner(_A1, eps2) / 256 + eps) / (1 - eps)
        b11 = _sin_series(ssig1, csig1, _series(_C1, eps, eps2))
        s, c = np.sin(b11), np.cos(b11)
        stau1 = ssig1 * c + csig1 * s
        ctau1 = csig1 * c - ssig1 * s
        c3a = _series(self._c3, eps, eps)
        a3c = -self.f * salp0 * _horner(self._a3, eps)
        b31 = _sin_series(ssig1, csig1, c3a)

        # The point at distance s12 along it.
        tau12 = s12 / (self.b * (1 + a1m1))
        s, c = np.sin(tau12), np.cos(tau12)
        b12 = -_sin_series(stau1 * c + ctau1 * s, ctau1 * c - stau1 * s, _series(_C1P, eps, eps2))
        sig12 = tau12 - (b12 - b11)
        ssig12, csig12 = np.sin(sig12), np.cos(sig12)
        ssig2 = ssig1 * csig12 + csig1 * ssig12
        csig2 = csig1 * csig12 - ssig1 * ssig12
        sbet2 = calp0 * ssig2
        cbet2 = np.hypot(salp0, calp0 * csig2)
        pole = cbet2 == 0
        cbet2 = np.where(pole, _TINY, cbet2)
        csig2 = comg2 = np.where(pole, _TINY, csig2)
        somg2 = salp0 * ssig2
        omg12 = np.arctan2(somg2 * comg1 - comg2 * somg1, comg2 * comg1 + somg2 * somg1)
        lam12 = omg12 + a3c * (sig12 + (_sin_series(ssig2, csig2, c3a) - b31))
        lon1 = _ang_normalize_many(lon1)
        lon2 = _ang_normalize_many(lon1 + _ang_normalize_many(np.degrees(lam12)))
        # A line of length 0 ends exactly on its start.
        zero = s12 == 0
        return np.where(zero, lat1, _atan2d_many(sbet2, self.f1 * cbet2)), np.where(zero, lon1, lon2)


#: WGS84 reference ellipsoid (semi-major axis in meters, flattening).
WGS84 = Geodesic(6378137.0, 1 / 298.257223563)
