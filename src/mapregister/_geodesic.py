"""Ellipsoidal geodesic engine: inverse and direct problems on WGS84.

Implements the series-expansion method of C. F. F. Karney, "Algorithms for
geodesics", J. Geodesy 87, 43-55 (2013), with sixth-order expansions in the
third flattening.  The inverse problem is solved by Newton iteration on the
departure azimuth, seeded with the astroid construction for nearly antipodal
pairs.  Accuracy on WGS84 is far below a millimeter for non-antipodal pairs.

Only the pieces this package needs are provided: distance plus azimuths for
the inverse problem, a reusable line object for the direct problem, and
array forms of both (`Geodesic.inverse_many`, `Geodesic.direct_many`) for
batches of point pairs and lines.  If the inverse iteration does not converge
(possible only within a vanishing neighbourhood of antipodal pairs) the
over-the-pole meridional path length is returned so the function stays total.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_TINY = math.sqrt(math.ldexp(1.0, -1022))
_TOL0 = 2.220446049250313e-16
_TOL1 = 200 * _TOL0
_TOL2 = math.sqrt(_TOL0)
_XTHRESH = 1000 * _TOL2
_MAXIT = 100

# Series orders (sixth order in the third flattening).
_NC1 = 6
_NC1P = 6
_NC2 = 6
_NA3 = 6
_NC3 = 6


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


# Array forms of the angle helpers above, with the same arithmetic, for
# `Geodesic.inverse_many` and `Geodesic.direct_many`.  The scalar engine keeps
# its math-module versions, which stay fast on single floats.


def _elementwise(fn, nin):
    # `fn` applied element by element.  NumPy's own arctan2, hypot and power
    # differ from math.atan2, math.hypot and C pow (behind a float's `**`)
    # by an ulp on a few percent of arguments, and the inverse amplifies one
    # ulp to ~1e-9 m through its cancellations; calling the same functions
    # as the scalar engine keeps the array forms bit-identical to it.
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: np.asarray(ufunc(*args), dtype=float)


_atan2_many = _elementwise(math.atan2, 2)
_hypot_many = _elementwise(math.hypot, 2)
_pow_many = _elementwise(math.pow, 2)


def _ang_normalize_many(x):
    # fmod plus one shift by 360, exact by Sterbenz's lemma, gives the same
    # representative in (-180, 180] as _ang_normalize.
    y = np.fmod(x, 360.0)
    y = np.where(y > 180.0, y - 360.0, y)
    return np.where(y <= -180.0, y + 360.0, y)


def _ang_round_many(x):
    z = 1.0 / 16.0
    y = np.abs(x)
    y = np.where(y < z, z - (z - y), y)
    return np.where(x < 0, -y, y)


def _sincosd_many(x):
    r = np.fmod(x, 360.0)
    q = np.round(r / 90.0)
    r = np.radians(r - 90.0 * q)
    s, c = np.sin(r), np.cos(r)
    q = q.astype(np.int64) % 4
    s, c = np.choose(q, (s, c, -s, -c)), np.choose(q, (c, -s, -c, s))
    nonzero = x != 0.0
    return np.where(nonzero, 0.0 + s, s), np.where(nonzero, 0.0 + c, c)


def _atan2d_many(y, x):
    swap = np.abs(y) > np.abs(x)
    x, y = np.where(swap, y, x), np.where(swap, x, y)
    neg = x < 0
    ang = np.degrees(_atan2_many(y, np.where(neg, -x, x)))
    q = 2 * swap + neg
    return np.choose(q, (ang, np.where(y >= 0, 180.0, -180.0) - ang, 90.0 - ang, -90.0 + ang))


def _norm_many(s, c):
    r = _hypot_many(s, c)
    return s / r, c / r


def _sin_cos_series(sinp: bool, sinx: float, cosx: float, c, n: int) -> float:
    # Clenshaw summation of sum(c[i] sin(2i x)) or sum(c[i] cos((2i+1) x));
    # c[0] is unused for the sine series.
    k = n + (1 if sinp else 0)
    ar = 2 * (cosx - sinx) * (cosx + sinx)
    y1 = 0.0
    if n & 1:
        k -= 1
        y0 = c[k]
    else:
        y0 = 0.0
    n = n // 2
    while n:
        n -= 1
        k -= 1
        y1 = ar * y0 - y1 + c[k]
        k -= 1
        y0 = ar * y1 - y0 + c[k]
    return 2 * sinx * cosx * y0 if sinp else cosx * (y0 - y1)


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


# The series helpers below also accept arrays and are shared by the scalar
# and the array forms; none may update an argument in place (d = d * eps,
# never d *= eps), since the caller's eps would change with it.


def _a1m1f(eps: float) -> float:
    eps2 = eps * eps
    t = eps2 * (eps2 * (eps2 + 4) + 64) / 256
    return (t + eps) / (1 - eps)


def _c1f(eps: float) -> list[float]:
    eps2 = eps * eps
    c = [0.0] * (_NC1 + 1)
    d = eps
    c[1] = d * ((6 - eps2) * eps2 - 16) / 32
    d = d * eps
    c[2] = d * ((64 - 9 * eps2) * eps2 - 128) / 2048
    d = d * eps
    c[3] = d * (9 * eps2 - 16) / 768
    d = d * eps
    c[4] = d * (3 * eps2 - 5) / 512
    d = d * eps
    c[5] = -7 * d / 1280
    d = d * eps
    c[6] = -7 * d / 2048
    return c


def _c1pf(eps: float) -> list[float]:
    eps2 = eps * eps
    c = [0.0] * (_NC1P + 1)
    d = eps
    c[1] = d * (eps2 * (205 * eps2 - 432) + 768) / 1536
    d = d * eps
    c[2] = d * (eps2 * (4005 * eps2 - 4736) + 3840) / 12288
    d = d * eps
    c[3] = d * (116 - 225 * eps2) / 384
    d = d * eps
    c[4] = d * (2695 - 7173 * eps2) / 7680
    d = d * eps
    c[5] = 3467 * d / 7680
    d = d * eps
    c[6] = 38081 * d / 61440
    return c


def _a2m1f(eps: float) -> float:
    eps2 = eps * eps
    t = eps2 * (eps2 * (25 * eps2 + 36) + 64) / 256
    return t * (1 - eps) - eps


def _c2f(eps: float) -> list[float]:
    eps2 = eps * eps
    c = [0.0] * (_NC2 + 1)
    d = eps
    c[1] = d * (eps2 * (eps2 + 2) + 16) / 32
    d = d * eps
    c[2] = d * (eps2 * (35 * eps2 + 64) + 384) / 2048
    d = d * eps
    c[3] = d * (15 * eps2 + 80) / 768
    d = d * eps
    c[4] = d * (7 * eps2 + 35) / 512
    d = d * eps
    c[5] = 63 * d / 1280
    d = d * eps
    c[6] = 77 * d / 2048
    return c


class Inverse(NamedTuple):
    """Result of the inverse problem: distance in meters, azimuths in degrees."""

    s12: float
    azi1: float
    azi2: float


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
        n = self.n
        self._a3x = [
            1.0,
            (n - 1) / 2,
            (n * (3 * n - 1) - 2) / 8,
            ((-n - 3) * n - 1) / 16,
            (-2 * n - 3) / 64,
            -3.0 / 128,
        ]
        self._c3x = [
            (1 - n) / 4,
            (1 - n * n) / 8,
            ((3 - n) * n + 3) / 64,
            (2 * n + 5) / 128,
            3.0 / 128,
            ((n - 3) * n + 2) / 32,
            ((-3 * n - 2) * n + 3) / 64,
            (n + 3) / 128,
            5.0 / 256,
            (n * (5 * n - 9) + 5) / 192,
            (9 - 10 * n) / 384,
            7.0 / 512,
            (7 - 14 * n) / 512,
            7.0 / 512,
            21.0 / 2560,
        ]

    def _a3f(self, eps: float) -> float:
        v = 0.0
        for i in range(_NA3 - 1, -1, -1):
            v = eps * v + self._a3x[i]
        return v

    def _c3f(self, eps: float) -> list[float]:
        c = [0.0] * _NC3
        j = len(self._c3x)
        for k in range(_NC3 - 1, 0, -1):
            t = 0.0
            for _ in range(_NC3 - k):
                j -= 1
                t = eps * t + self._c3x[j]
            c[k] = t
        mult = 1.0
        for k in range(1, _NC3):
            mult *= eps
            c[k] *= mult
        return c

    def _lengths(self, eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2, sqrt=math.sqrt):
        # Distance and reduced length along an arc of the auxiliary sphere;
        # both come back without their a/b factors.  The array path passes
        # sqrt=np.sqrt; every other operation here works on arrays as is.
        c1a = _c1f(eps)
        c2a = _c2f(eps)
        a1m1 = _a1m1f(eps)
        ab1 = (1 + a1m1) * (
            _sin_cos_series(True, ssig2, csig2, c1a, _NC1)
            - _sin_cos_series(True, ssig1, csig1, c1a, _NC1)
        )
        a2m1 = _a2m1f(eps)
        ab2 = (1 + a2m1) * (
            _sin_cos_series(True, ssig2, csig2, c2a, _NC2)
            - _sin_cos_series(True, ssig1, csig1, c2a, _NC2)
        )
        m0 = a1m1 - a2m1
        j12 = m0 * sig12 + (ab1 - ab2)
        w1 = sqrt(1 - self.e2 * cbet1 * cbet1)
        w2 = sqrt(1 - self.e2 * cbet2 * cbet2)
        # Reduced length over a, distance over b.
        m12a = (w2 * (csig1 * ssig2) - w1 * (ssig1 * csig2)) - self.f1 * csig1 * csig2 * j12
        s12b = (1 + a1m1) * sig12 + ab1
        return s12b, m12a, m0

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
            lamscale = self.f * cbet1 * self._a3f(eps) * math.pi
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
        c3a = self._c3f(eps)
        b312 = _sin_cos_series(True, ssig2, csig2, c3a, _NC3 - 1) - _sin_cos_series(
            True, ssig1, csig1, c3a, _NC3 - 1
        )
        h0 = -self.f * self._a3f(eps)
        domg12 = salp0 * h0 * (sig12 + b312)
        lam12 = omg12 + domg12

        if diffp:
            if calp2 == 0:
                dlam12 = -2 * math.sqrt(1 - self.e2 * cbet1 * cbet1) / sbet1
            else:
                _, dlam12, _ = self._lengths(eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2)
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

        s12 = azi1 = azi2 = math.nan
        salp1 = calp1 = salp2 = calp2 = math.nan

        meridian = lat1 == -90 or slam12 == 0
        done = False

        if meridian:
            calp1, salp1 = clam12, slam12
            calp2, salp2 = 1.0, 0.0
            ssig1, csig1 = sbet1, calp1 * cbet1
            ssig2, csig2 = sbet2, calp2 * cbet2
            sig12 = math.atan2(max(0.0, csig1 * ssig2 - ssig1 * csig2), csig1 * csig2 + ssig1 * ssig2)
            s12x, m12x, _ = self._lengths(self.n, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2)
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

                s12x, _, _ = self._lengths(eps, sig12, ssig1, csig1, ssig2, csig2, cbet1, cbet2)
                s12 = s12x * self.b
                done = True

        if swapp < 0:
            salp2, salp1 = salp1, salp2
            calp2, calp1 = calp1, calp2
        salp1 *= swapp * lonsign
        calp1 *= swapp * latsign
        salp2 *= swapp * lonsign
        calp2 *= swapp * latsign

        azi1 = _atan2d(salp1, calp1)
        azi2 = _atan2d(salp2, calp2)
        return Inverse(0.0 + s12, azi1, azi2)

    def inverse_many(self, lat1, lon1, lat2, lon2) -> tuple[np.ndarray, np.ndarray]:
        """Array form of `inverse`: (s12, azi1) for broadcast arguments.

        The general case runs vectorized: canonical arrangement, short-line
        start, Newton's method on lambda12 and the final lengths.  Elements
        on a meridian, starting on the equator, nearly antipodal (astroid
        start) or not converging are solved one at a time by `inverse`.
        Every transcendental step uses the same function as `inverse` (see
        `_elementwise`), so results equal those of `inverse`; the tests allow
        |ds12| <= 1e-9 m + 1e-14 s12 in case a NumPy sin or cos differs.
        """
        args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lat1, lon1, lat2, lon2)))
        shape = args[0].shape
        olat1, olon1, olat2, olon2 = (v.ravel() for v in args)
        s12 = np.empty(olat1.size)
        azi1 = np.empty(olat1.size)

        # Canonical arrangement, as in `inverse`.
        lon12 = _ang_round_many(_ang_normalize_many(_ang_normalize_many(olon2) - _ang_normalize_many(olon1)))
        lonsign = np.where(lon12 >= 0, 1.0, -1.0)
        lon12 = lon12 * lonsign
        lonsign = np.where(lon12 == 180, 1.0, lonsign)
        lat1 = _ang_round_many(olat1)
        lat2 = _ang_round_many(olat2)
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
        steep = cbet1 < -sbet1
        sbet2 = np.where(steep & (cbet2 == cbet1), np.where(sbet2 < 0, sbet1, -sbet1), sbet2)
        cbet2 = np.where(~steep & (np.abs(sbet2) == -sbet1), cbet1, cbet2)
        lam12 = np.radians(lon12)
        slam12 = _sincosd_many(lon12)[0]

        # Meridional and equatorial starts go to the scalar path.
        scalar = (lat1 == -90) | (slam12 == 0) | (sbet1 == 0)
        g = np.flatnonzero(~scalar)
        sb1, cb1, sb2, cb2, lam = sbet1[g], cbet1[g], sbet2[g], cbet2[g], lam12[g]

        # Starting azimuth, as in `_inverse_start`.
        sbet12 = sb2 * cb1 - cb2 * sb1
        cbet12 = cb2 * cb1 + sb2 * sb1
        sbet12a = sb2 * cb1 + cb2 * sb1
        shortline = (cbet12 >= 0) & (sbet12 < 0.5) & (lam <= math.pi / 6)
        w1 = np.sqrt(1 - self.e2 * cb1 * cb1)
        omg12 = np.where(shortline, lam / w1, lam)
        somg12, comg12 = np.sin(omg12), np.cos(omg12)
        salp1 = cb2 * somg12
        up = comg12 >= 0
        den = np.where(up, 1 + comg12, 1 - comg12)
        calp1 = np.where(
            up,
            sbet12 + cb2 * sb1 * somg12 * somg12 / den,
            sbet12a - cb2 * sb1 * somg12 * somg12 / den,
        )
        ssig12 = _hypot_many(salp1, calp1)
        csig12 = sb1 * sb2 + cb1 * cb2 * comg12
        short = shortline & (ssig12 < self._etol2)
        astroid = ~short & ~((csig12 >= 0) | (ssig12 >= 3 * abs(self.f) * math.pi * cb1 * cb1))
        salp1, calp1 = _norm_many(salp1, calp1)

        s12_g = np.zeros(g.size)
        salp2 = np.zeros(g.size)
        calp2 = np.zeros(g.size)
        k = np.flatnonzero(short)
        s12_g[k] = _atan2_many(ssig12[k], csig12[k]) * self.a * w1[k]
        salp2[k], calp2[k] = _norm_many(
            cb1[k] * somg12[k], sbet12[k] - cb1[k] * sb2[k] * somg12[k] * somg12[k] / (1 + comg12[k])
        )

        k = np.flatnonzero(~short & ~astroid)
        s12_g[k], salp1[k], calp1[k], salp2[k], calp2[k], failed = self._newton_many(
            sb1[k], cb1[k], sb2[k], cb2[k], lam[k], salp1[k], calp1[k]
        )
        scalar[g[astroid]] = True
        scalar[g[k[failed]]] = True

        # Undo the canonical arrangement; only azi1 is needed.
        swapped = swapp[g] < 0
        salp1 = np.where(swapped, salp2, salp1) * (swapp[g] * lonsign[g])
        calp1 = np.where(swapped, calp2, calp1) * (swapp[g] * latsign[g])
        s12[g] = 0.0 + s12_g
        azi1[g] = _atan2d_many(salp1, calp1)

        for i in np.flatnonzero(scalar):
            r = self.inverse(float(olat1[i]), float(olon1[i]), float(olat2[i]), float(olon2[i]))
            s12[i], azi1[i] = r.s12, r.azi1
        return s12.reshape(shape), azi1.reshape(shape)

    def _newton_many(self, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1):
        # Newton's method of `inverse` on arrays of canonical problems with
        # sbet1 != 0.  Each pass evaluates only the elements still iterating.
        # Returns s12 and the final azimuth sines and cosines, plus a mask of
        # the elements that did not converge.
        n = lam12.size
        s12 = np.zeros(n)
        salp2 = np.zeros(n)
        calp2 = np.zeros(n)
        salp1 = salp1.copy()
        calp1 = calp1.copy()
        ov = np.zeros(n)
        trip = np.zeros(n, dtype=bool)
        failed = np.zeros(n, dtype=bool)
        act = np.arange(n)
        for _ in range(_MAXIT if n else 0):
            sb1, cb1, sb2, cb2 = sbet1[act], cbet1[act], sbet2[act], cbet2[act]
            sa1, ca1 = salp1[act], calp1[act]
            nlam12, sa2, ca2, sig12, ssig1, csig1, ssig2, csig2, eps = self._lambda12_many(
                sb1, cb1, sb2, cb2, sa1, ca1
            )
            v = nlam12 - lam12[act]
            stop = ~(np.abs(v) > _TINY) | trip[act]
            if stop.any():
                k = act[stop]
                failed[k] = ~(np.abs(v[stop]) <= np.maximum(_TOL1, ov[k]))
                s12x = self._lengths(
                    eps[stop], sig12[stop], ssig1[stop], csig1[stop], ssig2[stop], csig2[stop],
                    cb1[stop], cb2[stop], np.sqrt,
                )[0]
                s12[k] = s12x * self.b
                salp2[k], calp2[k] = sa2[stop], ca2[stop]
                go = ~stop
                act = act[go]
                if not act.size:
                    break
                sb1, cb1, cb2, sa1, ca1, sa2, ca2, v = (x[go] for x in (sb1, cb1, cb2, sa1, ca1, sa2, ca2, v))
                sig12, ssig1, csig1, ssig2, csig2, eps = (x[go] for x in (sig12, ssig1, csig1, ssig2, csig2, eps))
            _, m12a, _ = self._lengths(eps, sig12, ssig1, csig1, ssig2, csig2, cb1, cb2, np.sqrt)
            vertex = ca2 == 0
            dv = np.where(
                vertex,
                -2 * np.sqrt(1 - self.e2 * cb1 * cb1) / sb1,
                m12a / np.where(vertex, 1.0, ca2 * cb2),
            )
            dalp1 = -v / dv
            sdalp1, cdalp1 = np.sin(dalp1), np.cos(dalp1)
            nsalp1 = sa1 * cdalp1 + ca1 * sdalp1
            ca1 = ca1 * cdalp1 - sa1 * sdalp1
            salp1[act], calp1[act] = _norm_many(np.maximum(0.0, nsalp1), ca1)
            trip[act] = ~((np.abs(v) >= _TOL1) & (v * v >= ov[act] * _TOL0))
            ov[act] = np.abs(v)
        failed[act] = True
        return s12, salp1, calp1, salp2, calp2, failed

    def _lambda12_many(self, sbet1, cbet1, sbet2, cbet2, salp1, calp1):
        # `_lambda12` on arrays, without the derivative; needs sbet1 != 0.
        salp0 = salp1 * cbet1
        calp0 = _hypot_many(calp1, salp1 * sbet1)
        somg1 = salp0 * sbet1
        csig1 = comg1 = calp1 * cbet1
        ssig1, csig1 = _norm_many(sbet1, csig1)

        salp2 = np.where(cbet2 != cbet1, salp0 / cbet2, salp1)
        calp2 = np.where(
            (cbet2 != cbet1) | (np.abs(sbet2) != -sbet1),
            np.sqrt(
                _pow_many(calp1 * cbet1, 2.0)
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

        sig12 = _atan2_many(np.maximum(0.0, csig1 * ssig2 - ssig1 * csig2), csig1 * csig2 + ssig1 * ssig2)
        omg12 = _atan2_many(np.maximum(0.0, comg1 * somg2 - somg1 * comg2), comg1 * comg2 + somg1 * somg2)

        k2 = calp0 * calp0 * self.ep2
        eps = k2 / (2 * (1 + np.sqrt(1 + k2)) + k2)
        c3a = self._c3f(eps)
        b312 = _sin_cos_series(True, ssig2, csig2, c3a, _NC3 - 1) - _sin_cos_series(
            True, ssig1, csig1, c3a, _NC3 - 1
        )
        h0 = -self.f * self._a3f(eps)
        lam12 = omg12 + salp0 * h0 * (sig12 + b312)
        return lam12, salp2, calp2, sig12, ssig1, csig1, ssig2, csig2, eps

    def _antipodal_fallback(self, lat1: float, lat2: float) -> Inverse:
        # Length of the path running over the nearest pole; exact for truly
        # antipodal points on an oblate ellipsoid, a few meters otherwise.
        up1 = self.inverse(lat1, 0.0, 90.0, 0.0).s12
        up2 = self.inverse(lat2, 0.0, 90.0, 0.0).s12
        return Inverse(up1 + up2, 0.0, 180.0)

    def direct(self, lat1: float, lon1: float, azi1: float, s12: float) -> tuple[float, float, float]:
        """Destination (lat2, lon2, azi2) after s12 meters along azi1."""
        return GeodesicLine(self, lat1, lon1, azi1).position(s12)

    def direct_many(self, lat1, lon1, azi1, s12) -> tuple[np.ndarray, np.ndarray]:
        """Array form of `direct`: (lat2, lon2) for broadcast arguments.

        `GeodesicLine.__init__` plus `position`, operation for operation,
        with their special cases as masks; atan2 and hypot are the `math`
        functions (see `_elementwise`), so results equal those of `direct`.
        """
        args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lat1, lon1, azi1, s12)))
        lat1, lon1, azi1, s12 = args

        # The line, as in `GeodesicLine.__init__`.
        salp1, calp1 = _sincosd_many(_ang_round_many(_ang_normalize_many(azi1)))
        sbet1, cbet1 = _sincosd_many(_ang_round_many(lat1))
        sbet1, cbet1 = _norm_many(sbet1 * self.f1, cbet1)
        cbet1 = np.maximum(_TINY, cbet1)
        salp0 = salp1 * cbet1
        calp0 = _hypot_many(calp1, salp1 * sbet1)
        somg1 = salp0 * sbet1
        csig1 = comg1 = np.where((sbet1 != 0) | (calp1 != 0), cbet1 * calp1, 1.0)
        ssig1, csig1 = _norm_many(sbet1, csig1)
        k2 = calp0 * calp0 * self.ep2
        eps = k2 / (2 * (1 + np.sqrt(1 + k2)) + k2)
        a1m1 = _a1m1f(eps)
        b11 = _sin_cos_series(True, ssig1, csig1, _c1f(eps), _NC1)
        s, c = np.sin(b11), np.cos(b11)
        stau1 = ssig1 * c + csig1 * s
        ctau1 = csig1 * c - ssig1 * s
        c3a = self._c3f(eps)
        a3c = -self.f * salp0 * self._a3f(eps)
        b31 = _sin_cos_series(True, ssig1, csig1, c3a, _NC3 - 1)

        # The point at s12, as in `GeodesicLine.position`.
        tau12 = s12 / (self.b * (1 + a1m1))
        s, c = np.sin(tau12), np.cos(tau12)
        b12 = -_sin_cos_series(True, stau1 * c + ctau1 * s, ctau1 * c - stau1 * s, _c1pf(eps), _NC1P)
        sig12 = tau12 - (b12 - b11)
        ssig12, csig12 = np.sin(sig12), np.cos(sig12)
        ssig2 = ssig1 * csig12 + csig1 * ssig12
        csig2 = csig1 * csig12 - ssig1 * ssig12
        sbet2 = calp0 * ssig2
        cbet2 = _hypot_many(salp0, calp0 * csig2)
        pole = cbet2 == 0
        cbet2 = np.where(pole, _TINY, cbet2)
        csig2 = comg2 = np.where(pole, _TINY, csig2)
        somg2 = salp0 * ssig2
        omg12 = _atan2_many(somg2 * comg1 - comg2 * somg1, comg2 * comg1 + somg2 * somg1)
        lam12 = omg12 + a3c * (sig12 + (_sin_cos_series(True, ssig2, csig2, c3a, _NC3 - 1) - b31))
        lon12 = _ang_normalize_many(np.degrees(lam12))
        lon2 = _ang_normalize_many(_ang_normalize_many(lon1) + lon12)
        return _atan2d_many(sbet2, self.f1 * cbet2), lon2


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
        self._a1m1 = _a1m1f(eps)
        self._c1a = _c1f(eps)
        self._b11 = _sin_cos_series(True, self._ssig1, self._csig1, self._c1a, _NC1)
        s, c = math.sin(self._b11), math.cos(self._b11)
        # tau1 = sig1 + B11
        self._stau1 = self._ssig1 * c + self._csig1 * s
        self._ctau1 = self._csig1 * c - self._ssig1 * s
        self._c1pa = _c1pf(eps)
        self._c3a = g._c3f(eps)
        self._a3c = -g.f * self._salp0 * g._a3f(eps)
        self._b31 = _sin_cos_series(True, self._ssig1, self._csig1, self._c3a, _NC3 - 1)

    def position(self, s12: float) -> tuple[float, float, float]:
        """(lat2, lon2, azi2) at distance s12 meters from the start point."""
        g = self._g
        tau12 = s12 / (g.b * (1 + self._a1m1))
        s, c = math.sin(tau12), math.cos(tau12)
        # tau2 = tau1 + tau12; invert the distance series for sigma.
        b12 = -_sin_cos_series(
            True, self._stau1 * c + self._ctau1 * s, self._ctau1 * c - self._stau1 * s, self._c1pa, _NC1P
        )
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
        salp2 = self._salp0
        calp2 = self._calp0 * csig2

        omg12 = math.atan2(
            somg2 * self._comg1 - comg2 * self._somg1, comg2 * self._comg1 + somg2 * self._somg1
        )
        lam12 = omg12 + self._a3c * (
            sig12 + (_sin_cos_series(True, ssig2, csig2, self._c3a, _NC3 - 1) - self._b31)
        )
        lon12 = _ang_normalize(math.degrees(lam12))
        lon2 = _ang_normalize(_ang_normalize(self.lon1) + lon12)
        lat2 = _atan2d(sbet2, g.f1 * cbet2)
        azi2 = _atan2d(salp2, calp2)
        return lat2, lon2, azi2


#: WGS84 reference ellipsoid (semi-major axis in meters, flattening).
WGS84 = Geodesic(6378137.0, 1 / 298.257223563)
