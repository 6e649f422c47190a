import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapregister import _geodesic
from mapregister._geodesic import WGS84
from mapregister.curves import anchor_min_distances, build_segments
from mapregister.errors import ConvergenceError, DegenerateCurveError, OutOfRangeError
from mapregister.geodesy import GeoPoint, chord_bound, ecef, geodesic_distance, walk

from oracles import (
    CHORD_SHORTFALL_PER_M2,
    DIRECT_REL,
    ENGINE_ABS_M,
    SCALAR_WGS84,
    assert_direct_close,
    assert_inverse_close,
    densified_point_to_segment,
    equator_arc,
    geodesic_midpoint,
    indexed_newton_many,
    quarter_meridian,
    scalar_distance,
    vincenty_distance,
    VincentyNoConvergence,
)
from synth import walk_points


class TestGeoPoint:
    def test_lon_normalized(self):
        assert GeoPoint(190.0, 10.0).lon == -170.0
        assert GeoPoint(-180.0, 0.0).lon == 180.0
        assert GeoPoint(180.0, 0.0).lon == 180.0
        assert GeoPoint(540.0, 0.0).lon == 180.0

    def test_lat_range_enforced(self):
        with pytest.raises(OutOfRangeError):
            GeoPoint(0.0, 90.0001)
        with pytest.raises(OutOfRangeError):
            GeoPoint(0.0, float("nan"))

    @given(st.floats(-1e6, 1e6))
    def test_lon_always_in_range(self, lon):
        p = GeoPoint(lon, 0.0)
        assert -180.0 < p.lon <= 180.0

    @given(st.floats(-180.0, 180.0, exclude_min=True))
    @example(179.99999999999997)
    @example(13.123456789012345)
    @example(-0.0)
    def test_in_range_lon_kept_bit_for_bit(self, lon):
        assert repr(GeoPoint(lon, 0.0).lon) == repr(lon)


class TestGeodesicDistance:
    def test_identical_points(self):
        p = GeoPoint(0.0, 0.0)
        assert geodesic_distance(p, p) == 0.0

    def test_one_degree_equator(self):
        d = geodesic_distance(GeoPoint(0, 0), GeoPoint(1, 0))
        assert d == pytest.approx(111319.491, abs=1e-3)
        assert d == pytest.approx(equator_arc(1.0), abs=1e-3)

    def test_quarter_meridian(self):
        d = geodesic_distance(GeoPoint(0, 0), GeoPoint(0, 90))
        assert d == pytest.approx(10001965.729, abs=1e-2)
        assert d == pytest.approx(quarter_meridian(), abs=1e-2)

    def test_against_vincenty(self):
        rng = random.Random(20240117)
        checked = 0
        while checked < 300:
            lat1, lat2 = rng.uniform(-85, 85), rng.uniform(-85, 85)
            lon1, lon2 = rng.uniform(-180, 180), rng.uniform(-180, 180)
            try:
                ref = vincenty_distance(lat1, lon1, lat2, lon2)
            except VincentyNoConvergence:
                continue
            got = geodesic_distance(GeoPoint(lon1, lat1), GeoPoint(lon2, lat2))
            assert got == pytest.approx(ref, abs=1e-3), (lat1, lon1, lat2, lon2)
            checked += 1

    def test_antipodal_is_finite_and_sane(self):
        # Truly antipodal points: the geodesic runs over a pole.
        d = geodesic_distance(GeoPoint(0.0, 30.0), GeoPoint(180.0, -30.0))
        assert math.isfinite(d)
        assert d == pytest.approx(2 * quarter_meridian(), abs=10.0)

    def test_equatorial_antipodes_over_the_pole(self):
        d = geodesic_distance(GeoPoint(0, 0), GeoPoint(180, 0))
        assert d == pytest.approx(2 * quarter_meridian(), abs=1e-6)
        assert geodesic_distance(GeoPoint(0, 90), GeoPoint(0, -90)) == pytest.approx(
            2 * quarter_meridian(), abs=1e-6
        )

    @pytest.mark.parametrize("lon12", [179.4, 179.5, 179.9, 179.99, 180.0])
    def test_nearly_antipodal_equatorial_vs_quadrature(self, lon12):
        # Beyond (1-f)*180 degrees the equatorial path stops being shortest
        # and the geodesic arcs toward a pole; Vincenty diverges here, so
        # check against direct quadrature of the geodesic integrals.
        from oracles import equatorial_crossing_geodesic

        want, _ = equatorial_crossing_geodesic(lon12)
        got = geodesic_distance(GeoPoint(0, 0), GeoPoint(lon12, 0))
        assert got == pytest.approx(want, abs=1e-3)

    @given(
        st.floats(-89, 89),
        st.floats(-180, 180),
        st.floats(-89, 89),
        st.floats(-180, 180),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        p, q = GeoPoint(lon1, lat1), GeoPoint(lon2, lat2)
        d1 = geodesic_distance(p, q)
        d2 = geodesic_distance(q, p)
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-9)

    def test_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(50):
            pts = [
                GeoPoint(rng.uniform(-180, 180), rng.uniform(-85, 85))
                for _ in range(3)
            ]
            p, q, r = pts
            assert geodesic_distance(p, r) <= (
                geodesic_distance(p, q) + geodesic_distance(q, r) + 1e-6
            )


class TestMidpointAndWalk:
    def test_midpoint_splits_evenly(self):
        # An edge's midpoint as `build_segments` places it.
        p, q = GeoPoint(10.0, 45.0), GeoPoint(11.0, 46.0)
        m = GeoPoint(*build_segments([p, q]).chain[1].tolist())
        half = geodesic_distance(p, q) / 2
        assert geodesic_distance(p, m) == pytest.approx(half, abs=1e-6)
        assert geodesic_distance(m, q) == pytest.approx(half, abs=1e-6)

    def test_zero_walk_and_midpoint_of_a_point_are_the_point(self):
        # The engine calls of `walk(p, az, 0.0)` and of an edge midpoint in
        # `build_segments` (half an inverse from p to p) on 20,000 points,
        # then `walk` on 200 of them.
        rng = np.random.default_rng(15)
        n = 20_000
        lat = rng.uniform(-90, 90, n)
        lat[:100] = rng.choice([-90.0, 0.0, 90.0], 100)
        lon = rng.uniform(-180, 180, n)
        lat2, lon2 = WGS84.direct_many(lat, lon, rng.uniform(-180, 180, n), 0.0)
        assert lat2.tolist() == lat.tolist() and lon2.tolist() == lon.tolist()
        s12, azi1 = WGS84.inverse_many(lat, lon, lat, lon)
        assert s12.tolist() == [0.0] * n
        lat2, lon2 = WGS84.direct_many(lat, lon, azi1, s12 / 2)
        assert lat2.tolist() == lat.tolist() and lon2.tolist() == lon.tolist()
        for x, y, az in zip(lon[::100].tolist(), lat[::100].tolist(), rng.uniform(-360, 360, n).tolist()):
            p = GeoPoint(x, y)
            assert walk(p, az, 0.0) == p

    def test_walk_round_trip(self):
        p = GeoPoint(15.0, 47.0)
        q = walk(p, 60.0, 25_000.0)
        assert geodesic_distance(p, q) == pytest.approx(25_000.0, abs=1e-6)


class TestPolylineLength:
    # A polyline's length as the pipeline measures it: the length of the
    # curve `build_segments` makes of it.
    def test_single_segment(self):
        p, q = GeoPoint(0, 0), GeoPoint(0.5, 0.5)
        assert build_segments([p, q]).length == pytest.approx(geodesic_distance(p, q), rel=1e-12)

    def test_two_equator_degrees(self):
        pts = [GeoPoint(0, 0), GeoPoint(1, 0), GeoPoint(2, 0)]
        assert build_segments(pts).length == pytest.approx(222638.982, abs=2e-3)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateCurveError):
            build_segments([])


def edge_distances(points, a, b) -> list[float]:
    # Distances from the points to the geodesic edge from a to b as the
    # pipeline measures them: the anchor pass from the curve through the
    # points to the curve of the two vertices a and b.
    return anchor_min_distances(build_segments(points, "A"), build_segments([a, b], "B"))


class TestPointToSegment:
    # The point-to-edge rule of every curve metric, on an edge whose chain
    # is its two halves.  Single points are measured with the edge's start
    # as a second anchor.

    def test_endpoint_containment(self):
        a, b = GeoPoint(0, 0), GeoPoint(1, 0)
        assert edge_distances([a, b], a, b) == [0.0, 0.0]

    def test_degenerate_segment(self):
        # Vertices an ulp apart: the midpoint lands on the first vertex, so
        # the first half of the edge is a chord of one point in the plane,
        # which measures to that point.
        a, b = GeoPoint(10.0, 45.0), GeoPoint(10.0, math.nextafter(45.0, 46.0))
        chain = build_segments([a, b]).chain
        assert chain[0].tolist() == chain[1].tolist()
        p = GeoPoint(10.5, 46.0)
        got = edge_distances([p, a], a, b)[0]
        assert got == pytest.approx(geodesic_distance(p, a), abs=1e-6)

    def test_long_segment_against_densification(self):
        # ~111 km equatorial segment, point one degree north of its middle.
        p = GeoPoint(0.5, 1.0)
        a, b = GeoPoint(0, 0), GeoPoint(1, 0)
        got = edge_distances([p, a], a, b)[0]
        ref = densified_point_to_segment(scalar_distance, walk_points, p, a, b)
        assert got == pytest.approx(ref, abs=0.01)

    @pytest.mark.parametrize(
        "plat,plon,alat,alon,blat,blon",
        [
            (46.0, 12.0, 45.5, 11.5, 45.7, 12.8),
            (44.9, 13.0, 45.5, 11.5, 45.7, 12.8),
            (45.6, 12.1, 45.5, 11.5, 45.7, 12.8),
            (47.0, 14.0, 46.9, 13.9, 46.95, 14.05),
        ],
    )
    def test_midlatitude_agreement_with_densification(
        self, plat, plon, alat, alon, blat, blon
    ):
        # Within 1 cm of the densified reference plus the planar chord's
        # shortfall over half the edge (up to 10 cm on the 104 km edge).
        p = GeoPoint(plon, plat)
        a, b = GeoPoint(alon, alat), GeoPoint(blon, blat)
        got = edge_distances([p, a], a, b)[0]
        ref = densified_point_to_segment(scalar_distance, walk_points, p, a, b)
        half = geodesic_distance(a, b) / 2
        assert ref - 0.01 - CHORD_SHORTFALL_PER_M2 * ref * half**2 <= got <= ref + 0.01

    def test_never_exceeds_endpoint_distances(self):
        rng = random.Random(99)
        for _ in range(40):
            lat0, lon0 = rng.uniform(-60, 60), rng.uniform(-180, 180)
            p = GeoPoint(lon0, lat0)
            a = GeoPoint(lon0 + rng.uniform(-1, 1), lat0 + rng.uniform(-1, 1))
            b = GeoPoint(lon0 + rng.uniform(-1, 1), lat0 + rng.uniform(-1, 1))
            d = edge_distances([p, a], a, b)[0]
            assert d <= min(geodesic_distance(p, a), geodesic_distance(p, b)) + 1e-9

    def test_long_segment_minimum_at_endpoint(self):
        # Point beyond the start of a ~220 km segment: the nearest point is
        # the start vertex itself, and the densified path must find it.
        a, b = GeoPoint(10.0, 45.0), GeoPoint(12.8, 45.0)
        p = walk(a, 270.0, 35_000.0)  # west of the start
        got = edge_distances([p, a], a, b)[0]
        assert got == pytest.approx(geodesic_distance(p, a), abs=0.01)

    def test_long_segment_interior_minimum(self):
        a, b = GeoPoint(10.0, 45.0), GeoPoint(12.8, 45.0)
        mid = geodesic_midpoint(a, b)
        p = walk(mid, 0.0, 50_000.0)
        got = edge_distances([p, a], a, b)[0]
        ref = densified_point_to_segment(scalar_distance, walk_points, p, a, b)
        assert got == pytest.approx(ref, abs=0.01)


def chord_bound_families(rng: np.random.Generator, n: int):
    # (name, lat1, lon1, lat2, lon2) for the five families of lines the
    # chord bound is checked on; short meridional lines at the equator are
    # where it is tight.
    def area(k):
        return np.degrees(np.arcsin(rng.uniform(-1, 1, k))), rng.uniform(-180, 180, k)

    lat1, lon1 = area(n)
    yield ("global", lat1, lon1, *area(n))
    lat1, lon1 = rng.uniform(-88, 88, n), rng.uniform(-180, 180, n)
    yield "short", lat1, lon1, lat1 + rng.uniform(-2, 2, n), lon1 + rng.uniform(-2, 2, n)
    lat1, lon1 = rng.uniform(-1, 1, n), rng.uniform(-180, 180, n)
    yield "equator meridional", lat1, lon1, lat1 + rng.uniform(-2, 2, n) * 10 ** rng.uniform(-4, 0, n), lon1
    lat1, lon1 = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
    yield "meridional", lat1, lon1, rng.uniform(-90, 90, n), lon1 + rng.choice([0.0, 180.0], n)
    yield "equatorial", np.zeros(n), rng.uniform(-180, 180, n), np.zeros(n), rng.uniform(-180, 180, n)


def chord(lat1, lon1, lat2, lon2) -> np.ndarray:
    return np.linalg.norm(ecef(lat1, lon1) - ecef(lat2, lon2), axis=1)


class TestChordBound:
    # chord_bound(c) bounds from above the geodesic distance of two points
    # whose ECEF chord is c; the anchor pass's skip test rests on it.

    def test_bounds_the_engine(self):
        for name, *line in chord_bound_families(np.random.default_rng(21), 20_000):
            s = WGS84.inverse_many(*line)[0]
            bound = chord_bound(chord(*line))
            assert (bound >= s - 1e-8).all(), (name, (bound - s).min())
            assert np.isfinite(bound).mean() > 0.85, name

    def test_bounds_vincenty(self):
        # Within Vincenty's stated accuracy of about 0.5 mm: on short
        # meridional lines at the equator its series fall a few 1e-8 m
        # above the engine.
        checked = 0
        for name, *line in chord_bound_families(np.random.default_rng(22), 200):
            bound = chord_bound(chord(*line))
            for k, pair in enumerate(zip(*(v.tolist() for v in line))):
                try:
                    s = vincenty_distance(*pair)
                except VincentyNoConvergence:
                    continue
                assert bound[k] >= s - 5e-4, (name, pair)
                checked += 1
        assert checked > 900

    def test_infinite_from_the_limit(self):
        # C0 = 2 b - pi (a - r) with r = b^2 / a, below the 2 r where asin
        # would leave its domain.
        r = WGS84.b**2 / WGS84.a
        c0 = 2 * WGS84.b - math.pi * (WGS84.a - r)
        assert c0 == pytest.approx(12_579_365.9, abs=0.1) and c0 < 2 * r
        c = np.array([0.0, 1_000.0, np.nextafter(c0, 0.0), c0, 2 * r, 2 * WGS84.a])
        got = chord_bound(c)
        assert got[0] == 0.0 and got[1] == pytest.approx(1_000.0 + 1_000.0**3 / (24 * r * r), abs=1e-9)
        assert math.isfinite(got[2]) and got[2] < math.pi * r
        assert np.isinf(got[3:]).all()


class TestSeriesHelpersOnArrays:
    EPS = [0.0, 1e-6, 3.3e-4, 1.1e-3, 0.0016792]
    #: Each series table with the variable of its polynomials: eps^2 for the
    #: I1 and I2 series, eps for I3.
    TABLES = {
        "C1": (_geodesic._C1, lambda e: e * e),
        "C1P": (_geodesic._C1P, lambda e: e * e),
        "C2": (_geodesic._C2, lambda e: e * e),
        "C3": (WGS84._c3, lambda e: e),
    }

    @pytest.mark.parametrize("name", TABLES)
    def test_series_elementwise_and_argument_untouched(self, name):
        table, var = self.TABLES[name]
        eps = np.array(self.EPS)
        x = var(eps)
        x_before = x.tolist()
        got = _geodesic._series(table, eps, x)
        assert eps.tolist() == self.EPS and x.tolist() == x_before
        assert len(got) == len(table)
        for i, e in enumerate(self.EPS):
            assert [c[i] for c in got] == _geodesic._series(table, e, var(e))

    @pytest.mark.parametrize("poly", [_geodesic._A1, _geodesic._A2, WGS84._a3], ids=["A1", "A2", "A3"])
    def test_horner_elementwise_and_argument_untouched(self, poly):
        eps = np.array(self.EPS)
        got = _geodesic._horner(poly, eps)
        assert eps.tolist() == self.EPS
        assert got.tolist() == [_geodesic._horner(poly, e) for e in self.EPS]

    @pytest.mark.parametrize("name", TABLES)
    def test_sin_series(self, name):
        table, var = self.TABLES[name]
        eps = np.array(self.EPS)
        c = _geodesic._series(table, eps, var(eps))
        x = np.linspace(-3.0, 3.0, len(self.EPS))
        sx, cx = np.sin(x), np.cos(x)
        got = _geodesic._sin_series(sx, cx, c)
        for i in range(len(self.EPS)):
            assert got[i] == _geodesic._sin_series(sx[i], cx[i], [v[i] for v in c])
        # The sum it evaluates, to rounding.
        want = sum(ck * np.sin(2 * (k + 1) * x) for k, ck in enumerate(c))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-18)


class TestSeriesPinnedValues:
    # Values recorded from the engine before its series became tables (one
    # coefficient function per series); they pin every coefficient and the
    # results of each branch to the bit.
    COEFFS = {
        1e-6: (
            1.00000125000125e-06, -9.9999975000025e-07, 0.99999950083936,
            [-4.999999999998125e-07, -6.249999999996875e-14, -2.083333333332161e-20,
             -9.76562499999414e-27, -5.468749999999999e-33, -3.41796875e-39],
            [4.999999999997188e-07, 3.1249999999961456e-13, 3.0208333333274735e-19,
             3.5091145833239926e-25, 4.514322916666666e-31, 6.198079427083333e-37],
            [5.000000000000624e-07, 1.8750000000003126e-13, 1.0416666666668619e-19,
             6.835937500001366e-26, 4.921875e-32, 3.7597656249999997e-38],
            [2.4958031990309857e-07, 6.234270802935173e-14, 2.596305003663854e-20,
             1.362597248943482e-26, 8.203124999999999e-33],
        ),
        3.3e-4: (
            0.0003301361699362643, -0.00032997278398258284, 0.9998352498213626,
            [-0.00016499999326181263, -6.806249629399693e-09, -7.486874541382113e-13,
             -1.1581259008905486e-16, -2.1402168046875e-20, -4.414197159667968e-24],
            [0.00016499998989271924, 3.403124542926324e-08, 1.0855966456910567e-11,
             4.161531469570346e-15, 1.7666980147265623e-18, 8.004621049395995e-22],
            [0.0001650000022460626, 2.0418750370600336e-08, 3.7434375764363146e-12,
             8.106882012505386e-16, 1.92619512421875e-19, 4.855616875634765e-23],
            [8.237507846757675e-05, 6.7907987399255686e-09, 9.33310773604393e-13,
             1.6164661248891078e-16, 3.2103252070312503e-20],
        ),
        0.0016792: (
            0.0016827305694564624, -0.0016784962544391633, 0.9991611040585993,
            [-0.0008395991122138926, -1.7623179153824314e-07, -9.8642790732903e-11,
             -7.76441984455851e-14, -7.301300082211162e-17, -7.662714436280614e-20],
            [0.0008395986683219949, 8.811571356444238e-07, 1.4303149114238166e-09,
             2.78999864546225e-12, 6.027049377387166e-15, 1.3895420402285813e-17],
            [0.0008396002959292588, 5.286963684622384e-07, 4.932149967073838e-10,
             5.435106151534055e-13, 6.571170073990046e-16, 8.428985879908675e-19],
            [0.00041944774899814333, 1.760102740683564e-07, 1.2311751560716523e-10,
             1.0851952479482645e-13, 1.0951950123316743e-16],
        ),
    }
    #: (lat1, lon1, lat2, lon2) -> (s12, azi1).
    INVERSE = {
        (30.0, 5.0, 50.0, 5.0): (2220733.6437437674, 0.0),  # meridian
        (30.0, 5.0, 40.0, -175.0): (12254289.030334549, 0.0),  # meridian over the pole
        (0.0, 0.0, 0.0, 100.0): (11131949.079327356, 90.0),  # equator
        (0.0, 0.0, 0.0, 179.5): (19980861.908890963, 55.966495140159),  # equator, past (1 - f) 180
        (-30.0, 0.0, 29.9, 179.8): (19989832.82760953, 161.89052473632646),  # astroid start
        (0.5, 0.0, -0.5, 179.7): (19995624.889961265, 29.83001097345139),  # nearly antipodal
        (45.0, 10.0, 45.0001, 10.0001): (13.626109041338433, 35.35524355591416),  # short line
        (10.0, 20.0, 10.000000001, 20.000000002): (0.00024559566901070554, 63.23289300585432),
        (90.0, 0.0, -30.0, 40.0): (13322079.127253104, 140.0),  # pole endpoints
        (-90.0, 0.0, 30.0, 40.0): (13322079.127253104, 40.0),
        (12.0, 3.0, -90.0, 0.0): (11329050.198906204, 180.0),
        (-33.9, 151.2, 40.7, -74.0): (15990627.264133751, 65.74619033656256),  # Newton
        (10.0, 20.0, 10.0, 20.0): (0.0, 180.0),  # coincident
        (20.0, 30.0, -20.0, -150.0): (20003931.458625447, 0.0),  # antipodal
        (0.0, 0.0, 0.0, 180.0): (20003931.458625447, 0.0),
    }
    #: (lat1, lon1, azi1, s12) -> (lat2, lon2).
    DIRECT = {
        (90.0, 0.0, 30.0, 1e6): (81.04623281595062, 150.0),  # from a pole
        (0.0, 10.0, 90.0, 5e6): (0.0, 54.915764205976075),  # along the equator
        (60.0, 0.0, 0.0, 4e6): (84.1614591661161, 180.0),  # over a pole
        (-33.9, 151.2, 50.0, 1.5e7): (50.551561767572665, -87.23479663589018),
        (10.0, 20.0, 30.0, 0.0): (10.0, 20.0),  # zero length: the start exactly
        (45.0, 45.0, 120.0, -3e6): (52.2560982204419, 5.213930086046062),
    }

    @staticmethod
    def _bits(values):
        return [repr(float(v)) for v in values]  # tells -0.0 from 0.0

    @pytest.mark.parametrize("eps", COEFFS)
    def test_coefficients(self, eps):
        a1m1, a2m1, a3, c1, c1p, c2, c3 = self.COEFFS[eps]
        eps2 = eps * eps
        assert (_geodesic._horner(_geodesic._A1, eps2) / 256 + eps) / (1 - eps) == a1m1
        assert _geodesic._horner(_geodesic._A2, eps2) / 256 * (1 - eps) - eps == a2m1
        assert _geodesic._horner(WGS84._a3, eps) == a3
        assert _geodesic._series(_geodesic._C1, eps, eps2) == c1
        assert _geodesic._series(_geodesic._C1P, eps, eps2) == c1p
        assert _geodesic._series(_geodesic._C2, eps, eps2) == c2
        assert _geodesic._series(WGS84._c3, eps, eps) == c3

    def test_inverse_many(self):
        s12, azi1 = WGS84.inverse_many(*np.array(list(self.INVERSE)).T)
        want = list(self.INVERSE.values())
        assert self._bits(s12) == self._bits(w[0] for w in want)
        assert self._bits(azi1) == self._bits(w[1] for w in want)

    def test_direct_many(self):
        lat2, lon2 = WGS84.direct_many(*np.array(list(self.DIRECT)).T)
        want = list(self.DIRECT.values())
        assert self._bits(lat2) == self._bits(w[0] for w in want)
        assert self._bits(lon2) == self._bits(w[1] for w in want)


#: Pairs on each special branch of `inverse_many`: meridians (one nearly
#: antipodal, which takes the general case), the equator, the astroid start.
SPECIAL_PAIRS = {
    "coincident": (10.0, 20.0, 10.0, 20.0),
    "meridian": (30.0, 5.0, 50.0, 5.0),
    "meridian over the pole": (30.0, 5.0, 40.0, -175.0),
    "south pole": (-90.0, 0.0, 30.0, 40.0),
    "north pole": (90.0, 0.0, -30.0, 1.0),
    "equatorial": (0.0, 0.0, 0.0, 10.0),
    "equatorial beyond (1-f)180": (0.0, 0.0, 0.0, 179.8),
    "antipodal": (10.0, 5.0, -10.0, -175.0),
    "nearly antipodal": (10.0, 5.0, -10.2, -175.3),
    "nearly antipodal near the equator": (0.5, 0.0, -0.4, 179.6),
}

_lat = st.floats(-90, 90)
_lon = st.floats(-180, 180)


def _clip_lat(lat):
    return min(90.0, max(-90.0, lat))


@st.composite
def _pairs(draw):
    # A batch mixing far pairs, pairs within 2 deg and within 1e-5 deg (about
    # a metre), meridians, the equator, pole endpoints, pairs within 0.5 deg
    # of the antipode and the special cases.
    out = []
    for _ in range(draw(st.integers(1, 12))):
        lat1, lon1 = draw(_lat), draw(_lon)
        kind = draw(st.sampled_from(["far", "near", "submetre", "meridian", "equator", "pole", "antipodal", "special"]))
        if kind == "far":
            out.append((lat1, lon1, draw(_lat), draw(_lon)))
        elif kind in ("near", "submetre"):
            r = 2.0 if kind == "near" else 1e-5
            dlat, dlon = draw(st.floats(-r, r)), draw(st.floats(-r, r))
            out.append((lat1, lon1, _clip_lat(lat1 + dlat), lon1 + dlon))
        elif kind == "meridian":
            out.append((lat1, lon1, draw(_lat), lon1 + draw(st.sampled_from([0.0, 180.0]))))
        elif kind == "equator":
            out.append((0.0, lon1, 0.0, draw(_lon)))
        elif kind == "pole":
            out.append((draw(st.sampled_from([-90.0, 90.0])), lon1, draw(_lat), draw(_lon)))
        elif kind == "antipodal":
            dlat, dlon = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
            out.append((lat1, lon1, _clip_lat(dlat - lat1), lon1 + 180.0 + dlon))
        else:
            out.append(draw(st.sampled_from(list(SPECIAL_PAIRS.values()))))
    return out


def assert_slices_keep_bits(solve, rows, monkeypatch):
    # `solve` (`inverse_many` or `direct_many`) on (n, 4) argument rows in
    # engine slices of the default size, of 37 elements and of one gives
    # the bits of one whole slice.  Zero elements and a 2-D broadcast over
    # several slices keep the broadcast shape; the broadcast gives the bits
    # of its flattened arguments.
    def solved(size, *args):
        monkeypatch.setattr(_geodesic, "_SLICE", size)
        return solve(*args)

    def bits(results):
        return [r.tobytes() for r in results]

    for size in (_geodesic._SLICE, 37, 1):
        assert bits(solved(size, *rows.T)) == bits(solved(len(rows), *rows.T))
        assert [r.shape for r in solved(size, np.empty((0, 1)), 0.0, np.empty(3), 1.0)] == [(0, 3)] * 2
        k, m = 3, size // 2 + 1
        args = rows[:k, 0:1], rows[:k, 1:2], np.resize(rows[:, 2], m), np.resize(rows[:, 3], m)
        got = solved(size, *args)
        assert [r.shape for r in got] == [(k, m)] * 2
        assert bits(got) == bits(solved(k * m, *(np.broadcast_to(v, (k, m)).ravel() for v in args)))


class TestInverseMany:
    @given(_pairs())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_inverse(self, pairs):
        a = np.array(pairs)
        s12, azi1 = WGS84.inverse_many(a[:, 0], a[:, 1], a[:, 2], a[:, 3])
        assert s12.shape == azi1.shape == (len(pairs),)
        for p, s, z in zip(pairs, s12, azi1):
            assert_inverse_close(s, z, SCALAR_WGS84.inverse(*p))

    def test_random_pairs_with_long_lines(self):
        rng = np.random.default_rng(5)
        lat1, lat2 = rng.uniform(-90, 90, (2, 2000))
        lon1, lon2 = rng.uniform(-180, 180, (2, 2000))
        near = slice(0, 1000)
        lat2[near] = np.clip(lat1[near] + rng.uniform(-3, 3, 1000), -90, 90)
        lon2[near] = lon1[near] + rng.uniform(-3, 3, 1000)
        s12, azi1 = WGS84.inverse_many(lat1, lon1, lat2, lon2)
        for i in range(2000):
            assert_inverse_close(s12[i], azi1[i], SCALAR_WGS84.inverse(lat1[i], lon1[i], lat2[i], lon2[i]))

    def test_batch_composition_does_not_change_bits(self, monkeypatch):
        # Each element is solved on its own: engine slices of the default
        # size, of 37 elements and of one give the bits of one whole slice.
        # Batched passes (the anchor pass over all directions, the
        # cross-evaluation of all transforms) rely on this to reproduce
        # one-at-a-time results.
        rng = np.random.default_rng(20)
        n = 60
        lat1, lon1 = rng.uniform(-90, 90, 5 * n), rng.uniform(-180, 180, 5 * n)
        far = (rng.uniform(-90, 90, n), rng.uniform(-180, 180, n))
        near = (np.clip(lat1[n : 2 * n] + rng.uniform(-1, 1, n), -90, 90), lon1[n : 2 * n] + rng.uniform(-1, 1, n))
        meridian = (rng.uniform(-90, 90, n), lon1[2 * n : 3 * n] + rng.choice([0.0, 180.0], n))
        lat1[3 * n : 4 * n] = 0.0
        equatorial = (np.zeros(n), rng.uniform(-180, 180, n))
        lat1[4 * n :] = rng.uniform(-60, 60, n)
        antipodal = (rng.uniform(-0.3, 0.3, n) - lat1[4 * n :], lon1[4 * n :] + 180.0 + rng.uniform(-0.3, 0.3, n))
        lat2, lon2 = (np.concatenate(c) for c in zip(far, near, meridian, equatorial, antipodal))
        lat2[::9], lon2[::9] = lat1[::9], lon1[::9]  # coincident
        pairs = np.concatenate([np.stack([lat1, lon1, lat2, lon2], axis=1), np.array(list(SPECIAL_PAIRS.values()))])
        pairs = pairs[rng.permutation(len(pairs))]
        assert_slices_keep_bits(WGS84.inverse_many, pairs, monkeypatch)

    @pytest.mark.parametrize("name", list(SPECIAL_PAIRS))
    def test_special_branches_use_scalar_path(self, name):
        # Each special branch keeps to the allowance of the scalar
        # reference's result, for the pair alone, through the one-element
        # `inverse`, and mixed with a general pair.
        pair = SPECIAL_PAIRS[name]
        want = SCALAR_WGS84.inverse(*pair)
        general = (30.0, 0.0, -29.0, 150.0)
        s12, azi1 = WGS84.inverse_many(*pair)
        assert_inverse_close(s12, azi1, want)
        assert_inverse_close(*WGS84.inverse(*pair), want)
        s12, azi1 = WGS84.inverse_many(*(np.array([x, y]) for x, y in zip(pair, general)))
        assert_inverse_close(s12[0], azi1[0], want)
        assert_inverse_close(s12[1], azi1[1], SCALAR_WGS84.inverse(*general))

    @pytest.mark.parametrize("alp1", [1e-6, math.pi - 1e-6], ids=["above 0", "below pi"])
    def test_bisection_from_either_end(self, monkeypatch, alp1):
        # Newton started at the ends of (0, pi), on uniform and on nearly
        # antipodal pairs and on the special pairs: where a step would leave
        # (0, pi) or its derivative is not positive (exactly 0 for the
        # equatorial pair beyond (1-f)180 started above 0), the bracket is
        # bisected instead, and no step divides by the derivative.
        newton = _geodesic.Geodesic._newton_many

        def from_the_end(self, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1):
            start = np.full(lam12.size, math.sin(alp1)), np.full(lam12.size, math.cos(alp1))
            return newton(self, sbet1, cbet1, sbet2, cbet2, lam12, *start)

        monkeypatch.setattr(_geodesic.Geodesic, "_newton_many", from_the_end)
        rng = np.random.default_rng(9)
        lat1, lon1 = rng.uniform(-90, 90, 4000), rng.uniform(-180, 180, 4000)
        lat2, lon2 = rng.uniform(-90, 90, 4000), rng.uniform(-180, 180, 4000)
        anti = slice(2000, None)
        lat2[anti] = np.clip(rng.uniform(-0.5, 0.5, 2000) - lat1[anti], -90, 90)
        lon2[anti] = lon1[anti] + 180.0 + rng.uniform(-0.5, 0.5, 2000)
        special = np.array(list(SPECIAL_PAIRS.values())).T
        lat1, lon1, lat2, lon2 = np.concatenate([np.stack([lat1, lon1, lat2, lon2]), special], axis=1)
        s12, azi1 = WGS84.inverse_many(lat1, lon1, lat2, lon2)
        for i, p in enumerate(zip(lat1.tolist(), lon1.tolist(), lat2.tolist(), lon2.tolist())):
            assert_inverse_close(s12[i], azi1[i], SCALAR_WGS84.inverse(*p))

    def test_no_convergence_raises(self, monkeypatch):
        # One pass cannot solve a pair that needs Newton's method; the
        # pairs of the other branches alone still solve.
        monkeypatch.setattr(_geodesic, "_MAXIT", 1)
        with pytest.raises(ConvergenceError, match="did not converge in 1 passes"):
            WGS84.inverse_many(*np.array([SPECIAL_PAIRS["meridian"], (30.0, 0.0, -29.0, 150.0)]).T)
        others = [SPECIAL_PAIRS["meridian"], SPECIAL_PAIRS["equatorial"], (45.0, 10.0, 45.000001, 10.000001)]
        s12, azi1 = WGS84.inverse_many(*np.array(others).T)
        for i, p in enumerate(others):
            assert_inverse_close(s12[i], azi1[i], SCALAR_WGS84.inverse(*p))

    def test_matches_indexed_newton_loop_bit_for_bit(self, monkeypatch):
        # The Newton loop whose state holds only the live elements gives
        # the bits of `oracles.indexed_newton_many`, which gathered and
        # scattered full-length state every pass: on random, nearly
        # antipodal and short pairs and the special pairs, the random ones
        # also from both ends of (0, pi), and it fails with the same message
        # when one pass is allowed.
        rng = np.random.default_rng(27)
        n, k = 100_000, 20_000
        lat1, lon1 = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
        lat2, lon2 = rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)
        anti, short = slice(0, k), slice(k, 2 * k)
        lat2[anti] = np.clip(rng.uniform(-0.5, 0.5, k) - lat1[anti], -90, 90)
        lon2[anti] = lon1[anti] + 180.0 + rng.uniform(-0.5, 0.5, k)
        lat2[short] = np.clip(lat1[short] + rng.uniform(-0.05, 0.05, k), -90, 90)
        lon2[short] = lon1[short] + rng.uniform(-0.05, 0.05, k)
        pairs = np.concatenate([np.stack([lat1, lon1, lat2, lon2]), np.array(list(SPECIAL_PAIRS.values())).T], axis=1)

        def solve(newton, alp1, pairs):
            def started(self, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1):
                if alp1 is not None:
                    salp1, calp1 = np.full(lam12.size, math.sin(alp1)), np.full(lam12.size, math.cos(alp1))
                return newton(self, sbet1, cbet1, sbet2, cbet2, lam12, salp1, calp1)

            monkeypatch.setattr(_geodesic.Geodesic, "_newton_many", started)
            return b"".join(x.tobytes() for x in WGS84.inverse_many(*pairs))

        live = _geodesic.Geodesic._newton_many
        assert solve(live, None, pairs) == solve(indexed_newton_many, None, pairs)
        for alp1 in (1e-6, math.pi - 1e-6):
            assert solve(live, alp1, pairs[:, :n]) == solve(indexed_newton_many, alp1, pairs[:, :n])
        monkeypatch.setattr(_geodesic, "_MAXIT", 1)
        messages = []
        for newton in (live, indexed_newton_many):
            with pytest.raises(ConvergenceError, match=r"did not converge in 1 passes \(\d+ of \d+ pairs\)") as info:
                solve(newton, None, pairs)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_newton_leaves_its_arguments_untouched(self, monkeypatch):
        # No helper of the engine updates an argument in place; the Newton
        # loop's state is its own.
        newton = _geodesic.Geodesic._newton_many
        untouched = []

        def checked(self, *args):
            before = [a.tobytes() for a in args]
            out = newton(self, *args)
            untouched.append([a.tobytes() for a in args] == before)
            return out

        monkeypatch.setattr(_geodesic.Geodesic, "_newton_many", checked)
        pairs = [(30.0, 0.0, -29.0, 150.0), SPECIAL_PAIRS["nearly antipodal"], (45.0, 10.0, 44.0, 12.0)]
        WGS84.inverse_many(*np.array(pairs).T)
        assert untouched == [True]

    @given(
        st.lists(
            st.tuples(
                _lat,
                _lon,
                st.one_of(st.floats(-0.5, 0.5), st.floats(-1e-6, 1e-6)),
                st.one_of(st.floats(-0.5, 0.5), st.floats(-1e-6, 1e-6)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_nearly_antipodal_round_trip_and_pole_bound(self, offsets):
        # The direct problem along each solution lands on its far point,
        # and no solution is longer than the path over a pole.
        a = np.array(offsets)
        lat1, lon1 = a[:, 0], a[:, 1]
        lat2, lon2 = np.clip(a[:, 2] - lat1, -90, 90), lon1 + 180.0 + a[:, 3]
        s12, azi1 = WGS84.inverse_many(lat1, lon1, lat2, lon2)
        lat3, lon3 = WGS84.direct_many(lat1, lon1, azi1, s12)
        miss, _ = WGS84.inverse_many(lat3, lon3, lat2, lon2)
        assert (miss <= ENGINE_ABS_M + DIRECT_REL * s12).all(), (miss, offsets)
        pole = np.array([90.0, -90.0])[:, None]
        over = (WGS84.inverse_many(lat1, 0.0, pole, 0.0)[0] + WGS84.inverse_many(lat2, 0.0, pole, 0.0)[0]).min(axis=0)
        assert (s12 <= over + ENGINE_ABS_M).all(), (s12 - over, offsets)

    def test_short_line_cancellation(self):
        # One ulp of NumPy's arctan2 or hypot, amplified by the cancellation
        # in sigma12, moves this 1.4 km line by 1.4e-9 m.
        pair = (35.79953313176809, -15.988751514007987, 35.80830280710825, -16.000014064695705)
        s12, azi1 = WGS84.inverse_many(*(np.array([x]) for x in pair))
        assert_inverse_close(s12[0], azi1[0], SCALAR_WGS84.inverse(*pair))

    def test_broadcasts(self):
        lats = np.array([[45.0], [46.0]])
        lons = np.array([10.0, 10.5, 11.0])
        s12, azi1 = WGS84.inverse_many(45.5, 10.2, lats, lons)
        assert s12.shape == azi1.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert_inverse_close(s12[i, j], azi1[i, j], SCALAR_WGS84.inverse(45.5, 10.2, lats[i, 0], lons[j]))


#: Lines through the special cases of a geodesic line: starts on a pole
#: (cbet1 clamped to tiny), on the equator heading along it (the csig1
#: special case), along meridians, azimuths of 0 and +-180, zero length, and
#: lines over a pole.  Its cbet2 == 0 guard is reached by no known input.
DIRECT_CASES = [
    (90.0, 0.0, 0.0, 1e6), (90.0, 30.0, 180.0, 1e6), (-90.0, 10.0, 45.0, 1e6),
    (0.0, 0.0, 90.0, 1e6), (0.0, 0.0, -90.0, 3e7), (0.0, 170.0, 90.0, 2e6),
    (0.0, 0.0, 0.0, 10001965.729313058), (30.0, 5.0, 0.0, 6.7e6), (-30.0, 5.0, 180.0, 8e6),
    (45.0, 10.0, -180.0, 1e5), (45.0, 10.0, 180.0, 1e5), (-0.0, -0.0, -0.0, 5.0),
    (10.0, 20.0, 30.0, 0.0), (89.9999, -179.9999, 90.0, 2e4), (0.0, 180.0, -135.0, 1.5e7),
]


def seeded_lines() -> np.ndarray:
    # 2,000 seeded (lat1, lon1, azi1, s12) rows, with starts on a pole or
    # the equator, azimuths along meridians and zero lengths among them,
    # then DIRECT_CASES.
    rng = np.random.default_rng(11)
    n = 2000
    lat1 = rng.uniform(-90, 90, n)
    lon1 = rng.uniform(-180, 180, n)
    azi1 = rng.uniform(-180, 180, n)
    s12 = rng.choice([1.0, 1e3, 1e5, 1e7, 4e7], n) * rng.uniform(0, 1, n)
    lat1[:100] = rng.choice([-90.0, 0.0, 90.0], 100)
    azi1[100:200] = rng.choice([-180.0, 0.0, 180.0], 100)
    s12[200:250] = 0.0
    return np.concatenate([np.stack([lat1, lon1, azi1, s12], axis=1), np.array(DIRECT_CASES)])


class TestDirectMany:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-90, 90), st.sampled_from([-90.0, 0.0, 90.0])),
                st.floats(-540, 540),
                st.one_of(st.floats(-360, 360), st.sampled_from([-180.0, 0.0, 90.0, 180.0])),
                st.one_of(st.floats(0, 4e7), st.just(0.0)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_direct(self, lines):
        a = np.array(lines)
        lat2, lon2 = WGS84.direct_many(a[:, 0], a[:, 1], a[:, 2], a[:, 3])
        assert lat2.shape == lon2.shape == (len(lines),)
        for line, la, lo in zip(lines, lat2.tolist(), lon2.tolist()):
            assert_direct_close((la, lo), *line)

    @given(_pairs(), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_direct_along_inverse_lines(self, pairs, frac):
        # The scalar solutions of the inverse pairs, walked a fraction of
        # their length: sub-metre lines, meridians, the equator, lines from
        # a pole and nearly antipodal lines.
        refs = [SCALAR_WGS84.inverse(*p) for p in pairs]
        lines = [(p[0], p[1], r.azi1, frac * r.s12) for p, r in zip(pairs, refs)]
        lat2, lon2 = WGS84.direct_many(*np.array(lines).T)
        for line, la, lo in zip(lines, lat2.tolist(), lon2.tolist()):
            assert_direct_close((la, lo), *line)

    def test_seeded_lines_and_special_cases(self):
        lines = seeded_lines()
        lat2, lon2 = WGS84.direct_many(*lines.T)
        for line, la, lo in zip(lines.tolist(), lat2.tolist(), lon2.tolist()):
            assert_direct_close((la, lo), *line)

    def test_batch_composition_does_not_change_bits(self, monkeypatch):
        # As for `inverse_many`.
        assert_slices_keep_bits(WGS84.direct_many, seeded_lines(), monkeypatch)

    def test_broadcasts(self):
        azi = np.array([[0.0], [45.0], [-180.0]])
        s12 = np.array([0.0, 1e3, 1e6])
        lat2, lon2 = WGS84.direct_many(45.5, 10.2, azi, s12)
        assert lat2.shape == lon2.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert_direct_close((lat2[i, j], lon2[i, j]), 45.5, 10.2, azi[i, 0], s12[j])
