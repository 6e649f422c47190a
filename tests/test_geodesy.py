import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapregister import _geodesic
from mapregister._geodesic import WGS84
from mapregister.errors import OutOfRangeError
from mapregister.geodesy import (
    GeoPoint,
    GeoSegment,
    geodesic_distance,
    geodesic_midpoint,
    point_to_segment_distance,
    polyline_length,
    walk,
)

from oracles import (
    densified_point_to_segment,
    equator_arc,
    quarter_meridian,
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
        p, q = GeoPoint(10.0, 45.0), GeoPoint(11.0, 46.0)
        m = geodesic_midpoint(p, q)
        half = geodesic_distance(p, q) / 2
        assert geodesic_distance(p, m) == pytest.approx(half, abs=1e-6)
        assert geodesic_distance(m, q) == pytest.approx(half, abs=1e-6)

    def test_midpoint_of_identical_points(self):
        p = GeoPoint(5.0, 5.0)
        assert geodesic_midpoint(p, p) == p

    def test_walk_round_trip(self):
        p = GeoPoint(15.0, 47.0)
        q = walk(p, 60.0, 25_000.0)
        assert geodesic_distance(p, q) == pytest.approx(25_000.0, abs=1e-6)


class TestPolylineLength:
    def test_single_point(self):
        assert polyline_length([GeoPoint(3, 4)]) == 0.0

    def test_single_segment(self):
        p, q = GeoPoint(0, 0), GeoPoint(0.5, 0.5)
        assert polyline_length([p, q]) == geodesic_distance(p, q)

    def test_two_equator_degrees(self):
        pts = [GeoPoint(0, 0), GeoPoint(1, 0), GeoPoint(2, 0)]
        assert polyline_length(pts) == pytest.approx(222638.982, abs=2e-3)

    def test_empty_rejected(self):
        with pytest.raises(OutOfRangeError):
            polyline_length([])


class TestPointToSegment:
    def test_endpoint_containment(self):
        s = GeoSegment(GeoPoint(0, 0), GeoPoint(1, 0))
        assert point_to_segment_distance(s.start, s) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_segment(self):
        p = GeoPoint(0.5, 1.0)
        s = GeoSegment(GeoPoint(0, 0), GeoPoint(0, 0))
        assert s.is_degenerate
        assert point_to_segment_distance(p, s) == geodesic_distance(p, s.start)

    def test_long_segment_against_densification(self):
        # ~111 km equatorial segment, point one degree north of its middle.
        p = GeoPoint(0.5, 1.0)
        a, b = GeoPoint(0, 0), GeoPoint(1, 0)
        got = point_to_segment_distance(p, GeoSegment(a, b))
        ref = densified_point_to_segment(geodesic_distance, walk_points, p, a, b)
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
        p = GeoPoint(plon, plat)
        a, b = GeoPoint(alon, alat), GeoPoint(blon, blat)
        got = point_to_segment_distance(p, GeoSegment(a, b))
        ref = densified_point_to_segment(geodesic_distance, walk_points, p, a, b)
        assert got == pytest.approx(ref, abs=0.01)

    def test_never_exceeds_endpoint_distances(self):
        rng = random.Random(99)
        for _ in range(40):
            lat0, lon0 = rng.uniform(-60, 60), rng.uniform(-180, 180)
            p = GeoPoint(lon0, lat0)
            a = GeoPoint(lon0 + rng.uniform(-1, 1), lat0 + rng.uniform(-1, 1))
            b = GeoPoint(lon0 + rng.uniform(-1, 1), lat0 + rng.uniform(-1, 1))
            d = point_to_segment_distance(p, GeoSegment(a, b))
            assert d <= min(geodesic_distance(p, a), geodesic_distance(p, b)) + 1e-9

    def test_long_segment_minimum_at_endpoint(self):
        # Point beyond the start of a ~220 km segment: the nearest point is
        # the start vertex itself, and the densified path must find it.
        a, b = GeoPoint(10.0, 45.0), GeoPoint(12.8, 45.0)
        p = walk(a, 270.0, 35_000.0)  # west of the start
        got = point_to_segment_distance(p, GeoSegment(a, b))
        assert got == pytest.approx(geodesic_distance(p, a), abs=0.01)

    def test_long_segment_interior_minimum(self):
        a, b = GeoPoint(10.0, 45.0), GeoPoint(12.8, 45.0)
        mid = geodesic_midpoint(a, b)
        p = walk(mid, 0.0, 50_000.0)
        got = point_to_segment_distance(p, GeoSegment(a, b))
        ref = densified_point_to_segment(geodesic_distance, walk_points, p, a, b)
        assert got == pytest.approx(ref, abs=0.01)


def _assert_inverse_close(s12, azi1, ref):
    # The array engine calls the scalar engine's atan2, hypot and pow, so
    # only an ulp from a NumPy sin or cos could separate them: 1e-9 m plus
    # 1e-14 of the distance, 1e-10 deg.
    assert abs(s12 - ref.s12) <= 1e-9 + 1e-14 * ref.s12, (s12, ref)
    assert abs((azi1 - ref.azi1 + 180.0) % 360.0 - 180.0) <= 1e-10, (azi1, ref)


class TestSeriesHelpersOnArrays:
    EPS = [0.0, 1e-6, 3.3e-4, 1.1e-3, 0.0016792]

    @pytest.mark.parametrize(
        "helper",
        [_geodesic._a1m1f, _geodesic._c1f, _geodesic._c1pf, _geodesic._a2m1f, _geodesic._c2f,
         WGS84._a3f, WGS84._c3f],
    )
    def test_elementwise_equal_and_argument_untouched(self, helper):
        eps = np.array(self.EPS)
        got = helper(eps)
        assert eps.tolist() == self.EPS
        for i, e in enumerate(self.EPS):
            want = helper(e)
            if isinstance(want, list):
                assert [c if isinstance(c, float) else c[i] for c in got] == want
            else:
                assert got[i] == want

    def test_sin_cos_series(self):
        eps = np.array(self.EPS)
        c = _geodesic._c1f(eps)
        x = np.linspace(-3.0, 3.0, len(self.EPS))
        sx, cx = np.sin(x), np.cos(x)
        for sinp in (True, False):
            got = _geodesic._sin_cos_series(sinp, sx, cx, c, _geodesic._NC1)
            for i in range(len(self.EPS)):
                ci = [v if isinstance(v, float) else v[i] for v in c]
                assert got[i] == _geodesic._sin_cos_series(sinp, sx[i], cx[i], ci, _geodesic._NC1)


#: Pairs on each branch that `inverse_many` hands to the scalar `inverse`.
DELEGATED_PAIRS = {
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


@st.composite
def _pairs(draw):
    # A batch mixing far pairs, short pairs and the delegated cases.
    out = []
    for _ in range(draw(st.integers(1, 12))):
        lat1, lon1 = draw(_lat), draw(_lon)
        kind = draw(st.sampled_from(["far", "near", "special"]))
        if kind == "far":
            out.append((lat1, lon1, draw(_lat), draw(_lon)))
        elif kind == "near":
            dlat, dlon = draw(st.floats(-2, 2)), draw(st.floats(-2, 2))
            out.append((lat1, lon1, min(90.0, max(-90.0, lat1 + dlat)), lon1 + dlon))
        else:
            out.append(draw(st.sampled_from(list(DELEGATED_PAIRS.values()))))
    return out


class TestInverseMany:
    @given(_pairs())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_inverse(self, pairs):
        a = np.array(pairs)
        s12, azi1 = WGS84.inverse_many(a[:, 0], a[:, 1], a[:, 2], a[:, 3])
        assert s12.shape == azi1.shape == (len(pairs),)
        for p, s, z in zip(pairs, s12, azi1):
            _assert_inverse_close(s, z, WGS84.inverse(*p))

    def test_random_pairs_with_long_lines(self):
        rng = np.random.default_rng(5)
        lat1, lat2 = rng.uniform(-90, 90, (2, 2000))
        lon1, lon2 = rng.uniform(-180, 180, (2, 2000))
        near = slice(0, 1000)
        lat2[near] = np.clip(lat1[near] + rng.uniform(-3, 3, 1000), -90, 90)
        lon2[near] = lon1[near] + rng.uniform(-3, 3, 1000)
        s12, azi1 = WGS84.inverse_many(lat1, lon1, lat2, lon2)
        for i in range(2000):
            _assert_inverse_close(s12[i], azi1[i], WGS84.inverse(lat1[i], lon1[i], lat2[i], lon2[i]))

    @pytest.mark.parametrize("name", list(DELEGATED_PAIRS))
    def test_special_branches_use_scalar_path(self, name, monkeypatch):
        g = _geodesic.Geodesic(WGS84.a, WGS84.f)
        calls = []
        scalar = g.inverse
        monkeypatch.setattr(g, "inverse", lambda *args: calls.append(args) or scalar(*args))
        pair = DELEGATED_PAIRS[name]
        general = (30.0, 0.0, -29.0, 150.0)
        s12, azi1 = g.inverse_many(*(np.array([x, y]) for x, y in zip(pair, general)))
        assert calls == [pair]
        assert s12[0] == scalar(*pair).s12 and azi1[0] == scalar(*pair).azi1
        _assert_inverse_close(s12[1], azi1[1], scalar(*general))

    def test_short_line_cancellation(self):
        # One ulp of NumPy's arctan2 or hypot, amplified by the cancellation
        # in sigma12, once moved this 1.4 km line by 1.4e-9 m.
        pair = (35.79953313176809, -15.988751514007987, 35.80830280710825, -16.000014064695705)
        s12, azi1 = WGS84.inverse_many(*(np.array([x]) for x in pair))
        _assert_inverse_close(s12[0], azi1[0], WGS84.inverse(*pair))

    @pytest.mark.parametrize(
        "many, scalar",
        [(_geodesic._atan2_many, math.atan2), (_geodesic._hypot_many, math.hypot), (_geodesic._pow_many, math.pow)],
        ids=["atan2", "hypot", "pow"],
    )
    def test_elementwise_helpers_match_math(self, many, scalar):
        rng = np.random.default_rng(8)
        x, y = rng.uniform(-1.0, 1.0, (2, 4000))
        if scalar is math.pow:
            y = np.full_like(x, 2.0)
        got = many(x, y)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tolist() == [scalar(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert many(x[:0], y[:0]).shape == (0,)

    def test_broadcasts(self):
        lats = np.array([[45.0], [46.0]])
        lons = np.array([10.0, 10.5, 11.0])
        s12, azi1 = WGS84.inverse_many(45.5, 10.2, lats, lons)
        assert s12.shape == azi1.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                _assert_inverse_close(s12[i, j], azi1[i, j], WGS84.inverse(45.5, 10.2, lats[i, 0], lons[j]))
