import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapregister import curves
from mapregister.curves import (
    BandThreshold,
    DiscreteCurve,
    anchor_min_distances,
    build_segments,
    directed_max_hausdorff,
    directed_mean_hausdorff,
    matching_average,
    matching_length,
    max_hausdorff,
    mean_hausdorff,
    source_distance,
    split_at_nearest_vertex,
)
from mapregister.errors import DegenerateCurveError, OutOfRangeError
from mapregister.geodesy import (
    LONG_SEGMENT_M,
    GeoPoint,
    geodesic_distance,
    geodesic_midpoint,
    polyline_length,
    walk,
)

from oracles import scalar_anchor_min_distances
from synth import random_curve


def curve_along(start: GeoPoint, azimuth: float, steps: list[float], name="c") -> DiscreteCurve:
    pts = [start]
    for d in steps:
        pts.append(walk(pts[-1], azimuth, d))
    return build_segments(pts, name)


class TestBuildSegments:
    def test_two_points_split_evenly(self):
        c = curve_along(GeoPoint(10, 45), 90.0, [8000.0])
        assert len(c.segments) == 2
        assert c.segments[0].length == pytest.approx(4000.0, abs=1e-6)
        assert c.segments[1].length == pytest.approx(4000.0, abs=1e-6)

    def test_three_collinear_points_quarter_half_quarter(self):
        c = curve_along(GeoPoint(5, 40), 30.0, [5000.0, 5000.0])
        total = c.length
        assert c.segments[0].length == pytest.approx(total / 4, abs=1e-6)
        assert c.segments[1].length == pytest.approx(total / 2, abs=1e-6)
        assert c.segments[2].length == pytest.approx(total / 4, abs=1e-6)

    def test_equator_degree_segments(self):
        c = build_segments([GeoPoint(0, 0), GeoPoint(1, 0)])
        assert c.segments[0].length == pytest.approx(55659.7, abs=0.1)
        assert c.segments[1].length == pytest.approx(55659.7, abs=0.1)

    def test_length_matches_polyline(self):
        rng = random.Random(8)
        pts = random_curve(rng, "r", n=25)
        c = build_segments(pts, "r")
        assert c.length == pytest.approx(polyline_length(pts), rel=1e-9)

    def test_interior_segment_is_union_of_half_edges(self):
        pts = [GeoPoint(0, 10), GeoPoint(0.3, 10.2), GeoPoint(0.6, 10.1)]
        c = build_segments(pts)
        seg = c.segments[1]
        assert len(seg.pieces) == 2
        assert seg.pieces[0].end == pts[1]
        assert seg.pieces[1].start == pts[1]
        want = geodesic_distance(geodesic_midpoint(pts[0], pts[1]), pts[1]) + geodesic_distance(
            pts[1], geodesic_midpoint(pts[1], pts[2])
        )
        assert seg.length == pytest.approx(want, rel=1e-12)

    def test_consecutive_duplicates_removed(self):
        p, q = GeoPoint(1, 1), GeoPoint(2, 2)
        c = build_segments([p, p, q, q])
        assert c.points == [p, q]

    def test_degenerate_curve_rejected(self):
        p = GeoPoint(1, 1)
        with pytest.raises(DegenerateCurveError):
            build_segments([p, p, p])
        with pytest.raises(DegenerateCurveError):
            build_segments([p])

    def test_edge_lengths_are_chain_edge_distances(self):
        c = build_segments(random_curve(random.Random(4), "r", n=9), "r")
        assert c.edge_lengths == [
            geodesic_distance(p, q) for p, q in zip(c.chain, c.chain[1:])
        ]


class TestAnchorMinDistances:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12), st.sampled_from([800.0, 5000.0]))
    @settings(max_examples=15, deadline=None)
    def test_matches_scalar_reference(self, seed, n_a, n_b, step_m):
        rng = random.Random(seed)
        a = build_segments(random_curve(rng, "A", n=n_a, step_m=step_m), "A")
        start = walk(a.points[0], rng.uniform(0, 360), rng.uniform(0, 4 * step_m))
        b = build_segments(random_curve(rng, "B", n=n_b, start=start, step_m=step_m), "B")
        for got, want in zip(anchor_min_distances(a, b), scalar_anchor_min_distances(a, b)):
            assert abs(got - want) <= 1e-9 + 1e-14 * want

    def test_batches_and_long_edges_match_scalar_reference(self, monkeypatch):
        # More anchors than one batch holds, and a chain edge past
        # LONG_SEGMENT_M, so the densified fallback runs.
        rng = random.Random(12)
        a = build_segments(random_curve(rng, "A", n=9, step_m=20_000.0), "A")
        b = build_segments(random_curve(rng, "B", n=2, start=a.points[3], step_m=350_000.0), "B")
        assert min(b.edge_lengths) > LONG_SEGMENT_M
        monkeypatch.setattr(curves, "ANCHOR_BATCH_PAIRS", 12)
        got = anchor_min_distances(a, b)
        want = scalar_anchor_min_distances(a, b)
        assert len(got) == len(want) == 9
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 + 1e-14 * w

    def test_coincident_anchors_are_exactly_zero(self):
        rng = random.Random(3)
        a = build_segments(random_curve(rng, "A", n=10), "A")
        b = build_segments(a.points[2:7] + random_curve(rng, "B", n=4, start=a.points[6])[1:], "B")
        dists = anchor_min_distances(a, b)
        assert dists[2:7] == [0.0] * 5
        assert all(isinstance(d, float) for d in dists)
        assert anchor_min_distances(a, a) == [0.0] * 10


class TestHausdorff:
    @pytest.fixture()
    def pair(self):
        rng = random.Random(31)
        a = build_segments(random_curve(rng, "A", n=14), "A")
        b = build_segments(random_curve(rng, "B", n=11), "B")
        return a, b

    def test_identity_is_zero(self, pair):
        a, _ = pair
        assert directed_mean_hausdorff(a, a) == 0.0
        assert directed_max_hausdorff(a, a) == 0.0
        assert mean_hausdorff(a, a) == 0.0
        assert max_hausdorff(a, a) == 0.0

    def test_parallel_offset_edges(self):
        # An edge and its copy shifted 10 km due north.
        a0, a1 = GeoPoint(12.0, 46.0), GeoPoint(12.25, 46.0)
        b0, b1 = walk(a0, 0.0, 10_000.0), walk(a1, 0.0, 10_000.0)
        a = build_segments([a0, a1], "A")
        b = build_segments([b0, b1], "B")
        assert directed_mean_hausdorff(a, b) == pytest.approx(10_000.0, abs=5.0)

    def test_directed_max_is_anchor_max(self, pair):
        a, b = pair
        dists = anchor_min_distances(a, b)
        assert directed_max_hausdorff(a, b) == max(dists)

    def test_mean_formula_with_equal_lengths(self):
        a0, a1 = GeoPoint(8.0, 44.0), GeoPoint(8.2, 44.0)
        b0, b1 = walk(a0, 0.0, 5_000.0), walk(a1, 0.0, 5_000.0)
        a = build_segments([a0, a1], "A")
        b = build_segments([b0, b1], "B")
        dab = directed_mean_hausdorff(a, b)
        dba = directed_mean_hausdorff(b, a)
        assert mean_hausdorff(a, b) == pytest.approx((dab + dba) / 2, rel=1e-6)

    def test_symmetry_of_combined_metrics(self, pair):
        a, b = pair
        assert mean_hausdorff(a, b) == pytest.approx(mean_hausdorff(b, a), rel=1e-12)
        assert max_hausdorff(a, b) == max_hausdorff(b, a)

    def test_directed_mean_below_directed_max(self, pair):
        a, b = pair
        assert directed_mean_hausdorff(a, b) <= directed_max_hausdorff(a, b) + 1e-12
        assert mean_hausdorff(a, b) <= max_hausdorff(a, b) + 1e-12

    def test_refinement_stability(self, pair):
        a, b = pair
        before = directed_mean_hausdorff(a, b)
        refined_pts: list[GeoPoint] = []
        for p, q in zip(a.points, a.points[1:]):
            refined_pts.append(p)
            refined_pts.append(geodesic_midpoint(p, q))
        refined_pts.append(a.points[-1])
        refined = build_segments(refined_pts, "A+")
        after = directed_mean_hausdorff(refined, b)
        max_edge = max(
            geodesic_distance(p, q) for p, q in zip(a.points, a.points[1:])
        )
        assert abs(after - before) <= max_edge


class TestMatching:
    @pytest.fixture()
    def pair(self):
        rng = random.Random(77)
        start = GeoPoint(14.0, 47.0)
        a = build_segments(random_curve(rng, "A", n=16, start=start), "A")
        b = build_segments(random_curve(rng, "B", n=16, start=walk(start, 90.0, 3_000.0)), "B")
        return a, b

    def test_identity_full_match(self, pair):
        a, _ = pair
        lm, pct = matching_length(a, a, BandThreshold.from_km(0.001))
        assert lm == a.length
        assert pct == 100.0

    def test_huge_band_matches_everything(self, pair):
        a, b = pair
        lm, pct = matching_length(a, b, BandThreshold.from_km(100_000.0))
        assert lm == a.length
        assert pct == 100.0

    def test_disjoint_far_curves_zero(self):
        a = build_segments([GeoPoint(0, 0), GeoPoint(0.1, 0)], "A")
        b = build_segments([GeoPoint(10, 50), GeoPoint(10.1, 50)], "B")
        lm, pct = matching_length(a, b, BandThreshold.from_km(10.0))
        assert lm == 0.0
        assert pct == 0.0

    def test_monotone_in_threshold(self, pair):
        a, b = pair
        values = [
            matching_length(a, b, BandThreshold.from_km(km))[0]
            for km in (0.5, 1, 2, 5, 10, 20, 50)
        ]
        assert values == sorted(values)
        assert all(0.0 <= v <= a.length for v in values)

    def test_average_formula(self, pair):
        a, b = pair
        band = BandThreshold.from_km(5.0)
        lab, _ = matching_length(a, b, band)
        lba, _ = matching_length(b, a, band)
        avg, pct = matching_average(a, b, band)
        assert avg == pytest.approx((lab + lba) / 2, rel=1e-12)
        assert pct == pytest.approx(100 * (lab + lba) / (a.length + b.length), rel=1e-12)

    def test_one_sided_zero_and_full(self):
        # A tight band around B's own anchors: B matches itself fully while a
        # distant A contributes nothing.
        a = build_segments([GeoPoint(0, 0), GeoPoint(0.1, 0)], "A")
        b = build_segments([GeoPoint(5, 40), GeoPoint(5.1, 40)], "B")
        band = BandThreshold.from_km(1.0)
        lab, _ = matching_length(a, b, band)
        lba, _ = matching_length(b, b, band)
        assert lab == 0.0
        avg, _ = matching_average(b, b, band)
        assert avg == b.length

    def test_band_threshold_validation(self):
        with pytest.raises(OutOfRangeError):
            BandThreshold(0.0)
        with pytest.raises(OutOfRangeError):
            BandThreshold(-5.0)


class TestSourceDistance:
    def test_same_source(self):
        a = build_segments([GeoPoint(0, 0), GeoPoint(1, 0)], "A")
        b = build_segments([GeoPoint(0, 0), GeoPoint(0, 1)], "B")
        assert source_distance(a, b) == 0.0

    def test_equator_degree(self):
        a = build_segments([GeoPoint(0, 0), GeoPoint(0, 1)], "A")
        b = build_segments([GeoPoint(1, 0), GeoPoint(1, 1)], "B")
        assert source_distance(a, b) == pytest.approx(111.319, abs=1e-3)


class TestSplit:
    def test_split_at_interior_vertex(self):
        pts = [GeoPoint(x, 45.0) for x in (0.0, 0.1, 0.2, 0.3, 0.4)]
        c = build_segments(pts, "D")
        upper, lower = split_at_nearest_vertex(c, GeoPoint(0.21, 45.05), ("D1", "D2"))
        assert upper.name == "D1" and lower.name == "D2"
        assert upper.points == pts[:3]
        assert lower.points == pts[2:]

    def test_split_at_endpoint_rejected(self):
        pts = [GeoPoint(x, 45.0) for x in (0.0, 0.1, 0.2)]
        c = build_segments(pts, "D")
        with pytest.raises(DegenerateCurveError):
            split_at_nearest_vertex(c, GeoPoint(-1.0, 45.0))
