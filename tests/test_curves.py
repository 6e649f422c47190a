import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mapregister import _geodesic, curves
from mapregister._geodesic import WGS84
from mapregister.curves import (
    BandThreshold,
    DiscreteCurve,
    DistanceProfile,
    anchor_min_distances,
    build_segments,
    directed_max_hausdorff,
    directed_mean_hausdorff,
    matching_length,
    max_hausdorff,
    mean_hausdorff,
    source_distance,
    split_at_nearest_vertex,
)
from mapregister.errors import DegenerateCurveError, OutOfRangeError
from mapregister.geodesy import (
    DENSIFY_STEP_M,
    LONG_SEGMENT_M,
    GeoPoint,
    densify,
    geodesic_distance,
    normalize_lon_many,
    walk,
)
from mapregister.pipeline import compare_pair
from mapregister.report import MatchingBand

from oracles import (
    CHORD_SHORTFALL_PER_M2,
    DIRECT_REL,
    ENGINE_ABS_M,
    INVERSE_REL,
    SCALAR_WGS84,
    assert_direct_close,
    assert_inverse_close,
    full_anchor_min_distances,
    geodesic_midpoint,
    polyline_length,
    scalar_anchor_min_distances,
    stepped_min_distances,
)
from synth import random_curve, traced_peak


def curve_along(start: GeoPoint, azimuth: float, steps: list[float], name="c") -> DiscreteCurve:
    pts = [start]
    for d in steps:
        pts.append(walk(pts[-1], azimuth, d))
    return build_segments(pts, name)


def chain_points(c: DiscreteCurve) -> list[GeoPoint]:
    return [GeoPoint(lon, lat) for lon, lat in c.chain.tolist()]


def assert_half_edges(c: DiscreteCurve):
    # Both halves of a vertex edge are s12 / 2 of that edge bit for bit,
    # and each is within the direct allowance of its re-measured chain edge.
    chain = chain_points(c)
    for k, (p, q) in enumerate(zip(chain[::2], chain[2::2])):
        s12 = geodesic_distance(p, q)
        assert c.edge_lengths[2 * k] == c.edge_lengths[2 * k + 1] == s12 / 2
        for a, b in (chain[2 * k : 2 * k + 2], chain[2 * k + 1 : 2 * k + 3]):
            assert abs(geodesic_distance(a, b) - s12 / 2) <= ENGINE_ABS_M + DIRECT_REL * s12, (k, s12)


def assert_matches_scalar_build(pts):
    # Every geodesic the build solves (an inverse per edge, a direct to its
    # midpoint) is within the engine allowance of the scalar engine, the
    # half-edge lengths are the halves of the edges, and the curve is
    # assembled from them exactly.
    c = build_segments(pts, "r")
    chain = chain_points(c)
    assert c.points == chain[::2] == [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    for p, m, q in zip(chain[::2], chain[1::2], chain[2::2]):
        s12, azi1 = WGS84.inverse(p.lat, p.lon, q.lat, q.lon)
        assert_inverse_close(s12, azi1, SCALAR_WGS84.inverse(p.lat, p.lon, q.lat, q.lon))
        assert_direct_close((m.lat, m.lon), p.lat, p.lon, azi1, s12 / 2)
    assert_half_edges(c)
    left, right = c.edge_lengths[0::2].tolist(), c.edge_lengths[1::2].tolist()
    assert c.segment_lengths.tolist() == left[:1] + [r + l for r, l in zip(right, left[1:])] + right[-1:]
    assert [s.length for s in c.segments] == c.segment_lengths.tolist()
    assert c.length == sum(c.segment_lengths.tolist())


def assert_close_to_scalar(got, want):
    # Anchor distances within the inverse's distance allowance of the
    # scalar path's: the array path solves the same geodesics with the
    # array engine and takes its plane coordinates with NumPy's sin, cos and
    # hypot.
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= ENGINE_ABS_M + INVERSE_REL * w, (g, w)


def assert_same_curve(got: DiscreteCurve, want: DiscreteCurve):
    assert got.name == want.name
    assert got.points == want.points
    assert got.chain.tolist() == want.chain.tolist()
    assert got.edge_lengths.tolist() == want.edge_lengths.tolist()
    assert got.segment_lengths.tolist() == want.segment_lengths.tolist()
    assert got.segments == want.segments
    assert got.length == want.length


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
        # The anchor sits between the midpoints of its two edges in the
        # chain, and its segment is the two chain edges that meet there.
        m01, m12 = geodesic_midpoint(pts[0], pts[1]), geodesic_midpoint(pts[1], pts[2])
        assert chain_points(c) == [pts[0], m01, pts[1], m12, pts[2]]
        assert c.segments[1].anchor == pts[1]
        assert c.segment_lengths[1] == c.edge_lengths[1] + c.edge_lengths[2]
        want = geodesic_distance(m01, pts[1]) + geodesic_distance(pts[1], m12)
        assert c.segments[1].length == pytest.approx(want, rel=1e-12)

    def test_consecutive_duplicates_removed(self):
        p, q = GeoPoint(1, 1), GeoPoint(2, 2)
        c = build_segments([p, p, q, q])
        assert c.points == [p, q]

    def test_array_input_and_points_rebuild_the_chain(self):
        # An (n, 2) array of unnormalized longitudes builds the curve of its
        # GeoPoints, and normalizing a normalized longitude changes nothing,
        # so a curve's `points` rebuild exactly its chain.
        lon = np.random.default_rng(7).uniform(-1000.0, 1000.0, 10**6)
        once = normalize_lon_many(lon)
        assert (normalize_lon_many(once) == once).all()
        pts = random_curve(random.Random(7), "c", n=30, start=GeoPoint(179.99, 10.0))
        shifted = [(p.lon + 360.0 * (k % 3 - 1), p.lat) for k, p in enumerate(pts)]
        c = build_segments(np.array(shifted), "c")
        assert_same_curve(c, build_segments([GeoPoint(lon, lat) for lon, lat in shifted], "c"))
        assert build_segments(c.points, "c").chain.tolist() == c.chain.tolist()

    def test_degenerate_curve_rejected(self):
        p = GeoPoint(1, 1)
        with pytest.raises(DegenerateCurveError):
            build_segments([p, p, p])
        with pytest.raises(DegenerateCurveError):
            build_segments([p])

    def test_edge_lengths_are_chain_edge_distances(self):
        assert_half_edges(build_segments(random_curve(random.Random(4), "r", n=9), "r"))

    def test_one_engine_call_per_step(self):
        # Edges, then their midpoints; the halves take the edges' lengths.
        pts = random_curve(random.Random(4), "r", n=9)
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse, \
                mock.patch.object(WGS84, "direct_many", wraps=WGS84.direct_many) as direct:
            build_segments(pts, "r")
        assert (inverse.call_count, direct.call_count) == (1, 1)

    def test_long_curve_in_bounded_memory(self, monkeypatch):
        # 100,000 points: the engine solves them in slices, so the
        # transients stay bounded (one whole solve of every edge peaks near
        # 180 MiB), and the slices give the bits of one whole slice.
        pts = np.cumsum(np.random.default_rng(23).normal(0.0, 0.01, (100_000, 2)), axis=0) + (10.0, 45.0)
        c, peak = traced_peak(lambda: build_segments(pts, "long"))
        assert peak < 64 * 2**20
        monkeypatch.setattr(_geodesic, "_SLICE", 2 * len(pts))
        whole = build_segments(pts, "long")
        assert c.chain.tobytes() == whole.chain.tobytes()
        assert c.edge_lengths.tobytes() == whole.edge_lengths.tobytes() and c.length == whole.length

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from([0.01, 800.0, 5000.0, 300_000.0]))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_reference(self, seed, n, step_m):
        pts = random_curve(random.Random(seed), "r", n=n, step_m=step_m)
        assert_matches_scalar_build(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            # along a meridian, along the equator, across the antimeridian
            [GeoPoint(5.0, lat) for lat in (10.0, 10.5, 11.5)],
            [GeoPoint(lon, 0.0) for lon in (0.0, 0.4, 1.0)],
            [GeoPoint(179.9, 10.0), GeoPoint(-179.95, 10.02), GeoPoint(-179.8, 10.0)],
            # through a pole, and nearly antipodal vertices
            [GeoPoint(0.0, 89.5), GeoPoint(0.0, 90.0), GeoPoint(180.0, 89.5)],
            [GeoPoint(5.0, 10.0), GeoPoint(-175.3, -10.2), GeoPoint(-170.0, -12.0)],
            # vertices an ulp apart, so a midpoint lands on a vertex
            [GeoPoint(10.0, 45.0), GeoPoint(10.0, math.nextafter(45.0, 46.0)), GeoPoint(10.0, 45.001)],
            # consecutive duplicates
            [GeoPoint(1.0, 1.0), GeoPoint(1.0, 1.0), GeoPoint(2.0, 2.0), GeoPoint(2.0, 2.0), GeoPoint(3.0, 2.0)],
        ],
        ids=["meridian", "equator", "antimeridian", "pole", "antipodal", "ulp", "duplicates"],
    )
    def test_special_curves_match_scalar_reference(self, pts):
        assert_matches_scalar_build(pts)


def pruning_case(kind: str, rng: random.Random) -> tuple[list[GeoPoint], list[GeoPoint]]:
    # Vertices of two curves A and B for the pruned anchor pass.
    n_a, n_b = rng.randint(2, 12), rng.randint(2, 12)
    step = rng.choice([300.0, 5_000.0, 40_000.0])
    a = random_curve(rng, "A", n=n_a, step_m=step)
    if kind == "near":
        start = walk(a[0], rng.uniform(0, 360), rng.uniform(0, 4 * step))
        return a, random_curve(rng, "B", n=n_b, start=start, step_m=step)
    if kind == "far":
        # Past the pi/2 gate of the skip test (b pi / 2 is about 10,000 km),
        # up to nearly antipodal.
        start = walk(a[0], rng.uniform(0, 360), rng.uniform(10_050_000.0, 19_950_000.0))
        return a, random_curve(rng, "B", n=n_b, start=start, step_m=step)
    if kind == "polar":
        pole = GeoPoint(rng.uniform(-180, 180), rng.choice([-90.0, 90.0]))
        start = walk(pole, rng.uniform(0, 360), rng.uniform(0, 2 * step))
        a = random_curve(rng, "A", n=n_a, start=start, step_m=step)
        return a, random_curve(rng, "B", n=n_b, start=pole, step_m=step)
    if kind == "antimeridian":
        start = GeoPoint(rng.choice([-1.0, 1.0]) * rng.uniform(179.5, 180.0), rng.uniform(-70, 70))
        a = random_curve(rng, "A", n=n_a, start=start, step_m=step, heading=rng.choice([90.0, 270.0]))
        start = walk(start, rng.uniform(0, 360), rng.uniform(0, 2 * step))
        return a, random_curve(rng, "B", n=n_b, start=start, step_m=step, heading=rng.choice([90.0, 270.0]))
    if kind == "shared":
        # B retraces part of A and turns back: anchors on B's vertices and
        # midpoints, and chain points that repeat within B.
        i = rng.randrange(n_a - 1)
        j = rng.randrange(i + 2, n_a + 1)
        return a, a[i:j] + a[j - 2 :: -1][: rng.randint(1, j - 1)]
    if kind == "self":
        return a, a
    # Chain edges (half a vertex step) past LONG_SEGMENT_M.
    start = walk(a[0], rng.uniform(0, 360), rng.uniform(0, 50_000.0))
    return a, random_curve(rng, "B", n=rng.randint(2, 3), start=start, step_m=rng.uniform(210_000.0, 500_000.0))


def far_apart_pair() -> tuple[DiscreteCurve, DiscreteCurve]:
    # Two 60-vertex curves at 2 km steps, B starting 9,500 km due east of
    # A: past the reach where the skip test keeps every edge.
    rng = random.Random(3)
    start = GeoPoint(10.0, 0.0)
    a = build_segments(random_curve(rng, "A", n=60, start=start), "A")
    b = build_segments(random_curve(rng, "B", n=60, start=walk(start, 90.0, 9_500_000.0)), "B")
    return a, b


class TestAnchorMinDistances:
    @given(
        st.sampled_from(["near", "far", "polar", "antimeridian", "shared", "self", "long"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 40, curves.ANCHOR_BATCH_PAIRS]),
    )
    @settings(max_examples=80, deadline=None)
    def test_pruned_pass_equals_full_pass(self, kind, seed, batch_pairs):
        a_pts, b_pts = pruning_case(kind, random.Random(seed))
        a, b = build_segments(a_pts, "A"), build_segments(b_pts, "B")
        with mock.patch.object(curves, "ANCHOR_BATCH_PAIRS", batch_pairs), \
                mock.patch.object(_geodesic, "_SLICE", batch_pairs), \
                mock.patch.object(WGS84, "_inverse_slice", wraps=WGS84._inverse_slice) as inverse:
            got = anchor_min_distances(a, b), anchor_min_distances(b, a), anchor_min_distances(a, a)
        assert max(np.broadcast(*c.args).size for c in inverse.call_args_list) <= batch_pairs
        assert got == (full_anchor_min_distances(a, b), full_anchor_min_distances(b, a), [0.0] * len(a.points))

    def test_skip_test_spares_most_projections(self):
        # Every pair the pass sends to the engine counts: the ends of the
        # kept edges.
        rng = random.Random(5)
        a = build_segments(random_curve(rng, "A", n=40), "A")
        b = build_segments(random_curve(rng, "B", n=40, start=a.points[5]), "B")
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse:
            got = anchor_min_distances(a, b)
        pairs = sum(np.broadcast(*c.args).size for c in inverse.call_args_list)
        assert pairs < 0.25 * len(a.points) * len(b.chain)
        assert got == full_anchor_min_distances(a, b)

    def test_skip_test_keeps_working_on_a_long_chain(self):
        # A 12,068 km chain of 40 km steps: the reach of an edge comes from
        # the chords of its ends, not from the chain length between it and
        # the anchor's nearest point, so edges far along the chain but near
        # in space are still skipped.
        rng = random.Random(11)
        a = build_segments(random_curve(rng, "A", n=300, start=GeoPoint(10.0, 45.0), step_m=40_000.0), "A")
        b = build_segments(random_curve(rng, "B", n=300, start=GeoPoint(10.1, 45.1), step_m=40_000.0), "B")
        assert 12_000_000.0 < b.length < 12_100_000.0
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse:
            got = anchor_min_distances(a, b)
        pairs = sum(np.broadcast(*c.args).size for c in inverse.call_args_list)
        assert pairs < 0.05 * len(a.points) * len(b.chain)
        assert got == full_anchor_min_distances(a, b)

    def test_engine_calls_do_not_grow_with_chord_batches(self):
        # 200 anchors against 799 chain points are 10 chord batches at the
        # default ANCHOR_BATCH_PAIRS, and the pass still makes one engine
        # call, for the ends of the kept edges.
        rng = random.Random(8)
        a = build_segments(random_curve(rng, "A", n=200, step_m=500.0), "A")
        b = build_segments(random_curve(rng, "B", n=400, start=a.points[0], step_m=500.0), "B")
        assert math.ceil(len(a.points) / (curves.ANCHOR_BATCH_PAIRS // len(b.chain))) == 10
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse, \
                mock.patch.object(WGS84, "direct_many", wraps=WGS84.direct_many) as direct:
            got = anchor_min_distances(a, b)
        assert (inverse.call_count, direct.call_count) == (1, 0)
        assert got == full_anchor_min_distances(a, b)

    def test_far_apart_curves_fold_in_bounded_batches(self):
        # Every edge is kept, and the kept edges are projected in folds of
        # fewer than ANCHOR_BATCH_PAIRS pending edges plus one chord batch.
        a, b = far_apart_pair()
        with mock.patch.object(curves, "ANCHOR_BATCH_PAIRS", 256), \
                mock.patch.object(curves, "origin_to_chord", wraps=curves.origin_to_chord) as folded:
            got = anchor_min_distances(a, b)
        sizes = [np.broadcast(*c.args).size for c in folded.call_args_list]
        assert sum(sizes) == len(a.points) * (len(b.chain) - 1)
        assert len(sizes) > 1 and max(sizes) < 2 * 256
        assert got == full_anchor_min_distances(a, b)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12), st.sampled_from([800.0, 5000.0]))
    @settings(max_examples=15, deadline=None)
    def test_matches_scalar_reference(self, seed, n_a, n_b, step_m):
        rng = random.Random(seed)
        a = build_segments(random_curve(rng, "A", n=n_a, step_m=step_m), "A")
        start = walk(a.points[0], rng.uniform(0, 360), rng.uniform(0, 4 * step_m))
        b = build_segments(random_curve(rng, "B", n=n_b, start=start, step_m=step_m), "B")
        assert_close_to_scalar(anchor_min_distances(a, b), scalar_anchor_min_distances(a, b))

    def test_planar_chord_within_stated_bound(self):
        # Curves of two vertices with chain edges up to 8.1 km, the longest
        # in any compared curve of the benchmark workloads, and 40 anchors
        # each up to 80 km off them: every distance falls short of the
        # ground truth by at most CHORD_SHORTFALL_PER_M2 d L^2 (11 mm at
        # 80 km from an 8.1 km edge), less the truth's finest step.
        rng = random.Random(16)
        for edge_m in [8_100.0] + [rng.uniform(500.0, 8_100.0) for _ in range(11)]:
            start = GeoPoint(rng.uniform(-180, 180), rng.uniform(-85, 85))
            az = rng.uniform(0, 360)
            b = build_segments([start, walk(start, az, 2 * edge_m)], "B")
            along = [walk(start, az, rng.uniform(-0.25, 1.25) * 2 * edge_m) for _ in range(40)]
            a = build_segments([walk(q, rng.uniform(0, 360), rng.uniform(0, 80_000.0)) for q in along], "A")
            got = np.array(anchor_min_distances(a, b))
            want = np.array(stepped_min_distances(a.chain[::2, 1], a.chain[::2, 0], b.chain[:, 1], b.chain[:, 0]))
            assert (got <= want + 1e-6).all()
            assert (want - got <= CHORD_SHORTFALL_PER_M2 * want * b.edge_lengths.max() ** 2 + 1e-4).all()

    def test_batches_and_long_edges_match_scalar_reference(self, monkeypatch):
        # More anchors than one chord batch holds, engine slices of 12
        # elements, and chain edges past LONG_SEGMENT_M, so the pass runs on
        # their sub-edges.
        rng = random.Random(12)
        a = build_segments(random_curve(rng, "A", n=9, step_m=20_000.0), "A")
        b = build_segments(random_curve(rng, "B", n=2, start=a.points[3], step_m=350_000.0), "B")
        assert min(b.edge_lengths) > LONG_SEGMENT_M
        monkeypatch.setattr(curves, "ANCHOR_BATCH_PAIRS", 12)
        monkeypatch.setattr(_geodesic, "_SLICE", 12)
        got = anchor_min_distances(a, b)
        want = scalar_anchor_min_distances(a, b)
        assert len(got) == 9
        assert_close_to_scalar(got, want)

    def test_coincident_anchors_are_exactly_zero(self):
        rng = random.Random(3)
        a = build_segments(random_curve(rng, "A", n=10), "A")
        b = build_segments(a.points[2:7] + random_curve(rng, "B", n=4, start=a.points[6])[1:], "B")
        dists = anchor_min_distances(a, b)
        assert dists[2:7] == [0.0] * 5
        assert all(isinstance(d, float) for d in dists)
        assert anchor_min_distances(a, a) == [0.0] * 10


class TestAnchorMinDistancesMany:
    @staticmethod
    def directions(seed: int, kinds) -> list[tuple[DiscreteCurve, DiscreteCurve]]:
        rng = random.Random(seed)
        out = []
        for kind in kinds:
            a_pts, b_pts = pruning_case(kind, rng)
            a, b = build_segments(a_pts, "A"), build_segments(b_pts, "B")
            out += [(a, b), (b, a)]
        return out

    def test_equals_one_direction_at_a_time(self):
        # Every kind of direction, chain edges past LONG_SEGMENT_M among
        # them, with the shared engine call cut into slices.
        dirs = self.directions(21, ["near", "far", "polar", "antimeridian", "shared", "self", "long"])
        assert any(b.edge_lengths.max() > LONG_SEGMENT_M for _, b in dirs)
        want = [anchor_min_distances(a, b) for a, b in dirs]
        batch = 12
        assert sum(a.point_count for a, _ in dirs) > 3 * batch
        with mock.patch.object(curves, "ANCHOR_BATCH_PAIRS", batch), \
                mock.patch.object(_geodesic, "_SLICE", batch), \
                mock.patch.object(WGS84, "_inverse_slice", wraps=WGS84._inverse_slice) as inverse:
            got = curves.anchor_min_distances_many(dirs)
        sizes = [np.broadcast(*c.args).size for c in inverse.call_args_list]
        assert max(sizes) <= batch and sizes.count(batch) >= 3
        assert got == want

    def test_one_engine_call_for_all_directions(self):
        # Without long edges, one call for every kept end.
        dirs = self.directions(22, ["near", "polar", "antimeridian", "shared", "self"] * 2)
        want = [anchor_min_distances(a, b) for a, b in dirs]
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse:
            got = curves.anchor_min_distances_many(dirs)
        assert inverse.call_count == 1
        assert got == want

    def test_folds_across_directions_change_no_bit(self):
        # Folds that cut across directions and chord batches, down to one
        # pending edge, give the default pass's bits; a fold holds fewer
        # than ANCHOR_BATCH_PAIRS pending edges plus one chord batch.  The
        # "far" kind and the far-apart pair keep every edge.
        a, b = far_apart_pair()
        dirs = self.directions(21, ["near", "far", "polar", "antimeridian", "shared", "self", "long"])
        dirs += [(a, b), (b, a)]
        m = max(len(curves._split_long_edges(d.chain, d.edge_lengths)[0]) for _, d in dirs)
        want = curves.anchor_min_distances_many(dirs)
        for batch in (1, 7, 64):
            with mock.patch.object(curves, "ANCHOR_BATCH_PAIRS", batch), \
                    mock.patch.object(curves, "origin_to_chord", wraps=curves.origin_to_chord) as folded:
                got = curves.anchor_min_distances_many(dirs)
            assert max(np.broadcast(*c.args).size for c in folded.call_args_list) < batch + max(batch, m)
            assert got == want

    def test_no_directions_make_no_engine_call(self):
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse:
            assert curves.anchor_min_distances_many([]) == []
        assert inverse.call_count == 0


#: Hypothesis phases of the long-edge properties: shrinking a failure
#: replays their slow examples for minutes, and a smaller seed reads no
#: better than the failing one, so a failure is reported as found.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


def two_long_edges() -> tuple[DiscreteCurve, DiscreteCurve]:
    # 200 anchors around a curve whose chain edges are 190 km and 101 km
    # long: its first vertex, two `densify` samples of its first edge, a
    # point near that edge's end, its second vertex, and points along it
    # and up to 60 km off it.
    rng = random.Random(7)
    p0 = GeoPoint(20.0, 45.0)
    p1 = walk(p0, 80.0, 380_000.0)
    b = build_segments([p0, p1, walk(p1, 140.0, 202_000.0)], "B")
    assert [round(x / 1000) for x in b.edge_lengths] == [190, 190, 101, 101]
    lat, lon, _ = densify(p0.lat, p0.lon, *b.chain[1, ::-1])
    anchors = [p0, GeoPoint(lon[1], lat[1]), GeoPoint(lon[57], lat[57]), walk(p0, 80.0, 190_000.0), p1]
    while len(anchors) < 200:
        q = walk(p0, 80.0, rng.uniform(-20_000.0, 400_000.0))
        anchors.append(walk(q, rng.uniform(0, 360), rng.uniform(0, 60_000.0)))
    return build_segments(anchors, "A"), b


def assert_within_a_millimetre(got, want):
    assert len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-3, max(zip(got, want), key=lambda gw: abs(gw[0] - gw[1]))


class TestLongEdges:
    # Edges longer than LONG_SEGMENT_M are measured as the sub-edges
    # between their densification samples, about 1 km each.  The ground
    # truth (`stepped_min_distances`) steps along the edges with the array
    # engine and shares no code with the pass or the scalar references.

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(LONG_SEGMENT_M + 1.0, 400_000.0),
        st.integers(1, 3),
    )
    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    def test_matches_scalar_point_to_segment(self, seed, length_m, per_kind):
        # A curve of two vertices whose two chain edges are each length_m
        # long, and anchors before, beyond and beside its first chain edge,
        # on that edge's densification samples and on its end, in batches
        # of one or two anchors.
        rng = random.Random(seed)
        b, anchors = long_edge_case(rng, length_m, per_kind, 60_000.0, 60_000.0)
        a = build_segments(anchors, "A")
        with mock.patch.object(curves, "ANCHOR_BATCH_PAIRS", 2 * int(length_m // DENSIFY_STEP_M + 2)):
            got = anchor_min_distances(a, b)
        assert_close_to_scalar(got, scalar_anchor_min_distances(a, b))
        assert got[3::4] == [0.0] * per_kind  # on a sample
        assert got[-1] == 0.0  # on the end

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(LONG_SEGMENT_M + 1_000.0, 600_000.0),
        st.integers(1, 2),
    )
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    def test_within_a_millimetre_of_ground_truth(self, seed, length_m, per_kind):
        rng = random.Random(seed)
        b, anchors = long_edge_case(rng, length_m, per_kind, 80_000.0, 0.2 * length_m)
        anchors += [GeoPoint(lon, lat) for lon, lat in b.chain.tolist()]
        lat, lon = np.array([q.lat for q in anchors]), np.array([q.lon for q in anchors])
        a = build_segments(anchors, "A")
        got = anchor_min_distances(a, b)
        assert_within_a_millimetre(got, stepped_min_distances(lat, lon, b.chain[:, 1], b.chain[:, 0]))
        assert got[3 : 4 * per_kind : 4] == [0.0] * per_kind  # on a sample
        assert got[-4:] == [0.0] * 4  # on the first edge's end and the chain points

    def test_two_long_edges_within_a_millimetre_of_ground_truth(self):
        a, b = two_long_edges()
        want = stepped_min_distances(a.chain[::2, 1], a.chain[::2, 0], b.chain[:, 1], b.chain[:, 0])
        got = anchor_min_distances(a, b)
        assert_within_a_millimetre(got, want)
        assert [got[k] for k in (0, 1, 2, 4)] == [0.0] * 4  # on the vertices and on samples

    def test_skip_test_spares_most_samples(self):
        # The pass projects few of the anchor x chain-point pairs, the
        # chain points including the samples of the long edges, and solves
        # none of them twice.
        a, b = two_long_edges()
        points = 1 + sum(len(densify(*b.chain[k, ::-1], *b.chain[k + 1, ::-1])[0]) - 1 for k in range(4))
        with mock.patch.object(curves, "plane_coords", wraps=curves.plane_coords) as projected:
            got = anchor_min_distances(a, b)
        pairs = [np.broadcast_arrays(*c.args) for c in projected.call_args_list]
        pairs = [tuple(x) for args in pairs for x in zip(*(v.ravel().tolist() for v in args))]
        assert len(pairs) < 0.05 * len(a.points) * points
        assert len(set(pairs)) == len(pairs)  # no (anchor, chain point) pair solved twice
        assert got == full_anchor_min_distances(a, b)

    def test_densify_runs_of_k_edges(self):
        # One call on K edges gives each edge's run in turn, with the bits
        # of a call on that edge alone: distances 0, DENSIFY_STEP_M, ...
        # and the edge's length last, the ends exactly as given.  Edges of
        # 0 m, under a step, and up to 300 km.
        rng = np.random.default_rng(4)
        lat1, lon1 = rng.uniform(-70, 70, 12), rng.uniform(-180, 180, 12)
        lat2, lon2 = lat1 + rng.uniform(-2, 2, 12), lon1 + rng.uniform(-2, 2, 12)
        lat2[0], lon2[0] = lat1[0], lon1[0]
        lat2[1], lon2[1] = lat1[1] + 0.005, lon1[1]
        runs = [densify(*(float(v[k]) for v in (lat1, lon1, lat2, lon2))) for k in range(12)]
        got = densify(lat1, lon1, lat2, lon2)
        for want, x in zip(zip(*runs), got):
            assert x.tobytes() == np.concatenate(want).tobytes()
        s12 = WGS84.inverse_many(lat1, lon1, lat2, lon2)[0]
        for k, (lat, lon, dists) in enumerate(runs):
            assert dists[:-1].tolist() == (DENSIFY_STEP_M * np.arange(len(dists) - 1)).tolist()
            assert dists[-1] == s12[k] and all(dists[:-1] < s12[k])
            assert (lat[0], lon[0], lat[-1], lon[-1]) == (lat1[k], lon1[k], lat2[k], lon2[k])

    def test_one_engine_call_of_each_kind_splits_a_chain(self):
        # One `inverse_many` and one `direct_many` split every long edge of
        # a chain (190, 190, 75, 75, 125 and 125 km), into the chain and
        # lengths that `densify` gives edge by edge; a chain without a long
        # edge makes no engine call.
        p0 = GeoPoint(20.0, 45.0)
        p1 = walk(p0, 80.0, 380_000.0)
        p2 = walk(p1, 140.0, 150_000.0)
        b = build_segments([p0, p1, p2, walk(p2, 200.0, 250_000.0)], "B")
        points, edges = [b.chain[:1]], []
        for k, length in enumerate(b.edge_lengths.tolist()):
            if length > LONG_SEGMENT_M:
                lat, lon, dists = densify(*b.chain[k, ::-1], *b.chain[k + 1, ::-1])
                points.append(np.stack([lon, lat], axis=1)[1:])
                edges.append(np.diff(dists))
            else:
                points.append(b.chain[k + 1 : k + 2])
                edges.append(b.edge_lengths[k : k + 1])
        short = build_segments(random_curve(random.Random(3), "C", n=30, step_m=100_000.0))
        assert short.edge_lengths.max() < LONG_SEGMENT_M < b.edge_lengths.max()
        for curve, calls in ((b, 1), (short, 0)):
            with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse, \
                    mock.patch.object(WGS84, "direct_many", wraps=WGS84.direct_many) as direct:
                chain, lengths = curves._split_long_edges(curve.chain, curve.edge_lengths)
            assert inverse.call_count == direct.call_count == calls
        assert chain.tobytes() == short.chain.tobytes() and lengths.tobytes() == short.edge_lengths.tobytes()
        chain, lengths = curves._split_long_edges(b.chain, b.edge_lengths)
        assert chain.tobytes() == np.concatenate(points).tobytes()
        assert lengths.tobytes() == np.concatenate(edges).tobytes()


def long_edge_case(rng: random.Random, length_m: float, per_kind: int, off_m: float, beyond_m: float):
    # A curve B of two vertices whose chain edges are each length_m long,
    # and anchors around its first chain edge: per kind, one up to beyond_m
    # before its start, one up to beyond_m past its end, one up to off_m
    # beside it and one on an interior densification sample (a walk of
    # length 0 need not end exactly on its start); then the edge's end.
    start = GeoPoint(rng.uniform(-180, 180), rng.uniform(-70, 70))
    b = build_segments([start, walk(start, rng.uniform(0, 360), 2 * length_m)], "B")
    start, end = chain_points(b)[:2]
    inv = WGS84.inverse(start.lat, start.lon, end.lat, end.lon)
    samples = int(inv.s12 // DENSIFY_STEP_M) + 1
    anchors = []
    for _ in range(per_kind):
        anchors += [
            walk(start, inv.azi1 + 180.0, rng.uniform(1.0, beyond_m)),
            walk(start, inv.azi1, inv.s12 + rng.uniform(1.0, beyond_m)),
            walk(walk(start, inv.azi1, rng.uniform(0, inv.s12)), rng.uniform(0, 360), rng.uniform(0, off_m)),
            walk(start, inv.azi1, DENSIFY_STEP_M * rng.randrange(1, samples - 1)),
        ]
    anchors.append(end)
    return b, anchors


class TestDistanceProfile:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_reductions_equal_python_sums(self, seed, n_a, n_b):
        rng = random.Random(seed)
        a = build_segments(random_curve(rng, "A", n=n_a), "A")
        b = build_segments(random_curve(rng, "B", n=n_b, start=walk(a.points[0], 90.0, 3_000.0)), "B")
        dists = anchor_min_distances(a, b)
        seg = [s.length for s in a.segments]
        profile = DistanceProfile(a, dists)
        assert profile.max() == max(dists)
        assert profile.mean() == sum(l * d for l, d in zip(seg, dists)) / a.length
        for m in sorted(dists)[:: max(1, n_a // 4)] + [1_000.0, 1e9]:
            lm = sum(l for l, d in zip(seg, dists) if d < m)
            assert profile.within(m) == (lm, 100.0 * (lm / a.length))
        assert directed_mean_hausdorff(a, b) == profile.mean()
        assert directed_max_hausdorff(a, b) == profile.max()
        assert matching_length(a, b, BandThreshold(1_000.0)) == profile.within(1_000.0)


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

    def test_full_match_is_exactly_100_percent(self):
        # 100 * L / L need not round to 100 (for a few of these lengths it
        # does not); 100 * (L / L) does.
        rng = random.Random(2024)
        band = BandThreshold.from_km(100_000.0)
        for _ in range(100):
            a = build_segments(random_curve(rng, "A", n=5), "A")
            assert matching_length(a, a, band) == (a.length, 100.0)
            km = a.length / 1000.0
            assert MatchingBand(100_000.0, km, 100.0, km, 100.0).average_pct(km, km) == 100.0

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
        # The two-direction average of the report row, from the pipeline's
        # pair metrics.
        a, b = pair
        lab, _ = matching_length(a, b, BandThreshold.from_km(5.0))
        lba, _ = matching_length(b, a, BandThreshold.from_km(5.0))
        _, entry = compare_pair(a, b, [5.0])
        band = entry.bands[0]
        assert band.average_km() == pytest.approx((lab + lba) / 2 / 1000.0, rel=1e-12)
        pct = band.average_pct(entry.length_a_km, entry.length_b_km)
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
        assert lba == b.length

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

    @given(st.integers(0, 2**32 - 1), st.integers(3, 30))
    @settings(max_examples=25, deadline=None)
    def test_halves_equal_rebuilt_halves(self, seed, n):
        rng = random.Random(seed)
        c = build_segments(random_curve(rng, "r", n=n, step_m=rng.choice([5.0, 2000.0])), "r")
        k = rng.randrange(1, len(c.points) - 1)
        upper, lower = split_at_nearest_vertex(c, c.points[k], ("r1", "r2"))
        assert_same_curve(upper, build_segments(c.points[: k + 1], "r1"))
        assert_same_curve(lower, build_segments(c.points[k:], "r2"))

    def test_nearest_vertex_first_of_ties(self):
        # Vertices 1 and 3 coincide with the reference point: the first wins.
        pts = [GeoPoint(0.0, 45.0), GeoPoint(0.1, 45.0), GeoPoint(0.2, 45.0), GeoPoint(0.1, 45.0), GeoPoint(0.0, 45.1)]
        upper, lower = split_at_nearest_vertex(build_segments(pts, "D"), GeoPoint(0.1, 45.0))
        assert upper.points == pts[:2] and lower.points == pts[1:]

    def test_half_of_length_zero_rejected(self):
        # 0 and 1e-19 degrees are distinct points that the engine puts 0 m
        # apart, so the second half has length 0 and no metric is defined.
        c = build_segments([GeoPoint(-1.0, 45.0), GeoPoint(0.0, 45.0), GeoPoint(1e-19, 45.0)], "D")
        with pytest.raises(DegenerateCurveError, match="curve 'D2' has length 0"):
            split_at_nearest_vertex(c, GeoPoint(0.0, 45.0))

    def test_split_at_endpoint_rejected(self):
        pts = [GeoPoint(x, 45.0) for x in (0.0, 0.1, 0.2)]
        c = build_segments(pts, "D")
        with pytest.raises(DegenerateCurveError):
            split_at_nearest_vertex(c, GeoPoint(-1.0, 45.0))
