import csv
import hashlib
import importlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mapregister.field as field_module
from mapregister._geodesic import WGS84
from mapregister.affine import AffineParams, PixelPoint, affine_images, apply_affine, fit_affine
from mapregister.cli import main as cli_main
from mapregister.curves import build_segments
from mapregister.errors import ConfigError, DegenerateCurveError, MapRegisterError, OutOfDomainError, OutOfRangeError
from mapregister.field import (
    DirichletRegion,
    GridDomain,
    ParameterField,
    assemble_system,
    sample_field,
    solve_field,
)
from mapregister.formats import (
    read_correspondences,
    read_geo_curve,
    read_pixel_curve,
    write_field_dump,
)
from mapregister.geodesy import GeoPoint, geodesic_distance_many
from mapregister.pipeline import (
    DEFAULT_BANDS_KM,
    GLOBAL_NAME,
    compare_pair,
    fit_with_global,
    grid_domain,
    load_config,
    measure,
    run_experiment,
    stadia_to_km,
    transform_curve,
)
from mapregister.report import (
    CurveInfo,
    HausdorffEntry,
    MatchingBand,
    MatchingEntry,
    MetricsReport,
    SourceEntry,
    TransformErrors,
    average_row_faces,
    km_face,
    pct_face,
    render_csv_tables,
    render_human,
)

from oracles import (
    dict_render_csv_tables,
    dict_render_human,
    read_field_dump,
    scalar_apply_affine,
    scalar_sample_field,
    scalar_transform_curve,
    scalar_write_field_dump,
)
from synth import (
    EXPERIMENT_REGIONS,
    random_affine,
    random_curve,
    random_pixels,
    ring_pixels,
    synth_set,
    write_correspondences,
    write_experiment,
    write_geo_curve,
    write_pixel_curve,
)


class TestFormats:
    def test_correspondence_round_trip(self, tmp_path):
        rng = random.Random(2)
        sets = [
            synth_set("coast west", random_affine(rng), random_pixels(rng, 5), rng, 0.01),
            synth_set("inland", random_affine(rng), random_pixels(rng, 4), rng, 0.01),
        ]
        path = tmp_path / "corr.txt"
        write_correspondences(path, sets)
        back = read_correspondences(path)
        assert [s.name for s in back] == ["coast west", "inland"]
        for orig, rec in zip(sets, back):
            assert len(orig.pairs) == len(rec.pairs)
            for a, b in zip(orig.pairs, rec.pairs):
                assert a.source == b.source
                assert a.target == b.target

    def test_correspondence_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("set ok\n1 2 3\n")
        with pytest.raises(ConfigError, match=r"bad.txt:2"):
            read_correspondences(path)
        path.write_text("1 2 3 4\n")
        with pytest.raises(ConfigError, match="before any 'set'"):
            read_correspondences(path)

    def test_pixel_curve_round_trip(self, tmp_path):
        pts = [PixelPoint(1.25, 2.5), PixelPoint(3.0, 4.125)]
        path = tmp_path / "c.txt"
        write_pixel_curve(path, pts)
        assert read_pixel_curve(path) == pts

    def test_geo_curve_round_trip_exact(self, tmp_path):
        pts = [GeoPoint(12.123456789012345, 45.98765432109876), GeoPoint(13.0, 46.0)]
        path = tmp_path / "c.geojson"
        write_geo_curve(path, "r1", pts, 88.25)
        name, back = read_geo_curve(path)
        assert name == "r1"
        assert back == pts  # repr round-trip keeps the exact doubles

    def test_geo_curve_rejects_non_linestring(self, tmp_path):
        path = tmp_path / "p.geojson"
        path.write_text(json.dumps({"type": "Point", "coordinates": [0, 0]}))
        with pytest.raises(ConfigError, match="LineString"):
            read_geo_curve(path)

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            "null",
            '"main"',
            '{"type": "FeatureCollection", "features": [5]}',
            '{"type": "FeatureCollection", "features": {"type": "Feature"}}',
            '{"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": null}]}',
            '{"type": "Feature", "geometry": null}',
            '{"type": "Feature", "geometry": [0, 0]}',
            '{"type": "Feature", "properties": 5, "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]}}',
            '{"type": "LineString", "coordinates": 5}',
            '{"type": "LineString", "coordinates": [[0, 0], [1, 1' + "0" * 400 + ']]}',
        ],
        ids=["list", "null", "string", "non-object feature", "features object", "null geometry in collection",
             "null geometry", "list geometry", "non-object properties", "number coordinates", "huge coordinate"],
    )
    def test_malformed_geojson_exits_2(self, tmp_path, text):
        base = tmp_path / "exp"
        write_experiment(base)
        bad = tmp_path / "bad.geojson"
        bad.write_text(text)
        with pytest.raises(ConfigError):
            read_geo_curve(bad)
        argv = ["compare", "--curve-a", str(bad), "--curve-b", str(base / "side.geojson"), "--output", str(tmp_path / "cmp")]
        assert cli_main(argv) == 2
        assert not (tmp_path / "cmp").exists()

    def test_positions_with_altitude_read_lon_lat(self, tmp_path, capsys):
        # RFC 7946 §3.1.1 allows an altitude after longitude and latitude.
        base = tmp_path / "exp"
        write_experiment(base)
        fc = json.loads((base / "main.geojson").read_text())
        coords = fc["features"][0]["geometry"]["coordinates"]
        fc["features"][0]["geometry"]["coordinates"] = [[lon, lat, 120.0 + i] for i, (lon, lat) in enumerate(coords)]
        high = tmp_path / "main.geojson"
        high.write_text(json.dumps(fc))
        assert read_geo_curve(high) == read_geo_curve(base / "main.geojson")
        runs = []
        for a in (base / "main.geojson", high):
            assert cli_main(["compare", "--curve-a", str(a), "--curve-b", str(base / "side.geojson")]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "position",
        [[10.0], [10.0, 45.0, 1.0, 2.0], [10.0, 45.0, "high"], "10 45",
         [True, False], ["10.5", "45"], [10.0, 45.0, "120"]],
        ids=["one number", "four numbers", "non-number altitude", "string",
             "booleans", "number strings", "number-string altitude"],
    )
    def test_bad_position_exits_2(self, tmp_path, position):
        base = tmp_path / "exp"
        write_experiment(base)
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps({"type": "LineString", "coordinates": [[11.0, 46.0], position]}))
        argv = ["compare", "--curve-a", str(bad), "--curve-b", str(base / "side.geojson"), "--output", str(tmp_path / "cmp")]
        assert cli_main(argv) == 2
        assert not (tmp_path / "cmp").exists()

    def test_geo_curve_without_name_is_named_after_its_file(self, tmp_path):
        # RFC 7946 allows null properties; a name that is not a string is
        # no name either.
        pts = [GeoPoint(12.0, 45.0), GeoPoint(13.0, 46.0)]
        path = tmp_path / "river.geojson"
        for props in (None, {}, {"name": None}, {"name": 5}):
            write_geo_curve(path, "r1", pts)
            fc = json.loads(path.read_text())
            fc["features"][0]["properties"] = props
            path.write_text(json.dumps(fc))
            assert read_geo_curve(path) == ("river", pts)

    def test_field_dump_round_trip(self, tmp_path):
        grid = GridDomain(PixelPoint(1, 1), 12, 9)
        region = DirichletRegion(ring_pixels(6.0, 5.0, 2.5), AffineParams(1, 2, 3, 4, 5, 6))
        field = solve_field(assemble_system(grid, [region]))
        write_field_dump(field, tmp_path)
        a1 = read_field_dump(tmp_path / "a1.csv")
        assert a1.shape == (12, 9)
        assert (a1 == field.params[:, :, 0]).all()

    def test_field_dump_matches_value_by_value_formatting(self, tmp_path):
        rng = np.random.default_rng(5)
        grids = rng.normal(scale=40.0, size=(7, 4, 6))
        grids.flat[:6] = [-0.0, 5e-324, 1e-300, 0.1, 1e17, -1e17]
        field = ParameterField(GridDomain(PixelPoint(-3.5, 2.0), 7, 4), grids, grids[:, :, 0] > 0, 0.0)
        got = write_field_dump(field, tmp_path / "new")
        want = scalar_write_field_dump(field, tmp_path / "old")
        assert [p.name for p in got] == [p.name for p in want]
        for g, w in zip(got, want):
            assert g.read_bytes() == w.read_bytes()


class TestStadia:
    def test_examples(self):
        assert stadia_to_km(1000) == (177.7, 197.3)
        assert stadia_to_km(0) == (0.0, 0.0)
        assert stadia_to_km(3500) == (621.95, 690.55)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            stadia_to_km(-1)

    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_interval_ordering_and_scaling(self, n):
        lo, hi = stadia_to_km(n)
        assert 0.0 <= lo <= hi
        assert lo == pytest.approx(n * 0.1777, rel=1e-12)
        assert hi == pytest.approx(n * 0.1973, rel=1e-12)


class _LyingHausdorffEntry(HausdorffEntry):
    @property
    def mean_km(self):
        return super().mean_km + 1e6


class _LyingBand(MatchingBand):
    def average_km(self):
        return super().average_km() + 1.0


# Names as the config admits them: no comma, double quote or line break,
# wide and non-ASCII characters included.
_table_names = st.text(
    st.characters(exclude_characters=',"\n\r', exclude_categories=("Cs",)), min_size=1, max_size=30
)
_km = st.floats(0.0, 1e4)
_length_km = st.floats(0.001, 1e5)
_lie = st.integers(0, 7).map(lambda k: k == 0)


@st.composite
def _reports(draw):
    # Reports as the pipeline makes them: one transform per set (the cross
    # matrix is square) and one band per entry for every listed band.  No
    # command makes matching entries without a band (an empty band list
    # exits 2), and there the old human renderer fails on `faces[0]`.
    sets = draw(st.lists(_table_names, max_size=4))
    matrix = st.lists(st.lists(_km, min_size=len(sets), max_size=len(sets)), min_size=len(sets), max_size=len(sets))
    bands_km = draw(st.lists(st.sampled_from([10.0, 50.0, 100.0]) | st.floats(0.001, 1e3), max_size=3))
    hausdorff = [
        draw(st.builds(
            _LyingHausdorffEntry if draw(_lie) else HausdorffEntry,
            _table_names, _table_names, _length_km, _length_km, _km, _km, _km, _km,
        ))
        for _ in range(draw(st.integers(0, 3)))
    ]
    matching = [
        MatchingEntry(draw(_table_names), draw(_table_names), draw(_length_km), draw(_length_km), [
            (_LyingBand if draw(_lie) else MatchingBand)(km, draw(_km), draw(_km), draw(_km), draw(_km))
            for km in bands_km
        ])
        for _ in range(draw(st.integers(0, 3)) if bands_km else 0)
    ]
    return MetricsReport(
        TransformErrors(sets, list(sets), draw(matrix), draw(matrix)),
        bands_km,
        hausdorff,
        matching,
        draw(st.lists(st.builds(SourceEntry, _table_names, _table_names, _km), max_size=3)),
        draw(st.lists(st.builds(CurveInfo, _table_names, st.integers(2, 10**6), _length_km), max_size=3)),
    )


def _outcome(render, report):
    try:
        return render(report)
    except Exception as exc:
        return type(exc), str(exc)


class TestReportFormatting:
    @given(_reports())
    @example(MetricsReport(TransformErrors([], [], [], []), []))
    @example(MetricsReport(
        TransformErrors([], [], [], []), [], hausdorff=[_LyingHausdorffEntry("D", "I", 5.0, 4.0, 1.0, 2.0, 0.5, 0.7)]
    ))
    @example(MetricsReport(
        TransformErrors([], [], [], []), [10.0],
        matching=[MatchingEntry("D", "I", 2714.887, 1421.117, [_LyingBand(10.0, 228.127, 8.4, 185.952, 13.1)])],
    ))
    @settings(max_examples=300, deadline=None)
    def test_tables_equal_the_dict_renderers(self, report):
        # The CSV tables and `report.txt` are the bytes of the renderers
        # that rounded and cross-checked each table in its own code; a
        # failed self-check raises the same error with the same message.
        assert _outcome(render_csv_tables, report) == _outcome(dict_render_csv_tables, report)
        assert _outcome(render_human, report) == _outcome(dict_render_human, report)

    def test_km_and_pct_faces(self):
        assert km_face(7.5274999) == "7.527"
        assert km_face(7.5275001) == "7.528"
        assert km_face(177.7) == "177.700"
        assert pct_face(10.0116) == "10.0"

    def test_average_row_reproduces_printed_figures(self):
        avg, pct = average_row_faces("228.127", "185.952", "2714.887", "1421.117")
        assert avg == "207.040"
        assert pct == "10.0"

    def test_average_rows_consistent_in_rendered_table(self):
        entry = MatchingEntry(
            a="D",
            b="I",
            length_a_km=2714.887,
            length_b_km=1421.117,
            bands=[MatchingBand(10.0, 228.127, 8.4026, 185.952, 13.0850)],
        )
        report = MetricsReport(
            transform_errors=TransformErrors([], [], [], []),
            bands_km=[10.0],
            matching=[entry],
        )
        csv = render_csv_tables(report)["matching.csv"]
        lines = csv.strip().splitlines()
        assert lines[1] == "D,2714.887,I,10.000,228.127,8.4"
        assert lines[2] == "I,1421.117,D,10.000,185.952,13.1"
        assert lines[3] == "Average,,,10.000,207.040,10.0"

    def test_combined_hausdorff_from_faces(self):
        e = HausdorffEntry(
            a="D",
            b="I",
            length_a_km=2021.995,
            length_b_km=1421.117,
            dir_max_ab_km=154.611,
            dir_max_ba_km=149.693,
            dir_mean_ab_km=44.903,
            dir_mean_ba_km=39.621,
        )
        report = MetricsReport(
            transform_errors=TransformErrors([], [], [], []),
            bands_km=[],
            hausdorff=[e],
        )
        row = render_csv_tables(report)["hausdorff.csv"].strip().splitlines()[1]
        cells = row.split(",")
        assert cells[6] == "154.611"  # combined max = max of directed
        # combined mean recomputed from the printed directed values/lengths
        want = (2021.995 * 44.903 + 1421.117 * 39.621) / (2021.995 + 1421.117)
        assert float(cells[9]) == pytest.approx(want, abs=0.001)


class TestFitWithGlobal:
    def test_cross_matrix_shape_and_diagonal(self):
        rng = random.Random(9)
        sets = []
        for k, name in enumerate(("coast west", "inland", "coast east")):
            t = random_affine(rng, base_lon=5 + 3 * k, base_lat=40 + 2 * k)
            sets.append(synth_set(name, t, random_pixels(rng, 6), rng, noise_deg=0.02))
        fits, table = fit_with_global(sets)
        assert set(fits) == {"coast west", "inland", "coast east", "global"}
        assert table.transform_names == ["coast west", "inland", "coast east", "global"]
        assert table.set_names == table.transform_names
        for i in range(3):
            row = table.mean_km[i]
            assert row[i] == min(row[:3])
            assert table.mean_km[i][i] <= table.max_km[i][i]

    def test_global_name_reserved(self):
        rng = random.Random(10)
        s = synth_set("global", random_affine(rng), random_pixels(rng, 5))
        with pytest.raises(ConfigError):
            fit_with_global([s])

    def test_one_engine_call_equals_one_transform_at_a_time(self):
        # Twenty regions of eight landmarks, as in the large_grid workload:
        # 21 transforms on 21 sets of 320 pairs in all, one inverse_many
        # call, and every row as one array inverse per transform gives it.
        rng = random.Random(20)
        sets = [
            synth_set(f"r{k}", random_affine(rng, 5 + k % 5, 40 + k // 5), random_pixels(rng, 8), rng, noise_deg=0.02)
            for k in range(20)
        ]
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse:
            fits, table = fit_with_global(sets)
        assert [np.broadcast(*c.args).size for c in inverse.call_args_list] == [21 * 320]
        eval_sets = sets + [sets[0].merged_with(sets[1:], GLOBAL_NAME)]
        pairs = [c for s in eval_sets for c in s.pairs]
        x = np.array([(c.source.x1, c.source.x2) for c in pairs])
        lat, lon = np.array([c.target.lat for c in pairs]), np.array([c.target.lon for c in pairs])
        for k, name in enumerate(table.transform_names):
            images, _ = affine_images(np.array([fits[name].as_tuple()]), x)
            r = (geodesic_distance_many(lat, lon, images[:, 1], images[:, 0]) / 1000.0).tolist()
            rows = [r[i : i + 8] for i in range(0, 320, 8)]
            rows = rows[:20] + [sum(rows[20:], [])]
            assert table.mean_km[k] == [math.sqrt(sum(d * d for d in row) / len(row)) for row in rows]
            assert table.max_km[k] == [max(row) for row in rows]

    def test_invalid_image_raises_the_first_in_transform_then_pair_order(self):
        # A steep region near row 0 sends the other regions' rows past the
        # pole; the error is apply_affine's for the first such transform and
        # pair, as a loop over transforms and pairs meets it.
        rng = random.Random(12)
        steep = synth_set("steep", AffineParams(0.01, 0.0, 0.0, 0.5, 5.0, 80.0), random_pixels(rng, 6, 0.0, 10.0))
        sets = [synth_set("west", random_affine(rng, 5, 40), random_pixels(rng, 6), rng, noise_deg=0.02), steep,
                synth_set("east", random_affine(rng, 9, 40), random_pixels(rng, 6), rng, noise_deg=0.02)]
        fits = {s.name: fit_affine(s) for s in sets}
        union = sets[0].merged_with(sets[1:], GLOBAL_NAME)
        fits[GLOBAL_NAME] = fit_affine(union)
        want = None
        for t in fits.values():
            for c in union.pairs:
                try:
                    apply_affine(t, c.source)
                except OutOfRangeError as exc:
                    want = want or str(exc)
        assert want is not None
        with pytest.raises(OutOfRangeError) as got:
            fit_with_global(sets)
        assert str(got.value) == want


class TestMeasure:
    def test_one_anchor_pass_for_every_pair(self):
        # Four pairs, both directions each: one engine call for every kept
        # end, and the rows compare_pair gives one pair at a time.
        rng = random.Random(4)
        start = GeoPoint(10.0, 45.0)
        cs = [build_segments(random_curve(rng, f"c{k}", n=8 + k, start=start), f"c{k}") for k in range(4)]
        pairs = [(cs[0], cs[1]), (cs[1], cs[2]), (cs[2], cs[3]), (cs[3], cs[0])]
        want = [compare_pair(a, b, [1.0, 5.0]) for a, b in pairs]
        with mock.patch.object(WGS84, "inverse_many", wraps=WGS84.inverse_many) as inverse:
            report = measure(cs, pairs, [], [1.0, 5.0], TransformErrors([], [], [], []))
        assert inverse.call_count == 1
        assert list(zip(report.hausdorff, report.matching)) == want


class TestBenchmarkTracer:
    def test_installs_and_uninstalls_against_the_package(self):
        # perfbench/tracing.py wraps each name where the package's callers
        # look it up; a name the package no longer has would make every
        # traced benchmark run fail.
        spec = importlib.util.spec_from_file_location("tracing", SAMPLE_DATA.parent / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)

        def current():
            out = []
            for module, attr, _ in tracing.WRAPPED:
                owner, name = tracing._resolve(importlib.import_module(module), attr)
                out.append(owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name))
            return out

        assert tracing.WRAPPED
        before = current()
        assert all(callable(f) for f in before)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            installed = current()
        finally:
            tracer.uninstall()
        assert [f.__wrapped__ for f in installed] == before
        assert current() == before


class TestTransformCurve:
    def build_constant_field(self, t: AffineParams):
        grid = GridDomain(PixelPoint(1, 1), 30, 30)
        region = DirichletRegion(ring_pixels(15, 15, 5), t)
        return solve_field(assemble_system(grid, [region]))

    def test_constant_field_applies_affine_pointwise(self):
        t = AffineParams(0.02, 0.0, 0.0, -0.02, 10.0, 50.0)
        field = self.build_constant_field(t)
        pixels = [PixelPoint(5 + k, 5 + 0.5 * k) for k in range(10)]
        curve = transform_curve(field, pixels, "c")
        for px, got in zip(pixels, curve.points):
            want = apply_affine(t, px)
            assert got.lon == pytest.approx(want.lon, abs=1e-10)
            assert got.lat == pytest.approx(want.lat, abs=1e-10)

    def test_out_of_domain_names_point_index(self):
        field = self.build_constant_field(AffineParams(0.02, 0, 0, -0.02, 10, 50))
        pixels = [PixelPoint(5, 5), PixelPoint(200, 5)]
        with pytest.raises(OutOfDomainError, match="point 1"):
            transform_curve(field, pixels, "c")

    def test_latitude_error_names_point_index(self):
        field = self.build_constant_field(AffineParams(0.02, 0, 0, 2.0, 10, 50))
        pixels = [PixelPoint(5, 5), PixelPoint(5, 29)]
        with pytest.raises(OutOfRangeError, match=r"^curve 'c', point 1: pixel \(5, 29\) transforms to latitude 108"):
            transform_curve(field, pixels, "c")

    def test_empty_curve_rejected(self):
        field = self.build_constant_field(AffineParams(0.02, 0, 0, -0.02, 10, 50))
        with pytest.raises(DegenerateCurveError):
            transform_curve(field, [], "c")

    @staticmethod
    def _pixel(rng, kind, grid):
        # A pixel of one kind: a node centre, within 1.5e-9 of a domain edge
        # (inside or outside the 1e-9 slack), on the clamped last cell,
        # anywhere inside, or outside the domain.
        lo1, lo2 = grid.origin.x1, grid.origin.x2
        hi1, hi2 = lo1 + grid.n1 - 1, lo2 + grid.n2 - 1
        if kind == "node":
            return PixelPoint(lo1 + int(rng.integers(grid.n1)), lo2 + int(rng.integers(grid.n2)))
        x = [float(rng.uniform(lo1, hi1)), float(rng.uniform(lo2, hi2))]
        if kind == "edge":
            k = int(rng.integers(2))
            x[k] = float(rng.choice([(lo1, hi1), (lo2, hi2)][k]) + rng.uniform(-1.5e-9, 1.5e-9))
        elif kind == "clamped":
            x[0] = hi1
            x[1] = hi2 if rng.random() < 0.5 else x[1]
        elif kind == "outside":
            x[0] = hi1 + float(rng.uniform(0.5, 5.0))
        return PixelPoint(*x)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(3, 7), st.integers(3, 7)),
        kinds=st.lists(st.sampled_from(["node", "edge", "clamped", "inside"]), max_size=12),
        outside_at=st.none() | st.integers(0, 12),
        lat0=st.sampled_from([45.0, 88.0, -89.5]),
    )
    def test_array_path_equals_per_pixel_path(self, seed, shape, kinds, outside_at, lat0):
        # Random grids, not solved fields: the sampling and the affine see
        # any values.  Base longitudes beyond +-180 exercise normalization,
        # base latitudes near the poles the latitude check.
        rng = np.random.default_rng(seed)
        n1, n2 = shape
        grid = GridDomain(PixelPoint(float(rng.integers(-20, 20)), float(rng.integers(-20, 20)) + 0.25), n1, n2)
        params = np.empty((n1, n2, 6))
        params[..., :4] = rng.normal(0.0, 0.05, (n1, n2, 4))
        params[..., 4] = rng.uniform(-400.0, 400.0, (n1, n2))
        params[..., 5] = lat0 + rng.uniform(-1.0, 1.0, (n1, n2))
        field = ParameterField(grid, params, np.zeros((n1, n2), dtype=bool), 0.0)
        if outside_at is not None:
            kinds.insert(outside_at, "outside")
        pixels = [self._pixel(rng, kind, grid) for kind in kinds]

        def outcome(fn, *args):
            try:
                return fn(*args)
            except MapRegisterError as exc:
                return type(exc), str(exc)

        for p in pixels:
            sampled = outcome(sample_field, field, p)
            assert sampled == outcome(scalar_sample_field, field, p)
            if isinstance(sampled, AffineParams):
                assert outcome(apply_affine, sampled, p) == outcome(scalar_apply_affine, sampled, p)
        got, want = outcome(transform_curve, field, pixels, "c"), outcome(scalar_transform_curve, field, pixels, "c")
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.chain.tolist() == want.chain.tolist()
        assert got.edge_lengths.tolist() == want.edge_lengths.tolist()
        assert got.segment_lengths.tolist() == want.segment_lengths.tolist()
        assert got.length == want.length
        assert got.points == want.points
        assert build_segments(got.points, "c").chain.tolist() == got.chain.tolist()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    base = tmp_path_factory.mktemp("exp")
    config_path, truth = write_experiment(base)
    config = load_config(config_path)
    result = run_experiment(config)
    return config, truth, result


class TestRunExperiment:

    def test_outputs_written(self, run):
        config, _, result = run
        names = {p.relative_to(config.output_dir).as_posix() for p in result.outputs}
        assert {
            "transform_errors_mean.csv",
            "transform_errors_max.csv",
            "hausdorff.csv",
            "matching.csv",
            "sources.csv",
            "curves.csv",
            "report.txt",
            "report.json",
            "curves/probe.geojson",
            "curves/probe_up.geojson",
            "curves/probe_down.geojson",
        } <= names

    def test_transformed_points_match_regional_affines(self, run):
        config, truth, result = run
        probe = result.curves["probe"]
        pixels = read_pixel_curve(config.correspondences.parent / "probe.txt")
        for (name, (t, (cx, cy))) in EXPERIMENT_REGIONS.items():
            for px, geo in zip(pixels, probe.points):
                if math.hypot(px.x1 - cx, px.x2 - cy) <= 3.5:
                    want = apply_affine(truth[name], px)
                    assert abs(geo.lon - want.lon) <= 1e-8
                    assert abs(geo.lat - want.lat) <= 1e-8

    def test_emitted_curve_round_trips(self, run):
        config, _, result = run
        name, pts = read_geo_curve(config.output_dir / "curves" / "probe.geojson")
        assert name == "probe"
        assert pts == result.curves["probe"].points

    def test_sidecar_mirrors_tables(self, run):
        config, _, result = run
        sidecar = json.loads((config.output_dir / "report.json").read_text())
        assert sidecar["transform_errors"]["transforms"] == [
            "coast west",
            "inland",
            "coast east",
            "global",
        ]
        assert len(sidecar["hausdorff"]) == len(result.report.hausdorff)
        first = sidecar["matching"][0]["bands"][0]
        band = result.report.matching[0].bands[0]
        assert first["lm_ab_km"] == band.lm_ab_km

    def test_runs_are_byte_identical(self, tmp_path):
        config_path, _ = write_experiment(tmp_path / "exp2")
        config = load_config(config_path)
        config.output_dir = tmp_path / "out_a"
        a = run_experiment(config)
        config.output_dir = tmp_path / "out_b"
        b = run_experiment(config)
        files_a = sorted(p.relative_to(tmp_path / "out_a").as_posix() for p in a.outputs)
        files_b = sorted(p.relative_to(tmp_path / "out_b").as_posix() for p in b.outputs)
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "out_a" / rel).read_bytes() == (
                tmp_path / "out_b" / rel
            ).read_bytes()

    def test_sample_tables_equal_the_benchmark_reference(self, tmp_path):
        # The six CSV tables and report.txt of the shipped sample experiment,
        # byte for byte as recorded in perfbench/refs/sample.json.
        ref = json.loads((SAMPLE_DATA.parent / "perfbench" / "refs" / "sample.json").read_text())
        tables = ref["variants"]["0"]["outputs"]["tables"]
        assert sorted(tables) == sorted(
            ["curves.csv", "hausdorff.csv", "matching.csv", "sources.csv", "transform_errors_max.csv",
             "transform_errors_mean.csv", "report.txt"]
        )
        config = load_config(_sample_copy(tmp_path / "sample"))
        config.output_dir = tmp_path / "out"
        run_experiment(config)
        got = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in tables}
        assert got == tables

    def test_unknown_comparison_curve_rejected(self, tmp_path):
        config_path, _ = write_experiment(tmp_path / "exp3")
        config = load_config(config_path)
        config.comparisons.append(("nosuch", "probe"))
        with pytest.raises(ConfigError, match="nosuch"):
            run_experiment(config)


class TestConfig:
    def test_missing_file_rejected(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "domain: {x1_min: 1, x2_min: 1, x1_max: 10, x2_max: 10}\n"
            "correspondences: nope.txt\n"
        )
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(cfg)

    def test_fractional_domain_rejected(self, tmp_path):
        corr = tmp_path / "corr.txt"
        corr.write_text("set a\n1 1 0 0\n2 1 0.1 0\n1 2 0 0.1\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "domain: {x1_min: 1, x2_min: 1, x1_max: 10.5, x2_max: 10}\n"
            "correspondences: corr.txt\n"
        )
        with pytest.raises(ConfigError, match="whole nodes"):
            load_config(cfg)

    def test_bad_polygon_mode_rejected(self, tmp_path):
        corr = tmp_path / "corr.txt"
        corr.write_text("set a\n1 1 0 0\n2 1 0.1 0\n1 2 0 0.1\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            "domain: {x1_min: 1, x2_min: 1, x1_max: 10, x2_max: 10}\n"
            "correspondences: corr.txt\npolygon_mode: fancy\n"
        )
        with pytest.raises(ConfigError, match="polygon_mode"):
            load_config(cfg)

    @pytest.mark.parametrize(
        "line",
        [
            "bands_km: [.nan]",
            "bands_km: [10, .inf]",
            "bands_km: [-5]",
            "bands_km: [ten]",
            "domain: {x1_min: 1, x2_min: 1, x1_max: 2, x2_max: 2}",
            "domain: {x1_min: 1, x2_min: 1, x1_max: .nan, x2_max: 90}",
            "domain: {x1_min: 1, x2_min: 1, x1_max: 120, x2_max: .inf}",
            'domain: {x1_min: 1, x2_min: 1, x1_max: "120", x2_max: 90}',
            'bands_km: ["10", 50, 100]',
            'dump_field: "false"',
            "dump_field: 1",
            "output_dir: {a: 1}",
        ],
    )
    def test_bad_values_exit_2_before_any_output(self, tmp_path, line):
        config_path, _ = write_experiment(tmp_path / "exp")
        text = config_path.read_text()
        key = line.split(":")[0]
        text = "".join(l for l in text.splitlines(keepends=True) if not l.startswith(key + ":"))
        config_path.write_text(text + line + "\n")
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert not (tmp_path / "exp" / "out").exists()

    @pytest.mark.parametrize("value", ["{a: 1}", "[out]", "5", "null"])
    def test_non_string_output_dir_exits_2_before_any_output(self, tmp_path, capsys, value):
        # Any YAML value used to become a directory name through str().
        config_path, _ = write_experiment(tmp_path / "exp")
        config_path.write_text(config_path.read_text().replace("output_dir: out", f"output_dir: {value}"))
        before = sorted(p.name for p in (tmp_path / "exp").iterdir())
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert "output_dir must be a string" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "exp").iterdir()) == before

    def test_output_dir_with_nul_exits_2(self, tmp_path, capsys):
        config_path, _ = write_experiment(tmp_path / "exp")
        config_path.write_text(config_path.read_text().replace("output_dir: out", 'output_dir: "o\\0ut"'))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")

    def test_dump_field_accepts_yaml_booleans(self, tmp_path):
        config_path, _ = write_experiment(tmp_path / "exp")
        for value, want in (("false", False), ("true", True), ("no", False)):
            config_path.write_text(config_path.read_text().split("dump_field")[0] + f"dump_field: {value}\n")
            assert load_config(config_path).dump_field is want


SAMPLE_DATA = Path(__file__).resolve().parent.parent / "sample_data"


def _sample_copy(directory: Path) -> Path:
    # A copy of the shipped sample experiment; returns its config path.
    directory.mkdir(parents=True)
    for f in SAMPLE_DATA.iterdir():
        if f.is_file():
            (directory / f.name).write_bytes(f.read_bytes())
    return directory / "experiment.yaml"


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def _edit_config(config_path, edit):
    # Apply `edit` to the parsed configuration and write it back.
    cfg = yaml.safe_load(config_path.read_text())
    edit(cfg)
    config_path.write_text(yaml.safe_dump(cfg))


def _rename_curve(cfg, old, new):
    for key in ("source_curves", "reference_curves"):
        for item in cfg[key]:
            item["name"] = new if item["name"] == old else item["name"]
    for split in cfg["splits"]:
        split["curve"] = new if split["curve"] == old else split["curve"]
        split["names"] = [new if n == old else n for n in split["names"]]
    for key in ("comparisons", "source_comparisons"):
        cfg[key] = [[new if n == old else n for n in pair] for pair in cfg[key]]


class TestStrictConfig:
    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda c: c.update(band_km=[5]), "band_km"),
            (lambda c: c.update(dump_feild=True), "dump_feild"),
            (lambda c: c["domain"].update(x3_max=4), "x3_max"),
            (lambda c: c["source_curves"][0].update(flie="x.txt"), "flie"),
            (lambda c: c["reference_curves"][1].update(colour="red"), "colour"),
            (lambda c: c["splits"][0].update(long=3.0), "long"),
        ],
        ids=["top band_km", "top dump_feild", "domain", "source curve", "reference curve", "split"],
    )
    def test_unknown_key_exits_2_before_any_output(self, tmp_path, capsys, edit, key):
        config_path, _ = write_experiment(tmp_path / "exp")
        _edit_config(config_path, edit)
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "out").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            # a curve that appears in hausdorff.csv and matching.csv
            lambda c: _rename_curve(c, "main_up", "main,up"),
            # a curve that appears only in sources.csv
            lambda c: (c["comparisons"].remove(["side", "probe"]), _rename_curve(c, "side", 'si"de')),
            lambda c: _rename_curve(c, "probe", "pro\nbe"),
            lambda c: _rename_curve(c, "probe", "pro\rbe"),
        ],
        ids=["hausdorff comma", "sources quote", "newline", "carriage return"],
    )
    def test_csv_unsafe_curve_name_exits_2_before_any_output(self, tmp_path, edit):
        config_path, _ = write_experiment(tmp_path / "exp")
        _edit_config(config_path, edit)
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert not (tmp_path / "exp" / "out").exists()

    @pytest.mark.parametrize("name", ["coast, west", 'coast "west"'])
    def test_csv_unsafe_set_name_exits_2_before_any_output(self, tmp_path, name):
        config_path, _ = write_experiment(tmp_path / "exp")
        corr = tmp_path / "exp" / "correspondences.txt"
        corr.write_text(corr.read_text().replace("set coast west", f"set {name}"))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert not (tmp_path / "exp" / "out").exists()
        assert cli_main(["fit", "--correspondences", str(corr), "--output", str(tmp_path / "fit")]) == 2
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("probe", "p" * 300),  # a transformed source curve
            ("main_up", "m" * 248),  # a split half, its file name one byte too long
            ("side", "\u00e9" * 124),  # 256 bytes in UTF-8, though only 132 characters
        ],
        ids=["source curve", "split half", "multi-byte"],
    )
    def test_too_long_curve_name_exits_2_before_any_output(self, tmp_path, old, new):
        # Every curve name becomes an output file '<name>.geojson'; one the
        # file system cannot hold must fail before anything is written.
        config_path, _ = write_experiment(tmp_path / "exp")
        _edit_config(config_path, lambda c: _rename_curve(c, old, new))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert not (tmp_path / "exp" / "out").exists()

    def test_longest_curve_name_runs(self, tmp_path):
        config_path, _ = write_experiment(tmp_path / "exp")
        name = "p" * (255 - len(".geojson"))
        _edit_config(config_path, lambda c: _rename_curve(c, "probe", name))
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "exp" / "out" / "curves" / f"{name}.geojson").is_file()

    def test_global_set_name_exits_2_before_any_output(self, tmp_path):
        # 'global' is the name of the union transform.
        config_path, _ = write_experiment(tmp_path / "exp")
        corr = tmp_path / "exp" / "correspondences.txt"
        corr.write_text(corr.read_text().replace("set inland\n", f"set {GLOBAL_NAME}\n"))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert not (tmp_path / "exp" / "out").exists()

    def test_repeated_region_exits_2_before_any_output(self, tmp_path, capsys):
        # A set named twice would fit, and print, the same region twice.
        config_path = _sample_copy(tmp_path / "exp")
        _edit_config(config_path, lambda c: c.update(regions=["inland", "inland"]))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert "selected more than once: inland" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "out").exists()

    def test_csv_unsafe_compare_name_exits_2_before_any_output(self, tmp_path):
        base = tmp_path / "exp"
        write_experiment(base)
        rc = cli_main(
            [
                "compare",
                "--curve-a", str(base / "main.geojson"),
                "--curve-b", str(base / "side.geojson"),
                "--name-a", "riv,er",
                "--output", str(tmp_path / "cmp"),
            ]
        )
        assert rc == 2
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("regions", 5),
            ("regions", []),
            ("source_curves", 5),
            ("reference_curves", "main"),
            ("splits", 5),
            ("splits", {"curve": "probe"}),
            ("comparisons", 5),
            ("source_comparisons", True),
            ("bands_km", "10"),
            ("bands_km", []),  # an empty list, which would otherwise read as the default
        ],
    )
    def test_non_list_value_exits_2_before_any_output(self, tmp_path, capsys, key, value):
        config_path, _ = write_experiment(tmp_path / "exp")
        _edit_config(config_path, lambda c: c.update({key: value}))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "exp" / "out").exists()

    @pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
    def test_absent_or_null_list_keeps_its_default(self, tmp_path, absent):
        config_path, _ = write_experiment(tmp_path / "exp")
        keys = ("regions", "source_comparisons", "bands_km")
        _edit_config(config_path, lambda c: [c.pop(k, None) if absent else c.update({k: None}) for k in keys])
        config = load_config(config_path)
        assert (config.regions, config.source_comparisons, config.bands_km) == (None, None, DEFAULT_BANDS_KM)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("splits", lambda c: c["splits"][0].update(lat=100.0)),
            ("splits", lambda c: c["splits"][0].update(lon=10**400)),
            ("splits", lambda c: c["splits"][0].update(names="ab")),
            ("splits", lambda c: c["splits"][0].update(lon=True)),
            ("splits", lambda c: c["splits"][0].update(lat=False)),
            ("splits", lambda c: c["splits"][0].update(lat="49.995")),
            ("domain", lambda c: c["domain"].update(x1_max=10**400)),
            ("domain", lambda c: c["domain"].update(x1_min=True)),
            ("bands_km", lambda c: c.update(bands_km=[10**400])),
            ("bands_km", lambda c: c.update(bands_km=[True, 50, 100])),
            ("source_curves", lambda c: c["source_curves"][0].update(file="f" * 300)),
        ],
        ids=["split latitude", "split longitude overflow", "split names string", "split longitude boolean",
             "split latitude boolean", "split latitude string", "domain overflow", "domain boolean",
             "band overflow", "band boolean", "file name too long"],
    )
    def test_bad_nested_value_exits_2_before_any_output(self, tmp_path, capsys, key, edit):
        # YAML's true and false are booleans, which float() would read as 1
        # and 0; float() would also read a quoted number.
        config_path, _ = write_experiment(tmp_path / "exp")
        _edit_config(config_path, edit)
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert key in capsys.readouterr().err.replace(str(config_path), "")
        assert not (tmp_path / "exp" / "out").exists()

    def test_undecodable_files_exit_2_before_any_output(self, tmp_path):
        config_path, _ = write_experiment(tmp_path / "exp")
        corr = tmp_path / "exp" / "correspondences.txt"
        corr.write_bytes(corr.read_bytes() + b"# \xff\n")
        assert cli_main(["fit", "--correspondences", str(corr)]) == 2
        assert cli_main(["run", "--config", str(config_path)]) == 2
        config_path.write_bytes(config_path.read_bytes() + b"# \xff\n")
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert not (tmp_path / "exp" / "out").exists()

    def test_documented_configs_load(self):
        root = Path(__file__).resolve().parent.parent
        assert load_config(root / "sample_data" / "experiment.yaml").splits


def _children(value) -> list:
    # The keys or indices of a parsed YAML mapping or list.
    return list(value) if isinstance(value, dict) else list(range(len(value))) if isinstance(value, list) else []


_yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestConfigFuzz:
    SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"

    @pytest.fixture(scope="class")
    def sample_copy(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sample")
        for f in self.SAMPLE.iterdir():
            if f.is_file():
                (root / f.name).write_bytes(f.read_bytes())
        return root

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_value_loads_or_raises_config_error(self, sample_copy, data):
        # One documented top-level key of the sample configuration, or a
        # value nested at any depth inside one, set to a random YAML value:
        # the configuration loads or is rejected with ConfigError.
        from mapregister.pipeline import CONFIG_KEYS

        raw = yaml.safe_load((self.SAMPLE / "experiment.yaml").read_text())
        node, key = raw, data.draw(st.sampled_from(sorted(CONFIG_KEYS)))
        while key in node and _children(node[key]) and data.draw(st.booleans()):
            node, key = node[key], data.draw(st.sampled_from(_children(node[key])))
        node[key] = data.draw(_yaml_values)
        config = sample_copy / "fuzz.yaml"
        config.write_text(yaml.safe_dump(raw))
        try:
            load_config(config)
        except ConfigError:
            pass


# Curve names the configuration accepts, and set names a correspondence
# file line can hold: nothing that `check_table_name` rejects, no path
# separator or NUL in a curve name, no line break inside a set header line.
_curve_names = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n/\\\0'), min_size=1, max_size=8
).filter(lambda n: n not in (".", "..") and not n.startswith(("main_", "probe_")))
_set_names = st.text(
    st.characters(blacklist_categories=("Cs", "Zl", "Zp"), blacklist_characters=',"\r\n\v\f\x1c\x1d\x1e\x85'),
    min_size=1,
    max_size=8,
).filter(lambda n: n == n.strip() and n and not n.startswith("#") and n != GLOBAL_NAME)


class TestImportCost:
    def test_setup_imports_no_spatial_or_sparse_solver_modules(self):
        # `import mapregister` plus `load_config` is what every run pays
        # before any work; scipy.spatial, scipy.sparse and
        # scipy.sparse.linalg take a tenth of a second or more each, so they
        # are imported where used.
        root = Path(__file__).resolve().parent.parent
        code = (
            "import sys\n"
            "import mapregister\n"
            "from mapregister.pipeline import load_config\n"
            f"load_config({str(root / 'sample_data' / 'experiment.yaml')!r})\n"
            "print([m for m in ('scipy.spatial', 'scipy.sparse', 'scipy.sparse.linalg') if m in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestCsvTables:
    @given(
        st.lists(_curve_names, min_size=3, max_size=3, unique=True),
        st.lists(_set_names, min_size=3, max_size=3, unique=True),
        st.lists(st.floats(0.001, 1e5), min_size=1, max_size=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_table_has_one_width(self, curve_names, set_names, bands):
        with tempfile.TemporaryDirectory() as tmp:
            config_path, _ = write_experiment(Path(tmp) / "exp")

            def edit(cfg):
                for old, new in zip(("probe", "main", "side"), curve_names):
                    _rename_curve(cfg, old, new)
                cfg["bands_km"] = bands

            _edit_config(config_path, edit)
            corr = config_path.parent / "correspondences.txt"
            text = corr.read_text()
            for old, new in zip(EXPERIMENT_REGIONS, set_names):
                text = text.replace(f"set {old}\n", f"set {new}\n")
            corr.write_text(text)

            result = run_experiment(load_config(config_path))
            tables = [p for p in result.outputs if p.suffix == ".csv"]
            assert len(tables) == 6
            for path in tables:
                with open(path, newline="") as f:
                    rows = list(csv.reader(f))
                assert len(rows) >= 2, path.name
                assert len({len(r) for r in rows}) == 1, (path.name, rows)


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        config_path, _ = write_experiment(tmp_path / "exp")
        assert cli_main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "Hausdorff distances" in out
        assert cli_main(["run", "--config", str(tmp_path / "missing.yaml")]) == 2

    def test_solver_failure_exits_4_before_any_output(self, tmp_path, monkeypatch):
        config_path, _ = write_experiment(tmp_path / "exp")
        # A domain large enough for a multigrid hierarchy.
        _edit_config(config_path, lambda c: c["domain"].update(x1_max=240, x2_max=180))
        monkeypatch.setattr(field_module, "_PCG_MAX_ITER", 1)
        assert cli_main(["run", "--config", str(config_path)]) == 4
        assert not (tmp_path / "exp" / "out").exists()

    def test_fit_subcommand(self, tmp_path, capsys):
        base = tmp_path / "exp"
        write_experiment(base)
        out_dir = tmp_path / "fitout"
        rc = cli_main(
            [
                "fit",
                "--correspondences",
                str(base / "correspondences.txt"),
                "--output",
                str(out_dir),
            ]
        )
        assert rc == 0
        params = json.loads((out_dir / "transforms.json").read_text())
        assert set(params) == {"coast west", "inland", "coast east", "global"}

    def test_fit_repeated_set_exits_2_before_any_output(self, tmp_path, capsys):
        corr = SAMPLE_DATA / "correspondences.txt"
        argv = ["fit", "--correspondences", str(corr), "--sets", "inland", "inland", "--output", str(tmp_path / "fit")]
        assert cli_main(argv) == 2
        assert "selected more than once: inland" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_fit_degenerate_exit_code(self, tmp_path):
        corr = tmp_path / "corr.txt"
        corr.write_text("set a\n1 1 0 0\n2 2 0.1 0.1\n3 3 0.2 0.2\n4 4 0.3 0.3\n")
        assert cli_main(["fit", "--correspondences", str(corr)]) == 3

    # 0 and 1e-19 degrees are distinct points that the engine puts 0 m
    # apart: a curve of length 0, on which no metric is defined, exits 3.
    ZERO_LENGTH = {"type": "LineString", "coordinates": [[0, 45], [1e-19, 45]]}

    def test_zero_length_curve_compare_exits_3(self, tmp_path, capsys):
        zero = tmp_path / "zero.geojson"
        zero.write_text(json.dumps(self.ZERO_LENGTH))
        argv = ["compare", "--curve-a", str(zero), "--curve-b", str(SAMPLE_DATA / "side_river.geojson"),
                "--output", str(tmp_path / "cmp")]
        assert cli_main(argv) == 3
        assert capsys.readouterr() == ("", "error: curve 'zero' has length 0, nothing to measure\n")
        assert not (tmp_path / "cmp").exists()

    def test_zero_length_reference_curve_run_exits_3(self, tmp_path, capsys):
        config = _sample_copy(tmp_path / "exp")
        (config.parent / "side_river.geojson").write_text(json.dumps(self.ZERO_LENGTH))
        assert cli_main(["run", "--config", str(config)]) == 3
        assert capsys.readouterr() == ("", "error: curve 'side river' has length 0, nothing to measure\n")
        assert not (config.parent / "out").exists()

    def test_domain_numpy_cannot_hold_exits_2(self, capsys):
        # 10^20 nodes: no (nodes, 6) float64 array can exist, so the domain
        # is refused before anything is allocated.
        corr = SAMPLE_DATA / "correspondences.txt"
        argv = ["field", "--correspondences", str(corr), "--domain", "1", "1", "1e10", "1e10"]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", "error: --domain: a 10000000000x10000000000 grid's (nodes, 6) "
                                           "float64 field exceeds numpy's largest array\n")
        # The limit is the field's 48 bytes per node, not a smaller array's.
        assert grid_domain([1, 1, 2**26, 2**31], "domain").node_count == 2**57
        with pytest.raises(ConfigError, match="exceeds numpy's largest array"):
            grid_domain([1, 1, 2**26, 2**32], "domain")

    def test_out_of_memory_in_field_stage_exits_4(self, tmp_path):
        # Under a 2 GiB address-space limit a 60000x60000 domain cannot hold
        # even one region's node mask: numpy's MemoryError becomes a
        # one-line solver error, and nothing is written.
        config_path = _sample_copy(tmp_path / "exp")
        _edit_config(config_path, lambda c: c["domain"].update(x1_max=60000, x2_max=60000))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
            "from mapregister.cli import main\n"
            f"sys.exit(main(['run', '--config', {str(config_path)!r}]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout) == (4, "")
        assert re.fullmatch(
            r"error: out of memory in the field stage on the 60000x60000 grid \(3600000000 nodes\): "
            r"Unable to allocate [^\n]+\n",
            done.stderr,
        )
        assert not (tmp_path / "exp" / "out").exists()

    def test_transform_and_compare(self, tmp_path, capsys):
        base = tmp_path / "exp"
        write_experiment(base)
        out = tmp_path / "t.geojson"
        rc = cli_main(
            [
                "transform",
                "--correspondences", str(base / "correspondences.txt"),
                "--domain", "1", "1", "120", "90",
                "--curve", str(base / "probe.txt"),
                "--name", "probe",
                "--output", str(out),
            ]
        )
        assert rc == 0
        rc = cli_main(
            [
                "compare",
                "--curve-a", str(base / "main.geojson"),
                "--curve-b", str(out),
                "--bands", "10", "50",
                "--output", str(tmp_path / "cmp"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "cmp" / "matching.csv").is_file()

    @pytest.mark.parametrize(
        "domain",
        [["1", "1", "2", "2"], ["1", "1", "10.5", "10"], ["1", "1", "nan", "10"], ["1", "1", "10", "inf"]],
        ids=["2x2", "fractional", "nan", "inf"],
    )
    def test_bad_domain_flag_exits_2_before_any_output(self, tmp_path, domain):
        base = tmp_path / "exp"
        write_experiment(base)
        sets = ["--correspondences", str(base / "correspondences.txt"), "--domain", *domain]
        assert cli_main(["field", *sets, "--output", str(tmp_path / "f")]) == 2
        assert not (tmp_path / "f").exists()
        out = tmp_path / "t.geojson"
        assert cli_main(["transform", *sets, "--curve", str(base / "probe.txt"), "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("band", ["-5", "0", "nan", "inf"])
    def test_bad_bands_flag_exits_2_before_any_output(self, tmp_path, band):
        base = tmp_path / "exp"
        write_experiment(base)
        rc = cli_main(
            [
                "compare",
                "--curve-a", str(base / "main.geojson"),
                "--curve-b", str(base / "side.geojson"),
                "--bands", "10", band,
                "--output", str(tmp_path / "cmp"),
            ]
        )
        assert rc == 2
        assert not (tmp_path / "cmp").exists()

    @staticmethod
    def _argv(base, command, out):
        sets = ["--correspondences", str(base / "correspondences.txt")]
        domain = ["--domain", "1", "1", "120", "90"]
        return {
            "fit": ["fit", *sets, "--output", str(out)],
            "field": ["field", *sets, *domain, "--output", str(out)],
            "transform": ["transform", *sets, *domain, "--curve", str(base / "probe.txt"), "--output", str(out)],
            "compare": ["compare", "--curve-a", str(base / "main.geojson"), "--curve-b",
                        str(base / "side.geojson"), "--output", str(out)],
            "run": ["run", "--config", str(base / "experiment.yaml"), "--output", str(out)],
        }[command]

    REPORT_FILES = {"hausdorff.csv", "matching.csv", "sources.csv", "curves.csv", "report.txt", "report.json"}

    @pytest.mark.parametrize(
        "command, files",
        [
            ("fit", {"transform_errors_mean.csv", "transform_errors_max.csv", "transforms.json"}),
            ("field", {f"{p}.csv" for p in AffineParams.PARAM_NAMES}),
            ("transform", {"t.geojson"}),
            ("compare", REPORT_FILES),
            ("run", REPORT_FILES | {"transform_errors_mean.csv", "transform_errors_max.csv",
                                    "curves/probe.geojson", "curves/probe_up.geojson",
                                    "curves/probe_down.geojson"}),
        ],
        ids=["fit", "field", "transform", "compare", "run"],
    )
    def test_output_writes_exactly_these_files(self, tmp_path, command, files):
        base = tmp_path / "exp"
        write_experiment(base)
        out = tmp_path / "out"
        target = out / "t.geojson" if command == "transform" else out
        assert cli_main(self._argv(base, command, target)) == 0
        assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == files

    @pytest.mark.parametrize("command", ["run", "fit", "field", "transform"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        base = tmp_path / "exp"
        write_experiment(base)
        out = tmp_path / "out"
        if command == "run":
            # A file where the curve directory goes.
            out.mkdir()
            (out / "curves").write_text("")
        elif command == "transform":
            out.mkdir()  # a directory where the GeoJSON file goes
        else:
            out.write_text("")  # a file where the output directory goes
        assert cli_main(self._argv(base, command, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err

    def test_compare_report_txt_is_the_printed_report(self, tmp_path, capsys):
        base = tmp_path / "exp"
        write_experiment(base)
        out = tmp_path / "cmp"
        assert cli_main(self._argv(base, "compare", out)) == 0
        printed = capsys.readouterr().out
        assert printed == (out / "report.txt").read_text() + f"\nwrote metric tables to {out}\n"

    def test_run_report_txt_is_the_printed_report(self, tmp_path, capsys):
        base = tmp_path / "exp"
        write_experiment(base)
        out = tmp_path / "run"
        assert cli_main(self._argv(base, "run", out)) == 0
        printed = capsys.readouterr().out
        written = sum(p.is_file() for p in out.rglob("*"))
        assert printed == (out / "report.txt").read_text() + f"\nwrote {written} files to {out}\n"

    def test_compare_matches_run_on_sample_data(self, tmp_path):
        # `compare` on a reference curve and the transformed curve that `run`
        # wrote reproduces `run`'s rows for that pair.
        sample = _sample_copy(tmp_path / "sample").parent
        config = load_config(sample / "experiment.yaml")
        assert cli_main(["run", "--config", str(sample / "experiment.yaml"), "--output", str(tmp_path / "run")]) == 0
        argv = ["compare", "--curve-a", str(sample / "main_river.geojson"),
                "--curve-b", str(tmp_path / "run" / "curves" / "river.geojson"),
                "--bands", *map(str, config.bands_km), "--output", str(tmp_path / "cmp")]
        assert cli_main(argv) == 0

        def pair_rows(path):
            # Rows of the pair in either direction, and the average rows
            # that follow them in the matching table.
            rows, keep = [], False
            for row in csv.reader(path.read_text().splitlines()[1:]):
                names = {row[0], row[2] if path.name == "matching.csv" else row[1]}
                keep = names == {"main river", "river"} or (row[0] == "Average" and keep)
                if keep:
                    rows.append(row)
            return rows

        for table in ("hausdorff.csv", "matching.csv", "sources.csv"):
            want = pair_rows(tmp_path / "run" / table)
            assert want and pair_rows(tmp_path / "cmp" / table) == want, table

    def test_compare_default_bands(self, tmp_path, capsys):
        base = tmp_path / "exp"
        write_experiment(base)
        args = ["compare", "--curve-a", str(base / "main.geojson"), "--curve-b", str(base / "side.geojson")]
        assert cli_main(args) == 0
        default = capsys.readouterr().out
        assert cli_main(args + ["--bands", *map(str, DEFAULT_BANDS_KM)]) == 0
        assert capsys.readouterr().out == default

    def test_stadia_subcommand(self, capsys):
        assert cli_main(["stadia", "1000"]) == 0
        assert "177.7" in capsys.readouterr().out

    def test_field_subcommand(self, tmp_path, capsys):
        base = tmp_path / "exp"
        write_experiment(base)
        rc = cli_main(
            [
                "field",
                "--correspondences", str(base / "correspondences.txt"),
                "--domain", "1", "1", "120", "90",
                "--output", str(tmp_path / "fieldout"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "fieldout" / "b2.csv").is_file()
        printed = re.search(
            r"Dirichlet nodes, (\d+) CG iterations, max residual \S+, (\d+) right-hand sides",
            capsys.readouterr().out,
        )
        assert printed and int(printed.group(1)) >= 1
        assert int(printed.group(2)) == 2  # three regions: two harmonic measures


class TestBadNumbersInInputs:
    # A number that parses but is no valid coordinate exits 2 and names
    # the file and the line or position, before any output is written.
    def test_non_finite_pixel(self, tmp_path, capsys):
        config = _sample_copy(tmp_path / "exp")
        pixels = config.parent / "river_pixels.txt"
        lines = pixels.read_text().splitlines()
        lineno = next(k for k, line in enumerate(lines, 1) if line.strip() and not line.startswith("#"))
        lines[lineno - 1] = "nan 5"
        pixels.write_text("\n".join(lines) + "\n")
        assert cli_main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {pixels}:{lineno}: bad number (non-finite pixel coordinates (nan, 5.0))\n"
        assert not (config.parent / "out").exists()

    def test_infinite_correspondence_pixel(self, tmp_path, capsys):
        config = _sample_copy(tmp_path / "exp")
        corr = config.parent / "correspondences.txt"
        lines = corr.read_text().splitlines()
        assert lines[2].startswith("32.0 25.0 ")
        lines[2] = "inf" + lines[2][4:]
        corr.write_text("\n".join(lines) + "\n")
        assert cli_main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {corr}:3: bad number (non-finite pixel coordinates (inf, 25.0))\n"
        assert not (config.parent / "out").exists()

    def test_latitude_out_of_range_in_geojson(self, tmp_path, capsys):
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps({"type": "LineString", "coordinates": [[11.0, 46.0], [12.0, 95.0]]}))
        argv = ["compare", "--curve-a", str(bad), "--curve-b", str(SAMPLE_DATA / "side_river.geojson"),
                "--output", str(tmp_path / "cmp")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: bad position 1 (latitude 95.0 outside [-90, 90])\n"
        assert not (tmp_path / "cmp").exists()


class TestPolygonMode:
    # Sample data with the 2nd and 3rd landmarks of 'coast west' swapped:
    # in the given order the polygon crosses itself, its hull is the
    # original hexagon.
    @pytest.fixture
    def swapped(self, tmp_path):
        config = _sample_copy(tmp_path / "swapped")
        corr = config.parent / "correspondences.txt"
        lines = corr.read_text().splitlines()
        k = lines.index("set coast west")
        lines[k + 2], lines[k + 3] = lines[k + 3], lines[k + 2]
        corr.write_text("\n".join(lines) + "\n")
        return config

    def test_order_rejects_self_intersecting_polygon(self, swapped, capsys):
        assert cli_main(["run", "--config", str(swapped)]) == 3
        assert "polygon is self-intersecting" in capsys.readouterr().err

    def test_hull_reproduces_the_sample_run(self, tmp_path, swapped):
        swapped.write_text(swapped.read_text().replace("polygon_mode: order", "polygon_mode: hull"))
        assert cli_main(["run", "--config", str(swapped), "--output", str(tmp_path / "hull")]) == 0
        plain = _sample_copy(tmp_path / "plain")
        assert cli_main(["run", "--config", str(plain), "--output", str(tmp_path / "plain_out")]) == 0
        assert _tree(tmp_path / "hull") == _tree(tmp_path / "plain_out")

    def test_field_hull_flag_on_sample_data(self, capsys):
        argv = ["field", "--correspondences", str(SAMPLE_DATA / "correspondences.txt"), "--domain", "1", "1", "120", "90"]
        printed = []
        for extra in ([], ["--hull"]):
            assert cli_main(argv + extra) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0].startswith("solved 120x90 field")


class TestReadme:
    def test_library_use_block_runs(self, monkeypatch):
        # The fenced python block under the README's "Library use" heading,
        # run from the repository root as its relative paths expect.
        root = SAMPLE_DATA.parent
        section = (root / "README.md").read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        monkeypatch.chdir(root)
        namespace = {}
        exec(code, namespace)
        assert namespace["curve"].point_count == 2
