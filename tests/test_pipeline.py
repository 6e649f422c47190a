import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapregister.affine import AffineParams, PixelPoint, apply_affine
from mapregister.cli import main as cli_main
from mapregister.errors import ConfigError, DegenerateCurveError, OutOfDomainError
from mapregister.field import DirichletRegion, GridDomain, assemble_system, solve_field
from mapregister.formats import (
    read_correspondences,
    read_field_dump,
    read_geo_curve,
    read_pixel_curve,
    write_correspondences,
    write_field_dump,
    write_geo_curve,
    write_pixel_curve,
)
from mapregister.geodesy import GeoPoint
from mapregister.pipeline import (
    fit_with_global,
    load_config,
    run_experiment,
    stadia_to_km,
    transform_curve,
)
from mapregister.report import (
    HausdorffEntry,
    MatchingBand,
    MatchingEntry,
    MetricsReport,
    TransformErrors,
    average_row_faces,
    km_face,
    pct_face,
    render_csv_tables,
    render_human,
)

from synth import (
    EXPERIMENT_REGIONS,
    random_affine,
    random_pixels,
    ring_pixels,
    synth_set,
    write_experiment,
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

    def test_field_dump_round_trip(self, tmp_path):
        grid = GridDomain(PixelPoint(1, 1), 12, 9)
        region = DirichletRegion(ring_pixels(6.0, 5.0, 2.5), AffineParams(1, 2, 3, 4, 5, 6))
        field = solve_field(assemble_system(grid, [region]))
        write_field_dump(field, tmp_path)
        a1 = read_field_dump(tmp_path / "a1.csv")
        assert a1.shape == (12, 9)
        assert (a1 == field.params[:, :, 0]).all()


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


class TestReportFormatting:
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

    def test_empty_curve_rejected(self):
        field = self.build_constant_field(AffineParams(0.02, 0, 0, -0.02, 10, 50))
        with pytest.raises(DegenerateCurveError):
            transform_curve(field, [], "c")


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
            'dump_field: "false"',
            "dump_field: 1",
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

    def test_dump_field_accepts_yaml_booleans(self, tmp_path):
        config_path, _ = write_experiment(tmp_path / "exp")
        for value, want in (("false", False), ("true", True), ("no", False)):
            config_path.write_text(config_path.read_text().split("dump_field")[0] + f"dump_field: {value}\n")
            assert load_config(config_path).dump_field is want


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        config_path, _ = write_experiment(tmp_path / "exp")
        assert cli_main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "Hausdorff distances" in out
        assert cli_main(["run", "--config", str(tmp_path / "missing.yaml")]) == 2

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

    def test_fit_degenerate_exit_code(self, tmp_path):
        corr = tmp_path / "corr.txt"
        corr.write_text("set a\n1 1 0 0\n2 2 0.1 0.1\n3 3 0.2 0.2\n4 4 0.3 0.3\n")
        assert cli_main(["fit", "--correspondences", str(corr)]) == 3

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
