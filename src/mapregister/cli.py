"""Command-line interface.

Subcommands: fit, field, transform, compare, run, stadia.  Exit codes:
0 success, 2 configuration/input errors, 3 degenerate geometry or domain
violations, 4 solver failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .affine import AffineParams
from .curves import build_segments
from .errors import MapRegisterError
from .formats import (
    read_correspondences,
    read_geo_curve,
    read_pixel_curve,
    render_geojson_curve,
    write_field_dump,
    write_outputs,
)
from .pipeline import (
    DEFAULT_BANDS_KM,
    build_field,
    check_bands,
    fit_with_global,
    grid_domain,
    load_config,
    measure,
    report_files,
    run_experiment,
    select_sets,
    stadia_to_km,
    transform_curve,
)
from .report import MetricsReport, TransformErrors, check_table_name, km_face


def _fit(args):
    sets = select_sets(read_correspondences(args.correspondences), args.sets)
    fits, table = fit_with_global(sets)
    return sets, fits, table


def _field(args):
    sets, fits, _ = _fit(args)
    return build_field(sets, grid_domain(args.domain, "--domain"), fits, use_hull=args.hull)


def cmd_fit(args) -> int:
    _, fits, table = _fit(args)
    files = report_files(MetricsReport(transform_errors=table, bands_km=[]))
    print(files["report.txt"])
    if args.output:
        outdir = Path(args.output)
        params = {name: dict(zip(AffineParams.PARAM_NAMES, t.as_tuple())) for name, t in fits.items()}
        files["transforms.json"] = json.dumps(params, indent=2) + "\n"
        names = ("transform_errors_mean.csv", "transform_errors_max.csv", "transforms.json")
        write_outputs({outdir / name: files[name] for name in names})
        print(f"wrote {outdir}/{', '.join(names)}")
    return 0


def cmd_field(args) -> int:
    fld = _field(args)
    n_dirichlet = int(fld.dirichlet_mask.sum())
    print(
        f"solved {fld.grid.n1}x{fld.grid.n2} field: {n_dirichlet} Dirichlet nodes, "
        f"{fld.iterations} CG iterations, max residual {fld.residual:.3e}, "
        f"{fld.columns} right-hand sides"
    )
    if args.output:
        written = write_field_dump(fld, Path(args.output))
        print(f"wrote {len(written)} parameter grids to {args.output}")
    return 0


def cmd_transform(args) -> int:
    fld = _field(args)
    pixels = read_pixel_curve(args.curve)
    curve = transform_curve(fld, pixels, args.name or Path(args.curve).stem)
    write_outputs({Path(args.output): render_geojson_curve(curve)})
    print(f"transformed {curve.point_count} points, length {km_face(curve.length / 1000.0)} km")
    print(f"wrote {args.output}")
    return 0


def cmd_compare(args) -> int:
    bands = check_bands(args.bands, "--bands")
    name_a, pts_a = read_geo_curve(args.curve_a)
    name_b, pts_b = read_geo_curve(args.curve_b)
    a = build_segments(pts_a, check_table_name(args.name_a or name_a, "curve A"))
    b = build_segments(pts_b, check_table_name(args.name_b or name_b, "curve B"))
    report = measure([a, b], [(a, b)], [(a, b)], bands, TransformErrors([], [], [], []))
    files = report_files(report)
    print(files["report.txt"])
    if args.output:
        outdir = Path(args.output)
        write_outputs({outdir / n: text for n, text in files.items() if not n.startswith("transform_errors")})
        print(f"wrote metric tables to {outdir}")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    if args.output:
        config.output_dir = Path(args.output)
    result = run_experiment(config)
    print((Path(config.output_dir) / "report.txt").read_text())
    print(f"wrote {len(result.outputs)} files to {config.output_dir}")
    return 0


def cmd_stadia(args) -> int:
    lo, hi = stadia_to_km(args.count)
    print(f"{args.count:g} stadia = {lo:g} - {hi:g} km")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapregister",
        description="Landmark-based map registration and geodesic curve comparison.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sets_args(p):
        p.add_argument("--correspondences", required=True, help="correspondence records file")
        p.add_argument("--sets", nargs="+", help="region names to use (default: all sets)")

    def add_domain_arg(p):
        p.add_argument(
            "--domain",
            nargs=4,
            type=float,
            required=True,
            metavar=("X1MIN", "X2MIN", "X1MAX", "X2MAX"),
            help="pixel rectangle of grid node centers",
        )
        p.add_argument("--hull", action="store_true", help="use convex hulls as region polygons")

    p = sub.add_parser("fit", help="fit per-set and global transforms, report errors")
    add_sets_args(p)
    p.add_argument("--output", help="directory for error tables and transforms.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("field", help="solve the parameter field, optionally dump grids")
    add_sets_args(p)
    add_domain_arg(p)
    p.add_argument("--output", help="directory for per-parameter CSV dumps")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("transform", help="transform a pixel curve to WGS84")
    add_sets_args(p)
    add_domain_arg(p)
    p.add_argument("--curve", required=True, help="pixel polyline file")
    p.add_argument("--name", help="output curve name (default: file stem)")
    p.add_argument("--output", required=True, help="output GeoJSON path")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("compare", help="metric tables for two geo curves")
    p.add_argument("--curve-a", required=True, help="GeoJSON LineString")
    p.add_argument("--curve-b", required=True, help="GeoJSON LineString")
    p.add_argument("--name-a", help="override curve A name")
    p.add_argument("--name-b", help="override curve B name")
    p.add_argument(
        "--bands", nargs="+", type=float, default=DEFAULT_BANDS_KM, help="band widths in km"
    )
    p.add_argument("--output", help="directory for the metric tables and reports")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("--config", required=True, help="YAML experiment configuration")
    p.add_argument("--output", help="override the configured output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stadia", help="convert a stadia count to kilometers")
    p.add_argument("count", type=float, help="number of stadia")
    p.set_defaults(func=cmd_stadia)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MapRegisterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
