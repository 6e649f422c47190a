"""Experiment orchestration: fit, extend, transform, compare, report.

A run fits one affine per correspondence region plus a global transform
over the union set, cross-evaluates all of them on all sets, extends the
regional parameters harmonically over the configured pixel domain, pushes
every source curve through the resulting field, and measures the outcome
against the reference curves.  The report and curve files are rendered
before anything is written, so a failing stage writes nothing, but a
failing write leaves the files written before it; the field dump, if asked
for, is written last.  The CLI subcommands call the same stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from decimal import Decimal
from pathlib import Path

import numpy as np
import yaml

from .affine import (
    AffineParams,
    CorrespondenceSet,
    PixelPoint,
    affine_images,
    apply_affine,
    cross_errors_km,
    fit_affine,
)
from .curves import (
    BandThreshold,
    DiscreteCurve,
    DistanceProfile,
    anchor_min_distances,  # unused here; perfbench/tracing.py wraps it under this name
    anchor_min_distances_many,
    build_segments,
    source_distance,
    split_at_nearest_vertex,
)
from .errors import ConfigError, OutOfDomainError, OutOfRangeError, SolverError
from .field import (
    GridDomain,
    ParameterField,
    assemble_system,
    region_from_correspondences,
    sample_field,
    sample_grids,
    solve_field,
)
from .formats import (
    read_correspondences,
    read_geo_curve,
    read_pixel_curve,
    render_geojson_curve,
    write_field_dump,
    write_outputs,
)
from .geodesy import GeoPoint
from .report import (
    CurveInfo,
    HausdorffEntry,
    MatchingBand,
    MatchingEntry,
    MetricsReport,
    SourceEntry,
    TransformErrors,
    check_table_name,
    render_csv_tables,
    render_human,
    render_sidecar,
)

GLOBAL_NAME = "global"
#: Longest file name, in bytes, that common file systems accept.
MAX_FILE_NAME_BYTES = 255
DEFAULT_BANDS_KM = [10.0, 50.0, 100.0]

#: One stadium in kilometers, lower and upper bound.
STADIUM_KM_LOW = Decimal("0.1777")
STADIUM_KM_HIGH = Decimal("0.1973")


def stadia_to_km(n: float) -> tuple[float, float]:
    """Kilometer interval covered by n stadia."""
    if isinstance(n, float) and not math.isfinite(n):
        raise ConfigError(f"stadia count must be finite, got {n}")
    if n < 0:
        raise ConfigError(f"stadia count must be nonnegative, got {n}")
    d = Decimal(str(n))
    return float(d * STADIUM_KM_LOW), float(d * STADIUM_KM_HIGH)


@dataclass(frozen=True)
class CurveRef:
    name: str
    file: Path


@dataclass(frozen=True)
class SplitSpec:
    curve: str
    at: GeoPoint
    names: tuple[str, str]


@dataclass
class ProjectConfig:
    """Everything one experiment needs; see `load_config` for the schema."""

    correspondences: Path
    grid: GridDomain
    output_dir: Path
    regions: list[str] | None = None
    use_hull: bool = False
    source_curves: list[CurveRef] = dc_field(default_factory=list)
    reference_curves: list[CurveRef] = dc_field(default_factory=list)
    splits: list[SplitSpec] = dc_field(default_factory=list)
    comparisons: list[tuple[str, str]] = dc_field(default_factory=list)
    source_comparisons: list[tuple[str, str]] | None = None
    bands_km: list[float] = dc_field(default_factory=lambda: list(DEFAULT_BANDS_KM))
    dump_field: bool = False


#: The documented keys of a configuration, and of its nested mappings.
CONFIG_KEYS = frozenset({
    "domain", "correspondences", "regions", "polygon_mode", "source_curves",
    "reference_curves", "splits", "comparisons", "source_comparisons",
    "bands_km", "output_dir", "dump_field",
})
DOMAIN_KEYS = frozenset({"x1_min", "x2_min", "x1_max", "x2_max"})
CURVE_KEYS = frozenset({"name", "file"})
SPLIT_KEYS = frozenset({"curve", "lon", "lat", "names"})


def _check_keys(mapping, known: frozenset, where: str) -> None:
    # A misspelled key would otherwise be ignored and its default used.
    if isinstance(mapping, dict):
        unknown = [str(k) for k in mapping if k not in known]
        if unknown:
            raise ConfigError(f"{where}: unknown key '{unknown[0]}' (known: {', '.join(sorted(known))})")


def _list(mapping: dict, key: str, where: str) -> list:
    # A list-valued key; absent or null means an empty list.
    value = mapping.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{where}: '{key}' must be a list, got {type(value).__name__}")
    return value


def _existing_file(f: Path, what: str) -> Path:
    # `is_file` raises for a name the file system cannot hold.
    try:
        if f.is_file():
            return f
    except OSError as exc:
        raise ConfigError(f"{what} file {f} cannot be read ({exc.strerror})") from exc
    raise ConfigError(f"{what} file {f} does not exist")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _check_curve_name(name: str, where: str) -> str:
    # Curve names become output file names and CSV table cells.
    if not name or name in (".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{where}: invalid curve name {name!r}")
    if len(f"{name}.geojson".encode("utf-8", "surrogatepass")) > MAX_FILE_NAME_BYTES:
        raise ConfigError(
            f"{where}: curve name {name[:20]!r}... is too long for its output file name "
            f"'<name>.geojson' (at most {MAX_FILE_NAME_BYTES} bytes in UTF-8)"
        )
    return check_table_name(name, where)


def _number(value) -> float:
    # float() of a config value, which must be a YAML number: float() would
    # also take true and false as 1 and 0, and quoted numbers.
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def grid_domain(bounds, where: str) -> GridDomain:
    """The node grid whose corner node centers are the pixel bounds
    (x1_min, x2_min, x1_max, x2_max); it must span whole nodes, at least
    3x3 of them, and no more than a (nodes, 6) float64 array numpy can hold."""
    try:
        x1_min, x2_min, x1_max, x2_max = (_number(v) for v in bounds)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: bounds must be numbers") from exc
    n1 = x1_max - x1_min + 1
    n2 = x2_max - x2_min + 1
    if not all(math.isfinite(n) and abs(n - round(n)) <= 1e-9 and n >= 3 for n in (n1, n2)):
        raise ConfigError(f"{where}: must span whole nodes and at least 3x3")
    n1, n2 = int(round(n1)), int(round(n2))
    if 48 * n1 * n2 > np.iinfo(np.intp).max:
        raise ConfigError(f"{where}: a {n1}x{n2} grid's (nodes, 6) float64 field exceeds numpy's largest array")
    return GridDomain(PixelPoint(x1_min, x2_min), n1, n2)


def check_bands(bands, where: str) -> list[float]:
    """Band widths in km as floats; each must be positive and finite."""
    try:
        bands = [_number(b) for b in bands]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: band widths must be a list of numbers") from exc
    if not all(b > 0 and math.isfinite(b) for b in bands):
        raise ConfigError(f"{where}: band widths must be positive and finite")
    return bands


def load_config(path: str | Path) -> ProjectConfig:
    """Read and validate a YAML experiment configuration."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    base = path.parent
    _check_keys(raw, CONFIG_KEYS, str(path))
    # Absent or null keeps the default; an empty list is an error, not the default.
    for key in ("regions", "bands_km"):
        if raw.get(key) == []:
            raise ConfigError(f"{path}: '{key}' must not be empty (leave it out for the default)")

    dom = _require(raw, "domain", str(path))
    _check_keys(dom, DOMAIN_KEYS, f"{path}: domain")
    try:
        bounds = [dom[k] for k in ("x1_min", "x2_min", "x1_max", "x2_max")]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: domain needs numeric x1_min/x2_min/x1_max/x2_max") from exc
    grid = grid_domain(bounds, f"{path}: domain")

    corr = _existing_file(base / str(_require(raw, "correspondences", str(path))), f"{path}: correspondence")

    def curve_refs(key: str) -> list[CurveRef]:
        refs = []
        for item in _list(raw, key, str(path)):
            if not isinstance(item, dict) or "name" not in item or "file" not in item:
                raise ConfigError(f"{path}: every {key} entry needs 'name' and 'file'")
            _check_keys(item, CURVE_KEYS, f"{path}: {key} entry")
            f = _existing_file(base / str(item["file"]), f"{path}: {key}")
            refs.append(CurveRef(_check_curve_name(str(item["name"]), str(path)), f))
        return refs

    splits = []
    for item in _list(raw, "splits", str(path)):
        _check_keys(item, SPLIT_KEYS, f"{path}: splits entry")
        try:
            at = GeoPoint(_number(item["lon"]), _number(item["lat"]))
            if not isinstance(item["names"], list) or len(item["names"]) != 2:
                raise ValueError("names must be a list of two names")
            names = tuple(_check_curve_name(str(n), str(path)) for n in item["names"])
            splits.append(SplitSpec(str(item["curve"]), at, names))
        except (KeyError, TypeError, ValueError, OverflowError, OutOfRangeError) as exc:
            raise ConfigError(f"{path}: bad splits entry {item!r} ({exc})") from exc

    def pair_list(key: str):
        pairs = []
        for item in _list(raw, key, str(path)):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigError(f"{path}: every {key} entry must be a pair [A, B]")
            pairs.append((str(item[0]), str(item[1])))
        return pairs

    bands = check_bands(_list(raw, "bands_km", str(path)) or DEFAULT_BANDS_KM, f"{path}: bands_km")

    dump_field = raw.get("dump_field", False)
    if not isinstance(dump_field, bool):
        raise ConfigError(f"{path}: dump_field must be true or false, got {dump_field!r}")

    polygon_mode = str(raw.get("polygon_mode", "order"))
    if polygon_mode not in ("order", "hull"):
        raise ConfigError(f"{path}: polygon_mode must be 'order' or 'hull'")

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"{path}: output_dir must be a string, got {type(output_dir).__name__}")

    regions = None if raw.get("regions") is None else [str(r) for r in _list(raw, "regions", str(path))]

    return ProjectConfig(
        correspondences=corr,
        grid=grid,
        output_dir=base / output_dir,
        regions=regions,
        use_hull=polygon_mode == "hull",
        source_curves=curve_refs("source_curves"),
        reference_curves=curve_refs("reference_curves"),
        splits=splits,
        comparisons=pair_list("comparisons"),
        source_comparisons=pair_list("source_comparisons") or None,
        bands_km=bands,
        dump_field=dump_field,
    )


def select_sets(all_sets: list[CorrespondenceSet], names: list[str] | None) -> list[CorrespondenceSet]:
    if names is None:
        return list(all_sets)
    by_name = {s.name: s for s in all_sets}
    missing = [n for n in names if n not in by_name]
    if missing:
        raise ConfigError(f"correspondence sets not found: {', '.join(missing)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"correspondence sets selected more than once: {', '.join(repeated)}")
    return [by_name[n] for n in names]


def fit_with_global(sets: list[CorrespondenceSet]) -> tuple[dict[str, AffineParams], TransformErrors]:
    """Per-region fits plus the union-set transform, cross-evaluated on all
    sets (rows: transforms, columns: evaluation sets, 'global' last)."""
    if any(s.name == GLOBAL_NAME for s in sets):
        raise ConfigError(f"'{GLOBAL_NAME}' is reserved for the union transform")
    fits = {s.name: fit_affine(s) for s in sets}
    union = sets[0].merged_with(sets[1:], GLOBAL_NAME)
    fits[GLOBAL_NAME] = fit_affine(union)
    eval_sets = list(sets) + [union]
    names = [s.name for s in eval_sets]
    mean_km, max_km = cross_errors_km([fits[t] for t in names], eval_sets)
    return fits, TransformErrors(list(names), list(names), mean_km, max_km)


def build_field(
    sets: list[CorrespondenceSet],
    grid: GridDomain,
    fits: dict[str, AffineParams],
    use_hull: bool = False,
) -> ParameterField:
    regions = [
        region_from_correspondences(s, fits[s.name], use_hull=use_hull) for s in sets
    ]
    try:
        return solve_field(assemble_system(grid, regions))
    except MemoryError as exc:
        grid_size = f"{grid.n1}x{grid.n2} grid ({grid.node_count} nodes)"
        raise SolverError(f"out of memory in the field stage on the {grid_size}: {exc}") from exc


def transform_curve(f: ParameterField, pixels: list[PixelPoint], name: str = "") -> DiscreteCurve:
    """Sample the field at every pixel center and apply the local affine, on
    arrays; the first failing pixel is redone by `sample_field` and
    `apply_affine`, whose error is raised naming the curve and the point."""
    x = np.array([(p.x1, p.x2) for p in pixels], dtype=float).reshape(-1, 2)
    params, inside = sample_grids(f, x)
    images, valid = affine_images(params, x)
    bad = ~(inside & valid)
    if bad.any():
        idx = int(bad.argmax())
        try:
            apply_affine(sample_field(f, pixels[idx]), pixels[idx])
        except (OutOfDomainError, OutOfRangeError) as exc:
            raise type(exc)(f"curve '{name}', point {idx}: {exc}") from exc
    return build_segments(images, name)


def compare_pair(
    a: DiscreteCurve, b: DiscreteCurve, bands_km: list[float]
) -> tuple[HausdorffEntry, MatchingEntry]:
    """All pair metrics from one distance profile per direction; `measure`
    on one pair."""
    report = measure([], [(a, b)], [], bands_km, TransformErrors([], [], [], []))
    return report.hausdorff[0], report.matching[0]


def measure(
    curves: list[DiscreteCurve],
    pairs: list[tuple[DiscreteCurve, DiscreteCurve]],
    source_pairs: list[tuple[DiscreteCurve, DiscreteCurve]],
    bands_km: list[float],
    errors: TransformErrors,
) -> MetricsReport:
    """The metric tables: Hausdorff and matching rows for every pair, a
    source distance for every source pair, a summary row for every curve.
    One anchor pass measures both directions of every pair."""
    report = MetricsReport(transform_errors=errors, bands_km=list(bands_km))
    dists = anchor_min_distances_many([d for a, b in pairs for d in ((a, b), (b, a))])
    for (a, b), d_ab, d_ba in zip(pairs, dists[0::2], dists[1::2]):
        p_ab, p_ba = DistanceProfile(a, d_ab), DistanceProfile(b, d_ba)
        la_km, lb_km = a.length / 1000.0, b.length / 1000.0
        report.hausdorff.append(
            HausdorffEntry(
                a=a.name,
                b=b.name,
                length_a_km=la_km,
                length_b_km=lb_km,
                dir_max_ab_km=p_ab.max() / 1000.0,
                dir_max_ba_km=p_ba.max() / 1000.0,
                dir_mean_ab_km=p_ab.mean() / 1000.0,
                dir_mean_ba_km=p_ba.mean() / 1000.0,
            )
        )
        bands = []
        for km in bands_km:
            t = BandThreshold.from_km(km)
            lm_ab, pct_ab = p_ab.within(t.meters)
            lm_ba, pct_ba = p_ba.within(t.meters)
            bands.append(MatchingBand(km, lm_ab / 1000.0, pct_ab, lm_ba / 1000.0, pct_ba))
        report.matching.append(MatchingEntry(a.name, b.name, la_km, lb_km, bands))
    report.sources = [SourceEntry(a.name, b.name, source_distance(a, b)) for a, b in source_pairs]
    report.curves = [CurveInfo(c.name, c.point_count, c.length / 1000.0) for c in curves]
    return report


def report_files(report: MetricsReport) -> dict[str, str]:
    """File name -> text of every report file: the CSV tables, `report.txt`
    and the full-precision `report.json`."""
    files = dict(render_csv_tables(report))
    files["report.txt"] = render_human(report)
    files["report.json"] = render_sidecar(report)
    return files


@dataclass
class RunResult:
    report: MetricsReport
    field: ParameterField
    curves: dict[str, DiscreteCurve]
    outputs: list[Path]


def run_experiment(config: ProjectConfig) -> RunResult:
    """Execute a full experiment and write its reports and curve files."""
    sets = select_sets(read_correspondences(config.correspondences), config.regions)
    fits, errors_table = fit_with_global(sets)
    fld = build_field(sets, config.grid, fits, use_hull=config.use_hull)

    curves: dict[str, DiscreteCurve] = {}
    transformed: list[str] = []

    def register(curve: DiscreteCurve, is_transformed: bool):
        if curve.name in curves:
            raise ConfigError(f"duplicate curve name '{curve.name}'")
        curves[curve.name] = curve
        if is_transformed:
            transformed.append(curve.name)

    for ref in config.source_curves:
        pixels = read_pixel_curve(ref.file)
        register(transform_curve(fld, pixels, ref.name), True)
    for ref in config.reference_curves:
        _, pts = read_geo_curve(ref.file)
        register(build_segments(pts, ref.name), False)
    for split in config.splits:
        if split.curve not in curves:
            raise ConfigError(f"split references unknown curve '{split.curve}'")
        parent_transformed = split.curve in transformed
        first, second = split_at_nearest_vertex(curves[split.curve], split.at, split.names)
        register(first, parent_transformed)
        register(second, parent_transformed)

    def lookup(name: str) -> DiscreteCurve:
        if name not in curves:
            raise ConfigError(
                f"comparison references unknown curve '{name}' "
                f"(known: {', '.join(sorted(curves))})"
            )
        return curves[name]

    report = measure(
        list(curves.values()),
        [(lookup(a), lookup(b)) for a, b in config.comparisons],
        [(lookup(a), lookup(b)) for a, b in config.source_comparisons or config.comparisons],
        config.bands_km,
        errors_table,
    )

    # Render everything first; only then touch the filesystem.
    files = report_files(report)
    for name in transformed:
        files[f"curves/{name}.geojson"] = render_geojson_curve(curves[name])
    outdir = Path(config.output_dir)
    outputs = write_outputs({outdir / rel: text for rel, text in files.items()})
    if config.dump_field:
        outputs.extend(write_field_dump(fld, outdir / "field"))
    return RunResult(report, fld, curves, outputs)
