"""Experiment orchestration: fit, extend, transform, compare, report.

A run fits one affine per correspondence region plus a global transform
over the union set, cross-evaluates all of them on all sets, extends the
regional parameters harmonically over the configured pixel domain, pushes
every source curve through the resulting field, and measures the outcome
against the reference curves.  All file contents are rendered before
anything is written, so a failing stage leaves no partial outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from decimal import Decimal
from pathlib import Path

import yaml

from .affine import AffineParams, CorrespondenceSet, PixelPoint, apply_affine, fit_affine, max_error, mean_error
from .curves import (
    BandThreshold,
    DiscreteCurve,
    anchor_min_distances,
    build_segments,
    source_distance,
    split_at_nearest_vertex,
)
from .errors import ConfigError, OutOfDomainError
from .field import (
    DirichletRegion,
    GridDomain,
    ParameterField,
    assemble_system,
    region_from_correspondences,
    sample_field,
    solve_field,
)
from .formats import (
    read_correspondences,
    read_geo_curve,
    read_pixel_curve,
    render_geojson_curve,
    write_field_dump,
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
    render_csv_tables,
    render_human,
    render_sidecar,
)

GLOBAL_NAME = "global"
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
    domain_origin: PixelPoint
    domain_n1: int
    domain_n2: int
    output_dir: Path
    regions: list[str] | None = None
    polygon_mode: str = "order"
    source_curves: list[CurveRef] = dc_field(default_factory=list)
    reference_curves: list[CurveRef] = dc_field(default_factory=list)
    splits: list[SplitSpec] = dc_field(default_factory=list)
    comparisons: list[tuple[str, str]] = dc_field(default_factory=list)
    source_comparisons: list[tuple[str, str]] | None = None
    bands_km: list[float] = dc_field(default_factory=lambda: list(DEFAULT_BANDS_KM))
    dump_field: bool = False

    @property
    def use_hull(self) -> bool:
        return self.polygon_mode == "hull"


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _check_curve_name(name: str, where: str) -> str:
    # Curve names become output file names.
    if not name or name in (".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{where}: invalid curve name {name!r}")
    return name


def load_config(path: str | Path) -> ProjectConfig:
    """Read and validate a YAML experiment configuration."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    base = path.parent

    dom = _require(raw, "domain", str(path))
    try:
        x1_min = float(dom["x1_min"])
        x2_min = float(dom["x2_min"])
        x1_max = float(dom["x1_max"])
        x2_max = float(dom["x2_max"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: domain needs numeric x1_min/x2_min/x1_max/x2_max") from exc
    n1 = x1_max - x1_min + 1
    n2 = x2_max - x2_min + 1
    if abs(n1 - round(n1)) > 1e-9 or abs(n2 - round(n2)) > 1e-9 or n1 < 3 or n2 < 3:
        raise ConfigError(f"{path}: domain must span whole nodes and at least 3x3")

    corr = base / str(_require(raw, "correspondences", str(path)))
    if not corr.is_file():
        raise ConfigError(f"{path}: correspondence file {corr} does not exist")

    def curve_refs(key: str) -> list[CurveRef]:
        refs = []
        for item in raw.get(key, []) or []:
            if not isinstance(item, dict) or "name" not in item or "file" not in item:
                raise ConfigError(f"{path}: every {key} entry needs 'name' and 'file'")
            f = base / str(item["file"])
            if not f.is_file():
                raise ConfigError(f"{path}: {key} file {f} does not exist")
            refs.append(CurveRef(_check_curve_name(str(item["name"]), str(path)), f))
        return refs

    splits = []
    for item in raw.get("splits", []) or []:
        try:
            at = GeoPoint(float(item["lon"]), float(item["lat"]))
            names = tuple(_check_curve_name(str(n), str(path)) for n in item["names"])
            if len(names) != 2:
                raise ValueError("names must have two entries")
            splits.append(SplitSpec(str(item["curve"]), at, names))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad split entry {item!r} ({exc})") from exc

    def pair_list(key: str):
        pairs = []
        for item in raw.get(key) or []:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigError(f"{path}: every {key} entry must be a pair [A, B]")
            pairs.append((str(item[0]), str(item[1])))
        return pairs

    try:
        bands = [float(b) for b in raw.get("bands_km") or DEFAULT_BANDS_KM]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bands_km must be a list of numbers") from exc
    if not all(b > 0 and math.isfinite(b) for b in bands):
        raise ConfigError(f"{path}: bands_km must be positive and finite")

    dump_field = raw.get("dump_field", False)
    if not isinstance(dump_field, bool):
        raise ConfigError(f"{path}: dump_field must be true or false, got {dump_field!r}")

    polygon_mode = str(raw.get("polygon_mode", "order"))
    if polygon_mode not in ("order", "hull"):
        raise ConfigError(f"{path}: polygon_mode must be 'order' or 'hull'")

    regions = raw.get("regions")
    if regions is not None:
        regions = [str(r) for r in regions]

    return ProjectConfig(
        correspondences=corr,
        domain_origin=PixelPoint(x1_min, x2_min),
        domain_n1=int(round(n1)),
        domain_n2=int(round(n2)),
        output_dir=base / str(raw.get("output_dir", "out")),
        regions=regions,
        polygon_mode=polygon_mode,
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
    mean_m = [[mean_error(fits[t], s) for s in eval_sets] for t in names]
    max_m = [[max_error(fits[t], s) for s in eval_sets] for t in names]
    return fits, TransformErrors(list(names), list(names), mean_m, max_m)


def build_field(
    sets: list[CorrespondenceSet],
    grid: GridDomain,
    fits: dict[str, AffineParams],
    use_hull: bool = False,
) -> ParameterField:
    regions = [
        region_from_correspondences(s, fits[s.name], use_hull=use_hull) for s in sets
    ]
    return solve_field(assemble_system(grid, regions))


def transform_curve(f: ParameterField, pixels: list[PixelPoint], name: str = "") -> DiscreteCurve:
    """Sample the field at every pixel center and apply the local affine."""
    geo = []
    for idx, p in enumerate(pixels):
        try:
            params = sample_field(f, p)
        except OutOfDomainError as exc:
            raise OutOfDomainError(f"curve '{name}', point {idx}: {exc}") from exc
        geo.append(apply_affine(params, p))
    return build_segments(geo, name)


def compare_pair(
    a: DiscreteCurve, b: DiscreteCurve, bands_km: list[float]
) -> tuple[HausdorffEntry, MatchingEntry]:
    """All pair metrics from one distance pass per direction."""
    d_ab = anchor_min_distances(a, b)
    d_ba = anchor_min_distances(b, a)
    la_km = a.length / 1000.0
    lb_km = b.length / 1000.0
    seg_ab = [s.length for s in a.segments]
    seg_ba = [s.length for s in b.segments]

    hd = HausdorffEntry(
        a=a.name,
        b=b.name,
        length_a_km=la_km,
        length_b_km=lb_km,
        dir_max_ab_km=max(d_ab) / 1000.0,
        dir_max_ba_km=max(d_ba) / 1000.0,
        dir_mean_ab_km=sum(l * d for l, d in zip(seg_ab, d_ab)) / a.length / 1000.0,
        dir_mean_ba_km=sum(l * d for l, d in zip(seg_ba, d_ba)) / b.length / 1000.0,
    )
    bands = []
    for km in bands_km:
        t = BandThreshold.from_km(km)
        lm_ab = sum(l for l, d in zip(seg_ab, d_ab) if d < t.meters)
        lm_ba = sum(l for l, d in zip(seg_ba, d_ba) if d < t.meters)
        bands.append(
            MatchingBand(
                band_km=km,
                lm_ab_km=lm_ab / 1000.0,
                pct_ab=100.0 * lm_ab / a.length,
                lm_ba_km=lm_ba / 1000.0,
                pct_ba=100.0 * lm_ba / b.length,
            )
        )
    return hd, MatchingEntry(a.name, b.name, la_km, lb_km, bands)


@dataclass
class RunResult:
    report: MetricsReport
    field: ParameterField
    curves: dict[str, DiscreteCurve]
    transformed_names: list[str]
    outputs: list[Path]


def run_experiment(config: ProjectConfig) -> RunResult:
    """Execute a full experiment and write its reports and curve files."""
    sets = select_sets(read_correspondences(config.correspondences), config.regions)
    fits, errors_table = fit_with_global(sets)
    grid = GridDomain(config.domain_origin, config.domain_n1, config.domain_n2)
    fld = build_field(sets, grid, fits, use_hull=config.use_hull)

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

    report = MetricsReport(transform_errors=errors_table, bands_km=list(config.bands_km))
    for a_name, b_name in config.comparisons:
        hd, ml = compare_pair(lookup(a_name), lookup(b_name), config.bands_km)
        report.hausdorff.append(hd)
        report.matching.append(ml)
    for a_name, b_name in config.source_comparisons or config.comparisons:
        report.sources.append(
            SourceEntry(a_name, b_name, source_distance(lookup(a_name), lookup(b_name)))
        )
    report.curves = [
        CurveInfo(c.name, c.point_count, c.length / 1000.0) for c in curves.values()
    ]

    # Render everything first; only then touch the filesystem.
    files: dict[str, str] = dict(render_csv_tables(report))
    files["report.txt"] = render_human(report)
    files["report.json"] = render_sidecar(report)
    for name in transformed:
        files[f"curves/{name}.geojson"] = render_geojson_curve(curves[name])

    outdir = Path(config.output_dir)
    outputs = []
    for rel, content in files.items():
        target = outdir / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
        outputs.append(target)
    if config.dump_field:
        outputs.extend(write_field_dump(fld, outdir / "field"))

    return RunResult(report, fld, curves, transformed, outputs)
