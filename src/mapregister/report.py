"""Metric tables: fixed-precision rendering with emit-time self-checks.

Kilometers are printed with 3 decimals and percentages with 1 decimal,
rounding half up.  Combined columns (two-direction maxima, length-weighted
means, average rows) are recomputed *from the printed directed values* in
decimal arithmetic, so every combined figure in a table is exactly
reproducible from the directed figures next to it; a cross-check against
the full-precision formula guards against drift.  `report.txt` is laid out
from the same rows of printed cells as the CSV tables, so each printed
figure is rounded and self-checked in one place.  Full-precision values go
to a JSON sidecar.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dc_field
from decimal import ROUND_HALF_UP, Decimal

from .errors import ConfigError, MapRegisterError


class ReportConsistencyError(MapRegisterError):
    """A combined table value failed its emit-time self-check."""


#: Characters that would split or break a cell of the unquoted CSV tables.
CSV_UNSAFE = ',"\n\r'


def check_table_name(name: str, where: str) -> str:
    """Return a curve or set name unchanged if it can be a CSV table cell
    as is; a comma, double quote or line break would shift the columns."""
    if any(c in name for c in CSV_UNSAFE):
        raise ConfigError(
            f"{where}: name {name!r} has a comma, double quote or line break, "
            "which a CSV table cell cannot hold"
        )
    return name


_KM_Q = Decimal("0.001")
_PCT_Q = Decimal("0.1")


def _half_up(d: Decimal, quantum: Decimal) -> str:
    return str(d.quantize(quantum, rounding=ROUND_HALF_UP))


def km_face(v: float) -> str:
    """Kilometers at table precision (3 decimals, half-up)."""
    return _half_up(Decimal(repr(float(v))), _KM_Q)


def pct_face(v: float) -> str:
    """Percent at table precision (1 decimal, half-up)."""
    return _half_up(Decimal(repr(float(v))), _PCT_Q)


@dataclass
class TransformErrors:
    """Cross-evaluation matrix: one row per transform, one column per set."""

    transform_names: list[str]
    set_names: list[str]
    mean_km: list[list[float]]
    max_km: list[list[float]]


@dataclass
class HausdorffEntry:
    a: str
    b: str
    length_a_km: float
    length_b_km: float
    dir_max_ab_km: float
    dir_max_ba_km: float
    dir_mean_ab_km: float
    dir_mean_ba_km: float

    @property
    def max_km(self) -> float:
        return max(self.dir_max_ab_km, self.dir_max_ba_km)

    @property
    def mean_km(self) -> float:
        return (
            self.length_a_km * self.dir_mean_ab_km + self.length_b_km * self.dir_mean_ba_km
        ) / (self.length_a_km + self.length_b_km)


@dataclass
class MatchingBand:
    band_km: float
    lm_ab_km: float
    pct_ab: float
    lm_ba_km: float
    pct_ba: float

    def average_km(self) -> float:
        return (self.lm_ab_km + self.lm_ba_km) / 2.0

    def average_pct(self, length_a_km: float, length_b_km: float) -> float:
        return 100.0 * ((self.lm_ab_km + self.lm_ba_km) / (length_a_km + length_b_km))


@dataclass
class MatchingEntry:
    a: str
    b: str
    length_a_km: float
    length_b_km: float
    bands: list[MatchingBand]


@dataclass
class SourceEntry:
    a: str
    b: str
    distance_km: float


@dataclass
class CurveInfo:
    name: str
    point_count: int
    length_km: float


@dataclass
class MetricsReport:
    transform_errors: TransformErrors
    bands_km: list[float]
    hausdorff: list[HausdorffEntry] = dc_field(default_factory=list)
    matching: list[MatchingEntry] = dc_field(default_factory=list)
    sources: list[SourceEntry] = dc_field(default_factory=list)
    curves: list[CurveInfo] = dc_field(default_factory=list)


def combined_max_face(dir_ab_face: str, dir_ba_face: str) -> str:
    return _half_up(max(Decimal(dir_ab_face), Decimal(dir_ba_face)), _KM_Q)


def combined_mean_face(dab_face: str, dba_face: str, la_face: str, lb_face: str) -> str:
    la, lb = Decimal(la_face), Decimal(lb_face)
    return _half_up((la * Decimal(dab_face) + lb * Decimal(dba_face)) / (la + lb), _KM_Q)


def average_row_faces(lm_ab_face: str, lm_ba_face: str, la_face: str, lb_face: str) -> tuple[str, str]:
    """Matching-table average row, value and percent, from printed figures."""
    lab, lba = Decimal(lm_ab_face), Decimal(lm_ba_face)
    la, lb = Decimal(la_face), Decimal(lb_face)
    return _half_up((lab + lba) / 2, _KM_Q), _half_up(100 * (lab + lba) / (la + lb), _PCT_Q)


def _cross_check(face: str, full: float, tol: float, what: str) -> None:
    if abs(float(Decimal(face)) - full) > tol:
        raise ReportConsistencyError(
            f"{what}: printed {face} differs from full-precision {full!r} by more than {tol}"
        )


def _table_rows(report: MetricsReport) -> dict[str, list[list[str]]]:
    # Every table as rows of printed cells, header first, keyed by CSV file
    # name: the one place where a figure is rounded, a combined figure is
    # recomputed from the printed ones and cross-checked.
    te = report.transform_errors
    tables = {}
    for kind, matrix in (("mean", te.mean_km), ("max", te.max_km)):
        # With no sets the header still has its one (empty) set column.
        tables[f"transform_errors_{kind}.csv"] = [["transform", *(te.set_names or [""])]] + [
            [name, *map(km_face, row)] for name, row in zip(te.transform_names, matrix)
        ]

    rows = [["A", "B", "L_A_km", "L_B_km", "dir_max_AB_km", "dir_max_BA_km", "max_km",
             "dir_mean_AB_km", "dir_mean_BA_km", "mean_km"]]
    for e in report.hausdorff:
        la, lb, max_ab, max_ba, mean_ab, mean_ba = map(km_face, (
            e.length_a_km, e.length_b_km, e.dir_max_ab_km, e.dir_max_ba_km, e.dir_mean_ab_km, e.dir_mean_ba_km
        ))
        max_face = combined_max_face(max_ab, max_ba)
        mean_face = combined_mean_face(mean_ab, mean_ba, la, lb)
        # Rounded inputs shift the weighted mean by the input quantum plus a
        # weight perturbation proportional to the directed spread.
        spread = abs(e.dir_mean_ab_km - e.dir_mean_ba_km)
        tol = 0.0011 + 0.0011 * spread / (e.length_a_km + e.length_b_km)
        _cross_check(max_face, e.max_km, 0.0011, f"max Hausdorff {e.a}/{e.b}")
        _cross_check(mean_face, e.mean_km, tol, f"mean Hausdorff {e.a}/{e.b}")
        rows.append([e.a, e.b, la, lb, max_ab, max_ba, max_face, mean_ab, mean_ba, mean_face])
    tables["hausdorff.csv"] = rows

    rows = [["A", "L_A_km", "B", "band_km", "matching_km", "percent"]]
    for e in report.matching:
        la, lb = km_face(e.length_a_km), km_face(e.length_b_km)
        total = e.length_a_km + e.length_b_km
        for band in e.bands:
            lm_ab, lm_ba, band_face = km_face(band.lm_ab_km), km_face(band.lm_ba_km), km_face(band.band_km)
            avg, avg_pct = average_row_faces(lm_ab, lm_ba, la, lb)
            _cross_check(avg, band.average_km(), 0.0011, f"matching average {e.a}/{e.b}")
            pct = band.average_pct(e.length_a_km, e.length_b_km)
            _cross_check(avg_pct, pct, 0.051 + 0.25 / total, f"matching average percent {e.a}/{e.b}")
            rows += [
                [e.a, la, e.b, band_face, lm_ab, pct_face(band.pct_ab)],
                [e.b, lb, e.a, band_face, lm_ba, pct_face(band.pct_ba)],
                ["Average", "", "", band_face, avg, avg_pct],
            ]
    tables["matching.csv"] = rows

    tables["sources.csv"] = [["A", "B", "distance_km"]] + [
        [s.a, s.b, km_face(s.distance_km)] for s in report.sources
    ]
    tables["curves.csv"] = [["curve", "points", "length_km"]] + [
        [c.name, str(c.point_count), km_face(c.length_km)] for c in report.curves
    ]
    return tables


def render_csv_tables(report: MetricsReport) -> dict[str, str]:
    """Delimiter-separated tables keyed by file name."""
    return {
        name: "".join(",".join(row) + "\n" for row in rows)
        for name, rows in _table_rows(report).items()
    }


def render_human(report: MetricsReport) -> str:
    """Aligned plain-text rendering of every table, laid out from the rows
    of the CSV tables."""
    tables = _table_rows(report)
    w = []
    for kind in ("mean", "max"):
        rows = tables[f"transform_errors_{kind}.csv"]
        if len(rows) > 1:
            name_w = max(len(row[0]) for row in rows)
            col_w = max(len(s) for s in rows[0][1:] + ["0000.000"]) + 2
            w.append(f"Transformation errors, {kind} [km]")
            w += ["  " + row[0].ljust(name_w) + "".join(c.rjust(col_w) for c in row[1:]) for row in rows]
            w.append("")

    rows = tables["curves.csv"][1:]
    if rows:
        w.append("Curves")
        w += [
            "  " + name.ljust(12) + points.rjust(8) + length.rjust(14)
            for name, points, length in [["name", "points", "length [km]"]] + rows
        ]
        w.append("")

    rows = tables["sources.csv"][1:]
    if rows:
        w.append("Source distances [km]")
        w += [f"  {a} - {b}: {distance}" for a, b, distance in rows]
        w.append("")

    rows = tables["hausdorff.csv"][1:]
    if rows:
        nw = max([len(name) for row in rows for name in row[:2]] + [1]) + 2
        w.append("Hausdorff distances [km]   (directed value, then combined)")
        lines = [["A", "B", "max HD", "d_H", "mean HD", "mean d_H"]]
        for a, b, _, _, max_ab, max_ba, max_face, mean_ab, mean_ba, mean_face in rows:
            lines += [[a, b, max_ab, max_face, mean_ab, mean_face], [b, a, max_ba, "", mean_ba, ""]]
        w += ["  " + a.ljust(nw) + b.ljust(nw) + "".join(c.rjust(10) for c in cells) for a, b, *cells in lines]
        w.append("")

    rows = tables["matching.csv"][1:]
    if rows:
        # The band rows pivot into columns: per pair, one line for each of
        # the A->B, B->A and average rows, one column for each band.
        nw = max(len(row[k]) for row in rows for k in (0, 2)) + 2
        w.append("Matching lengths [km] (percent of curve length)")
        lines = [["A", "L_A", "B"] + [f"d_t={km_face(b)}" for b in report.bands_km]]
        rows = iter(rows)
        for e in report.matching:
            bands = [(next(rows), next(rows), next(rows)) for _ in e.bands]
            for direction in zip(*bands):
                lines.append(direction[0][:3] + [f"{row[4]} ({row[5]}%)" for row in direction])
        w += [
            "  " + a.ljust(nw) + la.rjust(10) + "  " + b.ljust(nw) + "".join(c.rjust(22) for c in cells)
            for a, la, b, *cells in lines
        ]
        w.append("")

    return "\n".join(w)


def _hausdorff_object(e: HausdorffEntry) -> dict:
    # The entry's fields, each combined column after its second directed one.
    combined = {"dir_max_ba_km": {"max_km": e.max_km}, "dir_mean_ba_km": {"mean_km": e.mean_km}}
    obj = {}
    for key, value in asdict(e).items():
        obj |= {key: value, **combined.get(key, {})}
    return obj


def sidecar(report: MetricsReport) -> dict:
    """Full-precision machine-readable mirror of the report."""
    te = report.transform_errors
    return {
        "transform_errors": {
            "transforms": te.transform_names,
            "sets": te.set_names,
            "mean_km": te.mean_km,
            "max_km": te.max_km,
        },
        "bands_km": report.bands_km,
        "curves": [asdict(c) for c in report.curves],
        "sources": [asdict(s) for s in report.sources],
        "hausdorff": [_hausdorff_object(e) for e in report.hausdorff],
        "matching": [
            {
                **asdict(e),
                "bands": [
                    {
                        **asdict(band),
                        "average_km": band.average_km(),
                        "average_pct": band.average_pct(e.length_a_km, e.length_b_km),
                    }
                    for band in e.bands
                ],
            }
            for e in report.matching
        ],
    }


def render_sidecar(report: MetricsReport) -> str:
    return json.dumps(sidecar(report), indent=2) + "\n"
