"""Metric tables: fixed-precision rendering with emit-time self-checks.

Kilometers are printed with 3 decimals and percentages with 1 decimal,
rounding half up.  Combined columns (two-direction maxima, length-weighted
means, average rows) are recomputed *from the printed directed values* in
decimal arithmetic, so every combined figure in a table is exactly
reproducible from the directed figures next to it; a cross-check against
the full-precision formula guards against drift.  Full-precision values go
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


def _hausdorff_faces(e: HausdorffEntry) -> dict[str, str]:
    f = {
        "dir_max_ab": km_face(e.dir_max_ab_km),
        "dir_max_ba": km_face(e.dir_max_ba_km),
        "dir_mean_ab": km_face(e.dir_mean_ab_km),
        "dir_mean_ba": km_face(e.dir_mean_ba_km),
        "length_a": km_face(e.length_a_km),
        "length_b": km_face(e.length_b_km),
    }
    f["max"] = combined_max_face(f["dir_max_ab"], f["dir_max_ba"])
    f["mean"] = combined_mean_face(
        f["dir_mean_ab"], f["dir_mean_ba"], f["length_a"], f["length_b"]
    )
    # Rounded inputs shift the weighted mean by the input quantum plus a
    # weight perturbation proportional to the directed spread.
    spread = abs(e.dir_mean_ab_km - e.dir_mean_ba_km)
    tol = 0.0011 + 0.0011 * spread / (e.length_a_km + e.length_b_km)
    _cross_check(f["max"], e.max_km, 0.0011, f"max Hausdorff {e.a}/{e.b}")
    _cross_check(f["mean"], e.mean_km, tol, f"mean Hausdorff {e.a}/{e.b}")
    return f


def _matching_faces(e: MatchingEntry, band: MatchingBand) -> dict[str, str]:
    f = {
        "lm_ab": km_face(band.lm_ab_km),
        "pct_ab": pct_face(band.pct_ab),
        "lm_ba": km_face(band.lm_ba_km),
        "pct_ba": pct_face(band.pct_ba),
        "length_a": km_face(e.length_a_km),
        "length_b": km_face(e.length_b_km),
    }
    f["avg"], f["avg_pct"] = average_row_faces(
        f["lm_ab"], f["lm_ba"], f["length_a"], f["length_b"]
    )
    total = e.length_a_km + e.length_b_km
    _cross_check(f["avg"], band.average_km(), 0.0011, f"matching average {e.a}/{e.b}")
    _cross_check(
        f["avg_pct"],
        band.average_pct(e.length_a_km, e.length_b_km),
        0.051 + 0.25 / total,
        f"matching average percent {e.a}/{e.b}",
    )
    return f


def render_csv_tables(report: MetricsReport) -> dict[str, str]:
    """Delimiter-separated tables keyed by file name."""
    out: dict[str, str] = {}

    te = report.transform_errors
    for kind, matrix in (("mean", te.mean_km), ("max", te.max_km)):
        lines = ["transform," + ",".join(te.set_names)]
        for name, row in zip(te.transform_names, matrix):
            lines.append(name + "," + ",".join(km_face(v) for v in row))
        out[f"transform_errors_{kind}.csv"] = "\n".join(lines) + "\n"

    lines = [
        "A,B,L_A_km,L_B_km,dir_max_AB_km,dir_max_BA_km,max_km,dir_mean_AB_km,dir_mean_BA_km,mean_km"
    ]
    for e in report.hausdorff:
        f = _hausdorff_faces(e)
        lines.append(
            f"{e.a},{e.b},{f['length_a']},{f['length_b']},{f['dir_max_ab']},"
            f"{f['dir_max_ba']},{f['max']},{f['dir_mean_ab']},{f['dir_mean_ba']},{f['mean']}"
        )
    out["hausdorff.csv"] = "\n".join(lines) + "\n"

    lines = ["A,L_A_km,B,band_km,matching_km,percent"]
    for e in report.matching:
        for band in e.bands:
            f = _matching_faces(e, band)
            bkm = km_face(band.band_km)
            lines.append(f"{e.a},{f['length_a']},{e.b},{bkm},{f['lm_ab']},{f['pct_ab']}")
            lines.append(f"{e.b},{f['length_b']},{e.a},{bkm},{f['lm_ba']},{f['pct_ba']}")
            lines.append(f"Average,,,{bkm},{f['avg']},{f['avg_pct']}")
    out["matching.csv"] = "\n".join(lines) + "\n"

    lines = ["A,B,distance_km"]
    for s in report.sources:
        lines.append(f"{s.a},{s.b},{km_face(s.distance_km)}")
    out["sources.csv"] = "\n".join(lines) + "\n"

    lines = ["curve,points,length_km"]
    for c in report.curves:
        lines.append(f"{c.name},{c.point_count},{km_face(c.length_km)}")
    out["curves.csv"] = "\n".join(lines) + "\n"

    return out


def render_human(report: MetricsReport) -> str:
    """Aligned plain-text rendering of every table."""
    w = []
    te = report.transform_errors
    if te.transform_names:
        name_w = max(len(n) for n in te.transform_names + ["transform"])
        col_w = max(len(s) for s in te.set_names + ["0000.000"]) + 2
        for kind, matrix in (("mean", te.mean_km), ("max", te.max_km)):
            w.append(f"Transformation errors, {kind} [km]")
            w.append(
                "  " + "transform".ljust(name_w) + "".join(s.rjust(col_w) for s in te.set_names)
            )
            for name, row in zip(te.transform_names, matrix):
                w.append("  " + name.ljust(name_w) + "".join(km_face(v).rjust(col_w) for v in row))
            w.append("")

    if report.curves:
        w.append("Curves")
        w.append("  " + "name".ljust(12) + "points".rjust(8) + "length [km]".rjust(14))
        for c in report.curves:
            w.append("  " + c.name.ljust(12) + str(c.point_count).rjust(8) + km_face(c.length_km).rjust(14))
        w.append("")

    if report.sources:
        w.append("Source distances [km]")
        for s in report.sources:
            w.append(f"  {s.a} - {s.b}: {km_face(s.distance_km)}")
        w.append("")

    if report.hausdorff:
        nw = max(
            [len(e.a) for e in report.hausdorff] + [len(e.b) for e in report.hausdorff] + [1]
        ) + 2
        w.append("Hausdorff distances [km]   (directed value, then combined)")
        head = "  " + "A".ljust(nw) + "B".ljust(nw)
        head += "max HD".rjust(10) + "d_H".rjust(10) + "mean HD".rjust(10) + "mean d_H".rjust(10)
        w.append(head)
        for e in report.hausdorff:
            f = _hausdorff_faces(e)
            w.append(
                "  " + e.a.ljust(nw) + e.b.ljust(nw)
                + f["dir_max_ab"].rjust(10) + f["max"].rjust(10)
                + f["dir_mean_ab"].rjust(10) + f["mean"].rjust(10)
            )
            w.append(
                "  " + e.b.ljust(nw) + e.a.ljust(nw)
                + f["dir_max_ba"].rjust(10) + "".rjust(10)
                + f["dir_mean_ba"].rjust(10) + "".rjust(10)
            )
        w.append("")

    if report.matching:
        nw = max(
            [len(e.a) for e in report.matching] + [len(e.b) for e in report.matching] + [7]
        ) + 2
        w.append("Matching lengths [km] (percent of curve length)")
        bands = [km_face(b) for b in report.bands_km]
        head = "  " + "A".ljust(nw) + "L_A".rjust(10) + "  " + "B".ljust(nw)
        for b in bands:
            head += f"d_t={b}".rjust(22)
        w.append(head)
        for e in report.matching:
            faces = [_matching_faces(e, band) for band in e.bands]
            row = "  " + e.a.ljust(nw) + faces[0]["length_a"].rjust(10) + "  " + e.b.ljust(nw)
            for f in faces:
                row += f"{f['lm_ab']} ({f['pct_ab']}%)".rjust(22)
            w.append(row)
            row = "  " + e.b.ljust(nw) + faces[0]["length_b"].rjust(10) + "  " + e.a.ljust(nw)
            for f in faces:
                row += f"{f['lm_ba']} ({f['pct_ba']}%)".rjust(22)
            w.append(row)
            row = "  " + "Average".ljust(nw) + "".rjust(10) + "  " + "".ljust(nw)
            for f in faces:
                row += f"{f['avg']} ({f['avg_pct']}%)".rjust(22)
            w.append(row)
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
