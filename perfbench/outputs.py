"""Output check: summaries of a run's output directory and their comparison.

A summary keeps what the check needs and fits in a reference file:
a digest over every output file (repeat runs must be byte-identical), the
digests of the printed tables, the parsed `report.json`, and for every
GeoJSON curve its properties, evenly spaced coordinates and the mean
coordinate of each of a few contiguous chunks (so a change to any single
point moves some chunk mean).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

#: Numbers in report.json (km, percent) and GeoJSON coordinates (degrees)
#: match the reference when |value - ref| <= ABS_TOL + REL_TOL * |ref|.
ABS_TOL = 1e-9
REL_TOL = 1e-9
#: Coordinates kept per curve in a summary, evenly spaced, ends included.
CURVE_SAMPLES = 33
#: Contiguous chunks per curve whose mean coordinate is kept.
CURVE_CHUNKS = 32


def _files(outdir: Path) -> list[str]:
    return sorted(p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file())


def _curve_summary(text: str) -> dict:
    feature = json.loads(text)["features"][0]
    coords = feature["geometry"]["coordinates"]
    n = len(coords)
    picks = sorted({round(k * (n - 1) / (CURVE_SAMPLES - 1)) for k in range(CURVE_SAMPLES)})
    bounds = sorted({round(k * n / CURVE_CHUNKS) for k in range(CURVE_CHUNKS + 1)})
    chunks = [coords[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return {
        "properties": feature["properties"],
        "samples": [[k, *coords[k]] for k in picks],
        "chunk_means": [
            [math.fsum(c[0] for c in ch) / len(ch), math.fsum(c[1] for c in ch) / len(ch)]
            for ch in chunks
        ],
    }


def summarize(outdir: Path) -> dict:
    files = _files(outdir)
    whole = hashlib.sha256()
    tables, curves, nbytes = {}, {}, 0
    report = None
    for rel in files:
        data = (outdir / rel).read_bytes()
        nbytes += len(data)
        whole.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
        if "/" not in rel and (rel.endswith(".csv") or rel == "report.txt"):
            tables[rel] = hashlib.sha256(data).hexdigest()
        elif rel == "report.json":
            report = json.loads(data)
        elif rel.startswith("curves/") and rel.endswith(".geojson"):
            curves[rel] = _curve_summary(data.decode())
    return {
        "files": files,
        "bytes": nbytes,
        "digest": whole.hexdigest(),
        "tables": tables,
        "report": report,
        "curves": curves,
    }


def _close(a, b, where: str, out: list[str]):
    """Structural comparison with a tolerance on numbers."""
    if isinstance(b, dict):
        if not isinstance(a, dict) or sorted(a) != sorted(b):
            out.append(f"{where}: keys differ")
            return
        for k in b:
            _close(a[k], b[k], f"{where}.{k}", out)
    elif isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            out.append(f"{where}: length differs")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}[{i}]", out)
    elif isinstance(b, (int, float)) and not isinstance(b, bool):
        if not isinstance(a, (int, float)) or isinstance(a, bool) or not (
            abs(a - b) <= ABS_TOL + REL_TOL * abs(b)
        ):
            out.append(f"{where}: {a!r} != {b!r}")
    elif a != b:
        out.append(f"{where}: {a!r} != {b!r}")


def compare(summary: dict, ref: dict, exact_tables: bool) -> list[str]:
    """Mismatches between a run's summary and the recorded reference."""
    out: list[str] = []
    if summary["files"] != ref["files"]:
        out.append(f"output files differ: {summary['files']} != {ref['files']}")
        return out
    if exact_tables and summary["tables"] != ref["tables"]:
        bad = [k for k in ref["tables"] if summary["tables"].get(k) != ref["tables"][k]]
        out.append(f"printed tables not byte-identical: {bad}")
    _close(summary["report"], ref["report"], "report.json", out)
    _close(summary["curves"], ref["curves"], "curves", out)
    return out
