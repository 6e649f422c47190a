"""File formats: correspondence records, pixel and geo curves, field dumps.

Correspondence file -- plain text, one set per block:

    # comment
    set Adriatic coast
    # x1    x2      lon       lat       label
    120.5   310.25  13.9064   44.7963   Premantura
    ...
    set Black Sea coast
    ...

Pixel curve file -- two whitespace-separated columns (x1, x2) per line;
`#` comments and blank lines are ignored.

Geo curves -- GeoJSON LineString features, coordinates ordered (lon, lat)
on WGS84.  Written files carry name, point count and length in the feature
properties; coordinates are emitted with full round-trip precision.

Field dump -- one CSV per parameter with a `#` header carrying the grid
shape and origin; rows follow x2 (top to bottom), columns follow x1.

Every file the package writes goes through `write_outputs`, which turns a
write failure into a `ConfigError` (exit code 2) naming the path.
"""

from __future__ import annotations

import json
from pathlib import Path

from .affine import AffineParams, Correspondence, CorrespondenceSet, PixelPoint
from .errors import ConfigError, OutOfRangeError
from .field import ParameterField
from .geodesy import GeoPoint
from .report import check_table_name


def _data_lines(path: Path):
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_correspondences(path: str | Path) -> list[CorrespondenceSet]:
    """Parse every named correspondence set in a file, in file order."""
    path = Path(path)
    sets: list[CorrespondenceSet] = []
    current: CorrespondenceSet | None = None
    for lineno, line in _data_lines(path):
        if line.startswith("set "):
            name = line[4:].strip()
            if not name:
                raise ConfigError(f"{path}:{lineno}: empty set name")
            check_table_name(name, f"{path}:{lineno}")
            if any(s.name == name for s in sets):
                raise ConfigError(f"{path}:{lineno}: duplicate set name '{name}'")
            current = CorrespondenceSet(name, [])
            sets.append(current)
            continue
        if current is None:
            raise ConfigError(f"{path}:{lineno}: data line before any 'set' header")
        parts = line.split(None, 4)
        if len(parts) < 4:
            raise ConfigError(f"{path}:{lineno}: expected 'x1 x2 lon lat [label]'")
        try:
            x1, x2, lon, lat = (float(v) for v in parts[:4])
            source, target = PixelPoint(x1, x2), GeoPoint(lon, lat)
        except (ValueError, OutOfRangeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad number ({exc})") from exc
        label = parts[4] if len(parts) == 5 else ""
        current.pairs.append(Correspondence(source, target, label))
    if not sets:
        raise ConfigError(f"{path}: no correspondence sets found")
    return sets


def write_outputs(files: dict[Path, str]) -> list[Path]:
    """Write each text to its path, creating parent directories; returns
    the paths in order.  A file system error becomes a `ConfigError`."""
    try:
        for target, text in files.items():
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
    except (OSError, ValueError) as exc:
        # ValueError: a path with a NUL byte, which a YAML string can hold.
        raise ConfigError(f"cannot write {target}: {getattr(exc, 'strerror', None) or exc}") from exc
    return list(files)


def read_pixel_curve(path: str | Path) -> list[PixelPoint]:
    path = Path(path)
    pts = []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'x1 x2'")
        try:
            pts.append(PixelPoint(float(parts[0]), float(parts[1])))
        except (ValueError, OutOfRangeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad number ({exc})") from exc
    if not pts:
        raise ConfigError(f"{path}: empty pixel curve")
    return pts


def _member(obj: dict, key: str, path: Path) -> dict:
    # A GeoJSON member that must be an object; absent or null reads as {}.
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: '{key}' must be a JSON object, got {type(value).__name__}")
    return value


def read_geo_curve(path: str | Path) -> tuple[str, list[GeoPoint]]:
    """Load a single LineString from a GeoJSON file; returns (name, points)."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a GeoJSON object, got {type(obj).__name__}")

    props = {}
    geom = obj
    if obj.get("type") == "FeatureCollection":
        features = obj.get("features", [])
        if not isinstance(features, list) or not all(isinstance(f, dict) for f in features):
            raise ConfigError(f"{path}: 'features' must be a list of JSON objects")
        feats = [f for f in features if _member(f, "geometry", path).get("type") == "LineString"]
        if len(feats) != 1:
            raise ConfigError(f"{path}: expected exactly one LineString feature, found {len(feats)}")
        props = _member(feats[0], "properties", path)
        geom = feats[0]["geometry"]
    elif obj.get("type") == "Feature":
        props = _member(obj, "properties", path)
        geom = _member(obj, "geometry", path)
    # A curve without a string name property is named after its file.
    name = props.get("name")
    name = name if isinstance(name, str) else path.stem
    if geom.get("type") != "LineString":
        raise ConfigError(f"{path}: geometry type {geom.get('type')!r}, expected LineString")
    coords = geom.get("coordinates", [])
    if not isinstance(coords, list) or len(coords) < 2:
        raise ConfigError(f"{path}: LineString needs a list of at least 2 coordinates")
    pts = []
    for k, pos in enumerate(coords):
        # RFC 7946 §3.1.1: 2 or 3 JSON numbers (no bool or string); an altitude is ignored.
        try:
            numbers = isinstance(pos, list) and all(type(v) in (int, float) for v in pos)
            if not numbers or len(pos) not in (2, 3):
                raise ValueError(f"a position is a list of 2 or 3 numbers, got {pos!r:.40}")
            lon, lat, *_ = (float(v) for v in pos)
            pts.append(GeoPoint(lon, lat))
        except (TypeError, ValueError, OverflowError, OutOfRangeError) as exc:
            raise ConfigError(f"{path}: bad position {k} ({exc})") from exc
    return name, pts


def render_geojson_curve(curve) -> str:
    """GeoJSON FeatureCollection text for a DiscreteCurve's vertices."""
    coordinates = curve.chain[::2].tolist()
    feature = {
        "type": "Feature",
        "properties": {"name": curve.name, "point_count": len(coordinates), "length_km": curve.length / 1000.0},
        "geometry": {
            "type": "LineString",
            "coordinates": coordinates,
        },
    }
    return json.dumps({"type": "FeatureCollection", "features": [feature]}, indent=2) + "\n"


def write_field_dump(field: ParameterField, directory: str | Path) -> list[Path]:
    """One CSV per parameter; rows follow x2, columns follow x1."""
    directory = Path(directory)
    grid = field.grid
    written = []
    for k, pname in enumerate(AffineParams.PARAM_NAMES):
        lines = [
            f"# parameter: {pname}",
            f"# n1: {grid.n1} n2: {grid.n2}",
            f"# origin_x1: {grid.origin.x1!r} origin_x2: {grid.origin.x2!r}",
        ]
        lines.extend(",".join(map(repr, row)) for row in field.params[:, :, k].T.tolist())
        # One file at a time, so only one parameter's text is held at once.
        written += write_outputs({directory / f"{pname}.csv": "\n".join(lines) + "\n"})
    return written
