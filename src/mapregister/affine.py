"""Locally optimal affine transformations from landmark correspondences.

A transform maps pixel coordinates (x1, x2) of the source map to WGS84
degrees: lon = a1 x1 + a2 x2 + b1, lat = a3 x1 + a4 x2 + b2.  Fitting
minimizes the summed squared degree-space residuals over a correspondence
set; fit quality is nevertheless reported geodesically, in kilometers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, OutOfRangeError
from .geodesy import GeoPoint, geodesic_distance_many

_COLLINEAR_RTOL = 1e-12


@dataclass(frozen=True)
class PixelPoint:
    """Source-map position: x1 = column (rightward), x2 = row (downward)."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise OutOfRangeError(f"non-finite pixel coordinates ({self.x1}, {self.x2})")


@dataclass(frozen=True)
class AffineParams:
    """The six scalars of one affine transformation."""

    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    b2: float

    PARAM_NAMES = ("a1", "a2", "a3", "a4", "b1", "b2")

    def __post_init__(self):
        for name in self.PARAM_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise OutOfRangeError(f"non-finite affine parameter {name}")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4, self.b1, self.b2)

    @classmethod
    def identity(cls) -> "AffineParams":
        return cls(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Correspondence:
    """One landmark pair: where a source pixel sits on the current map."""

    source: PixelPoint
    target: GeoPoint
    label: str = ""


@dataclass
class CorrespondenceSet:
    """A named group of landmark pairs covering one region."""

    name: str
    pairs: list[Correspondence]

    def source_points(self) -> list[PixelPoint]:
        return [c.source for c in self.pairs]

    def merged_with(self, others: list["CorrespondenceSet"], name: str) -> "CorrespondenceSet":
        pairs = list(self.pairs)
        for o in others:
            pairs.extend(o.pairs)
        return CorrespondenceSet(name, pairs)


def affine_images(params: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two linear forms at (n, 2) pixel positions (x1, x2), with (n, 6)
    parameters in `PARAM_NAMES` order or one (1, 6) row for all: returns
    (n, 2) unnormalized (lon, lat) and a mask of the finite rows whose
    latitude lies in [-90, 90]."""
    a1, a2, a3, a4, b1, b2 = params.T
    x1, x2 = x.T
    lon = a1 * x1 + a2 * x2 + b1
    lat = a3 * x1 + a4 * x2 + b2
    return np.stack([lon, lat], axis=1), np.isfinite(lon) & (lat >= -90.0) & (lat <= 90.0)


def apply_affine(t: AffineParams, x: PixelPoint) -> GeoPoint:
    """`affine_images` at one position; raises if the latitude leaves range."""
    images, _ = affine_images(np.array([t.as_tuple()]), np.array([[x.x1, x.x2]]))
    lon, lat = images[0].tolist()
    if not -90.0 <= lat <= 90.0:
        raise OutOfRangeError(f"pixel ({x.x1}, {x.x2}) transforms to latitude {lat}, outside [-90, 90]")
    return GeoPoint(lon, lat)


def fit_affine(cset: CorrespondenceSet) -> AffineParams:
    """Least-squares affine transform for a correspondence set.

    Solves the normal equations of the summed squared-residual objective;
    the 6x6 system decouples into two identical 3x3 blocks, one per target
    coordinate.  Source coordinates are centered on their centroid before
    assembly and the translation is un-centered afterwards, which avoids
    cancellation for large pixel offsets and changes nothing mathematically.
    """
    rows = np.array([(c.source.x1, c.source.x2, c.target.lon, c.target.lat) for c in cset.pairs]).reshape(-1, 4)
    # Repeated source pixels would make the normal matrix singular: merge
    # them at their first listed pixel, summing targets one by one in (lon,
    # lat) order for the mean, so the input order changes no bit of the fit.
    _, first, group, counts = np.unique(
        rows[:, :2], axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    n = len(first)
    if n < 3:
        raise DegenerateConfigurationError(
            f"set '{cset.name}' has {n} distinct source points, need at least 3"
        )
    order = np.lexsort((rows[:, 3], rows[:, 2], group))
    sums = np.zeros((n, 2))
    np.add.at(sums, group[order], rows[order, 2:])
    xs = rows[first, :2]
    ys = sums / counts[:, None]

    centroid = xs.mean(axis=0)
    u = xs - centroid
    svals = np.linalg.svd(u, compute_uv=False)
    if svals[-1] <= _COLLINEAR_RTOL * max(svals[0], 1.0):
        raise DegenerateConfigurationError(f"set '{cset.name}' has collinear source points")

    m = np.empty((3, 3))
    m[0, 0] = np.dot(u[:, 0], u[:, 0])
    m[0, 1] = m[1, 0] = np.dot(u[:, 0], u[:, 1])
    m[1, 1] = np.dot(u[:, 1], u[:, 1])
    m[0, 2] = m[2, 0] = u[:, 0].sum()
    m[1, 2] = m[2, 1] = u[:, 1].sum()
    m[2, 2] = n
    rhs = np.stack(
        [
            (np.dot(ys[:, k], u[:, 0]), np.dot(ys[:, k], u[:, 1]), ys[:, k].sum())
            for k in (0, 1)
        ],
        axis=1,
    )
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfigurationError(f"set '{cset.name}': normal matrix singular") from exc

    a1, a2, b1c = sol[:, 0]
    a3, a4, b2c = sol[:, 1]
    b1 = b1c - a1 * centroid[0] - a2 * centroid[1]
    b2 = b2c - a3 * centroid[0] - a4 * centroid[1]
    return AffineParams(a1, a2, a3, a4, b1, b2)


def errors_km(t: AffineParams, sets: list[CorrespondenceSet]) -> tuple[list[float], list[float]]:
    """RMS and largest geodesic residual in kilometers of t on each set;
    `cross_errors_km` of one transform."""
    rms, largest = cross_errors_km([t], sets)
    return rms[0], largest[0]


def cross_errors_km(
    ts: list[AffineParams], sets: list[CorrespondenceSet]
) -> tuple[list[list[float]], list[list[float]]]:
    """RMS and largest geodesic residual in kilometers of every transform
    on each set: one row per transform, one column per set.

    `affine_images` maps every pair of every set under every transform at
    once, and one array inverse measures them all.  The first invalid
    image, in transform order and then pair order, raises `apply_affine`'s
    error.  The per-set sums and maxima run in pair order, as a loop over
    the sets would.
    """
    pairs = [c for s in sets for c in s.pairs]
    x = np.array([(c.source.x1, c.source.x2) for c in pairs])
    target = np.array([(c.target.lon, c.target.lat) for c in pairs])
    n = len(pairs)
    images, valid = affine_images(np.repeat([t.as_tuple() for t in ts], n, axis=0), np.tile(x, (len(ts), 1)))
    if not valid.all():
        i = int(valid.argmin())
        apply_affine(ts[i // n], pairs[i % n].source)  # raises
    images = images.reshape(len(ts), n, 2)
    r = (geodesic_distance_many(target[:, 1], target[:, 0], images[..., 1], images[..., 0]) / 1000.0).tolist()
    ends = np.cumsum([len(s.pairs) for s in sets]).tolist()
    rms, largest = [], []
    for k in range(len(ts)):
        rows = [r[k][i:j] for i, j in zip([0] + ends[:-1], ends)]
        rms.append([math.sqrt(sum(d * d for d in row) / len(row)) for row in rows])
        largest.append([max(row) for row in rows])
    return rms, largest


def mean_error(t: AffineParams, cset: CorrespondenceSet) -> float:
    """Root-mean-square geodesic residual in kilometers."""
    return errors_km(t, [cset])[0][0]


def max_error(t: AffineParams, cset: CorrespondenceSet) -> float:
    """Largest geodesic residual in kilometers."""
    return errors_km(t, [cset])[1][0]
