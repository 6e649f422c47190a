import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapregister.affine import (
    AffineParams,
    Correspondence,
    CorrespondenceSet,
    PixelPoint,
    apply_affine,
    errors_km,
    fit_affine,
    max_error,
    mean_error,
)
from mapregister.errors import DegenerateConfigurationError, MapRegisterError, OutOfRangeError
from mapregister.geodesy import GeoPoint, geodesic_distance, walk

from oracles import dict_fit_affine, least_squares_objective
from synth import random_affine, random_pixels, synth_set


def identity_set(points):
    return CorrespondenceSet(
        "id", [Correspondence(p, GeoPoint(p.x1, p.x2)) for p in points]
    )


class TestApplyAffine:
    def test_identity(self):
        g = apply_affine(AffineParams.identity(), PixelPoint(10, 20))
        assert (g.lon, g.lat) == (10.0, 20.0)

    def test_pure_translation(self):
        t = AffineParams(1, 0, 0, 1, 5.0, -3.0)
        g = apply_affine(t, PixelPoint(0, 0))
        assert (g.lon, g.lat) == (5.0, -3.0)

    def test_hand_evaluated_forms(self):
        t = AffineParams(2, 1, 0, 1, 1, 1)
        g = apply_affine(t, PixelPoint(1, 1))
        assert (g.lon, g.lat) == (4.0, 2.0)

    def test_latitude_out_of_range(self):
        t = AffineParams(1, 0, 0, 1, 0.0, 80.0)
        with pytest.raises(OutOfRangeError, match=r"\(0, 30\)"):
            apply_affine(t, PixelPoint(0, 30))


class TestFitAffine:
    def test_exact_recovery_of_known_transform(self):
        rng = random.Random(42)
        t_true = random_affine(rng)
        cset = synth_set("synthetic", t_true, random_pixels(rng, 5))
        t_fit = fit_affine(cset)
        for got, want in zip(t_fit.as_tuple(), t_true.as_tuple()):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert mean_error(t_fit, cset) <= 1e-6

    def test_identity_interpolation_at_three_points(self):
        cset = identity_set([PixelPoint(0, 0), PixelPoint(10, 0), PixelPoint(0, 10)])
        t = fit_affine(cset)
        for got, want in zip(t.as_tuple(), AffineParams.identity().as_tuple()):
            assert got == pytest.approx(want, abs=1e-12)

    def test_too_few_points(self):
        cset = identity_set([PixelPoint(0, 0), PixelPoint(1, 1)])
        with pytest.raises(DegenerateConfigurationError, match="id"):
            fit_affine(cset)

    def test_collinear_points(self):
        cset = identity_set([PixelPoint(i, 2.0 * i) for i in range(5)])
        with pytest.raises(DegenerateConfigurationError, match="collinear"):
            fit_affine(cset)

    def test_duplicates_deduplicated_with_averaged_targets(self):
        # Three distinct pixels, one of them listed twice with two targets
        # straddling the exact image; averaging restores exactness.
        t_true = AffineParams(0.01, 0.0, 0.0, 0.01, 10.0, 40.0)
        pts = [PixelPoint(0, 0), PixelPoint(50, 10), PixelPoint(10, 60)]
        pairs = [Correspondence(p, apply_affine(t_true, p)) for p in pts]
        g = apply_affine(t_true, pts[0])
        pairs.append(Correspondence(pts[0], GeoPoint(g.lon + 0.002, g.lat)))
        pairs[0] = Correspondence(pts[0], GeoPoint(g.lon - 0.002, g.lat))
        t = fit_affine(CorrespondenceSet("dup", pairs))
        for got, want in zip(t.as_tuple(), t_true.as_tuple()):
            assert got == pytest.approx(want, abs=1e-12)

    def test_duplicates_only_still_degenerate(self):
        p = PixelPoint(1, 1)
        pairs = [Correspondence(p, GeoPoint(0, i * 0.001)) for i in range(6)]
        with pytest.raises(DegenerateConfigurationError):
            fit_affine(CorrespondenceSet("allsame", pairs))

    def test_order_invariance_is_exact(self):
        rng = random.Random(3)
        t_true = random_affine(rng)
        cset = synth_set("ord", t_true, random_pixels(rng, 9), rng, noise_deg=0.05)
        t1 = fit_affine(cset)
        shuffled = list(cset.pairs)
        rng.shuffle(shuffled)
        t2 = fit_affine(CorrespondenceSet("ord", shuffled))
        assert t1.as_tuple() == t2.as_tuple()

    def test_gradient_vanishes_at_fit(self):
        rng = random.Random(17)
        for _ in range(5):
            t_true = random_affine(rng)
            cset = synth_set("g", t_true, random_pixels(rng, 12), rng, noise_deg=0.05)
            t = fit_affine(cset)
            grad = finite_difference_gradient(t, cset)
            assert max(abs(g) for g in grad) <= 1e-8

    def test_fit_is_local_minimum(self):
        rng = random.Random(23)
        t_true = random_affine(rng)
        cset = synth_set("min", t_true, random_pixels(rng, 10), rng, noise_deg=0.1)
        t = fit_affine(cset)
        f0 = least_squares_objective(t, cset)
        base = t.as_tuple()
        for _ in range(100):
            delta = [rng.uniform(-1e-3, 1e-3) for _ in range(6)]
            perturbed = AffineParams(*(b + d for b, d in zip(base, delta)))
            assert least_squares_objective(perturbed, cset) >= f0


_COORDS = st.sampled_from([-0.0, 0.0, 1.0, -2.0, 3.5, 250.0, 1e-9])
_TARGETS = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, 2.0**-53, -45.5]), st.floats(-89.0, 89.0))


def pairs_set(rows) -> CorrespondenceSet:
    """A set of (x1, x2, lon, lat) rows, in the order given."""
    return CorrespondenceSet(
        "merge", [Correspondence(PixelPoint(x1, x2), GeoPoint(lon, lat)) for x1, x2, lon, lat in rows]
    )


@st.composite
def repeated_pixel_sets(draw) -> CorrespondenceSet:
    # Pixels drawn from a few values, ±0.0 among them, so that groups of
    # equal pixels form; each listed pixel repeats 1, 2 or 8+ times.
    pixels = draw(st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6))
    pairs = []
    for x1, x2 in pixels:
        for _ in range(draw(st.sampled_from([1, 1, 2, 8, 11]))):
            target = GeoPoint(draw(_TARGETS), draw(_TARGETS))
            pairs.append(Correspondence(PixelPoint(x1, x2), target, draw(st.sampled_from(["", "a", "b"]))))
    return CorrespondenceSet("merge", draw(st.permutations(pairs)))


class TestMergedPixels:
    """`fit_affine` equals `dict_fit_affine`, the object-by-object merge of
    repeated source pixels it replaced, bit for bit or by the same error."""

    @settings(max_examples=300, deadline=None)
    @given(repeated_pixel_sets())
    # singletons whose targets are -0.0
    @example(pairs_set([(0.0, 0.0, -0.0, -0.0), (1.0, 0.0, -0.0, 1.0), (0.0, 1.0, -0.0, 2.0)]))
    # ±0.0 sources on one pixel, listed in both orders
    @example(pairs_set([(0.0, 1.0, -0.0, 1.0), (-0.0, 1.0, 0.0, 2.0), (1.0, -0.0, 1.0, 0.0), (-1.0, -0.0, -1.0, -0.0)]))
    @example(pairs_set([(-0.0, 1.0, 0.0, 2.0), (0.0, 1.0, -0.0, 1.0), (1.0, -0.0, 1.0, 0.0), (-1.0, 0.0, -1.0, -0.0)]))
    # eight targets on one pixel, whose sum in pairs differs from the sum in order
    @example(pairs_set([(0.0, 0.0, 1.0, 0.0)] + [(0.0, 0.0, 2.0**-53, 0.0)] * 7 + [(1.0, 0.0, 2.0, 0.0), (0.0, 1.0, 1.0, 1.0)]))
    # a set with no pairs, as a 'set' header with no records reads
    @example(pairs_set([]))
    # three listed pixels, two distinct once ±0.0 merge
    @example(pairs_set([(0.0, 0.0, 1.0, 1.0), (-0.0, 0.0, 2.0, 2.0), (1.0, 1.0, 3.0, 3.0)]))
    def test_equals_dict_merge_bit_for_bit(self, cset):
        try:
            want = dict_fit_affine(cset)
        except MapRegisterError as exc:
            with pytest.raises(type(exc)) as got:
                fit_affine(cset)
            assert str(got.value) == str(exc)
            return
        assert [float(v).hex() for v in fit_affine(cset).as_tuple()] == [float(v).hex() for v in want.as_tuple()]


def finite_difference_gradient(t: AffineParams, cset, h: float = 1e-5):
    # The objective is quadratic, so central differences are exact up to
    # roundoff for any step.
    base = list(t.as_tuple())
    grad = []
    for i in range(6):
        hi = h * max(1.0, abs(base[i]))
        up = list(base)
        dn = list(base)
        up[i] += hi
        dn[i] -= hi
        fu = least_squares_objective(AffineParams(*up), cset)
        fd = least_squares_objective(AffineParams(*dn), cset)
        grad.append((fu - fd) / (2 * hi))
    return grad


class TestErrors:
    def test_perfect_fit_has_zero_errors(self):
        rng = random.Random(5)
        t = random_affine(rng)
        cset = synth_set("perfect", t, random_pixels(rng, 6))
        assert mean_error(t, cset) == pytest.approx(0.0, abs=1e-9)
        assert max_error(t, cset) == pytest.approx(0.0, abs=1e-9)

    def test_hand_rms_of_two_residuals(self):
        # Two pairs whose residuals are geodesically 3 km and 4 km.
        t = AffineParams.identity()
        src = [PixelPoint(10.0, 45.0), PixelPoint(11.0, 45.0)]
        targets = [
            walk(GeoPoint(10.0, 45.0), 0.0, 3000.0),
            walk(GeoPoint(11.0, 45.0), 90.0, 4000.0),
        ]
        cset = CorrespondenceSet(
            "rms", [Correspondence(s, g) for s, g in zip(src, targets)] +
            [Correspondence(PixelPoint(12.0, 45.0), GeoPoint(12.0, 45.0))]
        )
        # mean over all three: sqrt((9+16+0)/3); restrict to the two pairs
        two = CorrespondenceSet("rms2", cset.pairs[:2])
        assert mean_error(t, two) == pytest.approx(math.sqrt(25.0 / 2.0), abs=1e-6)
        assert max_error(t, two) == pytest.approx(4.0, abs=1e-6)

    def test_mean_never_exceeds_max(self):
        rng = random.Random(11)
        for _ in range(10):
            t_true = random_affine(rng)
            cset = synth_set("mm", t_true, random_pixels(rng, 8), rng, noise_deg=0.2)
            t = fit_affine(cset)
            assert mean_error(t, cset) <= max_error(t, cset) + 1e-12

    def test_errors_equal_scalar_residuals(self):
        # One array pass gives exactly the scalar distances, including the
        # exact zero of a target that coincides with its image.
        rng = random.Random(13)
        t_true = random_affine(rng)
        cset = synth_set("s", t_true, random_pixels(rng, 9), rng, noise_deg=0.05)
        t = fit_affine(cset)
        src = PixelPoint(3.0, 4.0)
        cset.pairs.append(Correspondence(src, apply_affine(t, src)))
        r = [geodesic_distance(c.target, apply_affine(t, c.source)) / 1000.0 for c in cset.pairs]
        assert r[-1] == 0.0
        assert (mean_error(t, cset), max_error(t, cset)) == (math.sqrt(sum(d * d for d in r) / len(r)), max(r))
        # Several sets in one pass give the same figures as one set at a time.
        sets = [cset, CorrespondenceSet("head", cset.pairs[:4]), CorrespondenceSet("tail", cset.pairs[4:])]
        assert errors_km(t, sets) == tuple(
            [f(t, s) for s in sets] for f in (mean_error, max_error)
        )
