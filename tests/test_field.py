import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mapregister.field as field_module
from mapregister.affine import AffineParams, PixelPoint
from mapregister.errors import (
    ConvergenceError,
    DegenerateConfigurationError,
    DomainViolationError,
    EmptyRegionError,
    OutOfDomainError,
    RegionConflictError,
    SingularSystemError,
)
from mapregister.field import (
    DirichletRegion,
    GridDomain,
    LaplaceSystem,
    ParameterField,
    assemble_from_masks,
    assemble_system,
    rasterize_envelope,
    sample_field,
    solve_field,
)

from oracles import coo_laplace_matrix, kronsum_laplacian, lu_solve_field
from synth import traced_peak


def scalar_params(v: float) -> AffineParams:
    return AffineParams(v, v, v, v, v, v)


def square(cx, cy, half) -> tuple[PixelPoint, ...]:
    return (
        PixelPoint(cx - half, cy - half),
        PixelPoint(cx + half, cy - half),
        PixelPoint(cx + half, cy + half),
        PixelPoint(cx - half, cy + half),
    )


def row_coeffs(system: LaplaceSystem, i: int, j: int) -> dict[tuple[int, int], float]:
    """Nonzero row entries keyed by (i, j) node indices."""
    csr = system.matrix.tocsr()
    k = system.node_index(i, j)
    row = csr.getrow(k)
    n2 = system.grid.n2
    return {
        (col // n2 + 1, col % n2 + 1): val
        for col, val in zip(row.indices, row.data)
        if val != 0.0
    }


class TestPolygonValidation:
    def test_closed_input_accepted(self):
        poly = square(5, 5, 1) + (PixelPoint(4, 4),)
        r = DirichletRegion(poly, scalar_params(1.0))
        assert len(r.polygon) == 4

    def test_too_few_vertices(self):
        with pytest.raises(DegenerateConfigurationError):
            DirichletRegion((PixelPoint(0, 0), PixelPoint(1, 1)), scalar_params(0.0))

    def test_self_intersecting_rejected(self):
        bowtie = (
            PixelPoint(0, 0),
            PixelPoint(2, 2),
            PixelPoint(2, 0),
            PixelPoint(0, 2),
        )
        with pytest.raises(DegenerateConfigurationError, match="self-intersecting"):
            DirichletRegion(bowtie, scalar_params(0.0))


class TestRasterizeEnvelope:
    def grid(self, n=20):
        return GridDomain(PixelPoint(1, 1), n, n)

    def test_square_spanning_three_nodes(self):
        # Corners on node centers (9,9)-(11,11): 9 nodes inside or on the
        # boundary plus the 12-node 4-neighbor ring.
        region = DirichletRegion(square(10, 10, 1), scalar_params(0.0))
        mask = rasterize_envelope(region, self.grid())
        assert int(mask.sum()) == 21
        assert mask[9, 9] and mask[7, 9] and mask[11, 9]
        assert not mask[7, 7]  # diagonal corners are not 4-neighbors

    def test_single_node_polygon(self):
        region = DirichletRegion(
            (
                PixelPoint(9.6, 10.0),
                PixelPoint(10.0, 9.6),
                PixelPoint(10.4, 10.0),
                PixelPoint(10.0, 10.4),
            ),
            scalar_params(0.0),
        )
        mask = rasterize_envelope(region, self.grid())
        assert int(mask.sum()) == 5
        marked = {tuple(x + 1 for x in idx) for idx in np.argwhere(mask)}
        assert marked == {(10, 10), (9, 10), (11, 10), (10, 9), (10, 11)}

    def test_empty_region_error(self):
        region = DirichletRegion(
            (PixelPoint(5.2, 5.2), PixelPoint(5.8, 5.2), PixelPoint(5.5, 5.8)),
            scalar_params(0.0),
        )
        with pytest.raises(EmptyRegionError):
            rasterize_envelope(region, self.grid())

    def test_boundary_touch_error(self):
        region = DirichletRegion(square(2.5, 10, 1.4), scalar_params(0.0))
        with pytest.raises(DomainViolationError):
            rasterize_envelope(region, self.grid())

    def test_polygon_outside_domain_error(self):
        region = DirichletRegion(square(30, 10, 1), scalar_params(0.0))
        with pytest.raises(DomainViolationError):
            rasterize_envelope(region, self.grid())

    def test_marked_set_is_4_connected(self):
        region = DirichletRegion(
            (PixelPoint(6, 6), PixelPoint(13, 7), PixelPoint(12, 13), PixelPoint(7, 12)),
            scalar_params(0.0),
        )
        mask = rasterize_envelope(region, self.grid())
        seen = np.zeros_like(mask)
        stack = [tuple(np.argwhere(mask)[0])]
        seen[stack[0]] = True
        while stack:
            i, j = stack.pop()
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < mask.shape[0] and 0 <= nj < mask.shape[1]:
                    if mask[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        stack.append((ni, nj))
        assert (seen == mask).all()


class TestStencil:
    """The assembled rows must reproduce every discretization case."""

    @pytest.fixture()
    def system(self):
        grid = GridDomain(PixelPoint(1, 1), 7, 6)
        region = DirichletRegion(square(4, 3, 0.4), scalar_params(2.5))
        return assemble_system(grid, [region])

    def test_dirichlet_row(self, system):
        assert row_coeffs(system, 4, 3) == {(4, 3): 1.0}
        k = system.node_index(4, 3)
        assert (system.rhs[k] == 2.5).all()

    def test_interior_five_point_row(self, system):
        assert row_coeffs(system, 3, 5) == {
            (3, 5): 4.0,
            (2, 5): -1.0,
            (4, 5): -1.0,
            (3, 4): -1.0,
            (3, 6): -1.0,
        }

    def test_corner_rows(self, system):
        n1, n2 = 7, 6
        assert row_coeffs(system, 1, 1) == {(1, 1): 4.0, (2, 1): -2.0, (1, 2): -2.0}
        assert row_coeffs(system, 1, n2) == {(1, n2): 4.0, (1, n2 - 1): -2.0, (2, n2): -2.0}
        assert row_coeffs(system, n1, 1) == {(n1, 1): 4.0, (n1 - 1, 1): -2.0, (n1, 2): -2.0}
        assert row_coeffs(system, n1, n2) == {
            (n1, n2): 4.0,
            (n1 - 1, n2): -2.0,
            (n1, n2 - 1): -2.0,
        }

    def test_edge_rows(self, system):
        n1, n2 = 7, 6
        # right edge (i = n1)
        assert row_coeffs(system, n1, 3) == {
            (n1, 3): 4.0,
            (n1 - 1, 3): -2.0,
            (n1, 2): -1.0,
            (n1, 4): -1.0,
        }
        # bottom edge (j = n2)
        assert row_coeffs(system, 4, n2) == {
            (4, n2): 4.0,
            (3, n2): -1.0,
            (5, n2): -1.0,
            (4, n2 - 1): -2.0,
        }
        # top edge (j = 1)
        assert row_coeffs(system, 2, 1) == {
            (2, 1): 4.0,
            (1, 1): -1.0,
            (3, 1): -1.0,
            (2, 2): -2.0,
        }
        # left edge (i = 1)
        assert row_coeffs(system, 1, 4) == {
            (1, 4): 4.0,
            (1, 3): -1.0,
            (1, 5): -1.0,
            (2, 4): -2.0,
        }

    def test_row_sums_and_coupling_structure(self, system):
        csr = system.matrix.tocsr()
        n2 = system.grid.n2
        dir_flat = system.dirichlet_mask.reshape(-1)
        sums = np.asarray(csr.sum(axis=1)).ravel()
        assert np.allclose(sums[~dir_flat], 0.0)
        coo = system.matrix.tocoo()
        for r, c in zip(coo.row, coo.col):
            if r == c:
                continue
            ri, rj = divmod(r, n2)
            ci, cj = divmod(c, n2)
            assert abs(ri - ci) + abs(rj - cj) == 1

    @given(st.integers(3, 30), st.integers(3, 30), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_coo_reference(self, n1, n2, density, seed):
        mask = np.random.default_rng(seed).random((n1, n2)) < density
        pairs = [(mask, scalar_params(1.0))] if mask.any() else []
        grid = GridDomain(PixelPoint(1, 1), n1, n2)
        ref = coo_laplace_matrix(mask)
        free = ~mask.reshape(-1)
        # The `matrix` view, and the free rows `solve_field` builds.
        for got, want in (
            (assemble_from_masks(grid, pairs).matrix, ref),
            (field_module._laplacian(grid)[free], ref[free]),
        ):
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    @given(st.integers(3, 300), st.integers(3, 300))
    @example(3, 3)
    @example(3, 300)
    @example(300, 3)
    @settings(max_examples=40, deadline=None)
    def test_matches_kronsum_build(self, n1, n2):
        # The five diagonals give the Kronecker sum's arrays exactly, so
        # every product with the operator keeps its bits.
        grid = GridDomain(PixelPoint(1, 1), n1, n2)
        got, want = field_module._laplacian(grid), kronsum_laplacian(grid)
        assert type(got) is type(want) and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.has_sorted_indices == want.has_sorted_indices


class TestSolve:
    def test_constant_dirichlet_gives_constant_field(self):
        grid = GridDomain(PixelPoint(1, 1), 40, 35)
        region = DirichletRegion(
            (PixelPoint(12, 10), PixelPoint(25, 12), PixelPoint(22, 24), PixelPoint(10, 20)),
            scalar_params(3.25),
        )
        f = solve_field(assemble_system(grid, [region]))
        assert np.abs(f.params - 3.25).max() <= 1e-10
        assert f.residual <= 1e-8

    def test_two_values_respect_maximum_principle(self):
        grid = GridDomain(PixelPoint(1, 1), 60, 50)
        regions = [
            DirichletRegion(square(15, 15, 3), scalar_params(0.0)),
            DirichletRegion(square(45, 35, 3), scalar_params(1.0)),
        ]
        f = solve_field(assemble_system(grid, regions))
        assert f.params.min() >= -1e-12
        assert f.params.max() <= 1 + 1e-12
        # strictly between the extremes away from the regions
        mid = sample_field(f, PixelPoint(30, 25))
        assert 0.0 < mid.a1 < 1.0

    def test_dirichlet_values_reproduced_bit_for_bit(self):
        grid = GridDomain(PixelPoint(1, 1), 30, 30)
        value = AffineParams(0.0123456789, -0.4, 0.7, 1.9, -17.3, 42.0)
        region = DirichletRegion(square(15, 15, 4), value)
        system = assemble_system(grid, [region])
        f = solve_field(system)
        vals = np.array(value.as_tuple())
        assert (f.params[f.dirichlet_mask] == vals).all()

    def test_one_dimensional_harmonic_profile(self):
        # Dirichlet columns at both ends of a strip force the linear-in-index
        # discrete harmonic between them.
        n1, n2 = 41, 3
        grid = GridDomain(PixelPoint(1, 1), n1, n2)
        left = np.zeros((n1, n2), dtype=bool)
        left[0, :] = True
        right = np.zeros((n1, n2), dtype=bool)
        right[-1, :] = True
        system = assemble_from_masks(
            grid, [(left, scalar_params(0.0)), (right, scalar_params(1.0))]
        )
        f = solve_field(system)
        expected = np.linspace(0.0, 1.0, n1)
        for j in range(n2):
            assert np.abs(f.params[:, j, 0] - expected).max() <= 1e-8

    def test_no_dirichlet_is_singular(self):
        grid = GridDomain(PixelPoint(1, 1), 5, 5)
        system = assemble_from_masks(grid, [])
        with pytest.raises(SingularSystemError):
            solve_field(system)

    def test_conflicting_regions_rejected(self):
        grid = GridDomain(PixelPoint(1, 1), 20, 20)
        r1 = DirichletRegion(square(10, 10, 2), scalar_params(0.0))
        r2 = DirichletRegion(square(11, 11, 2), scalar_params(1.0))
        with pytest.raises(RegionConflictError, match=r"\(\d+, \d+\)"):
            assemble_system(grid, [r1, r2])

    def test_identical_value_overlap_allowed(self):
        grid = GridDomain(PixelPoint(1, 1), 20, 20)
        r1 = DirichletRegion(square(10, 10, 2), scalar_params(0.5))
        r2 = DirichletRegion(square(11, 11, 2), scalar_params(0.5))
        f = solve_field(assemble_system(grid, [r1, r2]))
        assert np.abs(f.params - 0.5).max() <= 1e-10

    def test_overshoot_is_rejected(self):
        # _check_maximum_principle guards the solved grids; feed it a field
        # that strays outside the Dirichlet range.
        from mapregister.field import _check_maximum_principle

        n1 = n2 = 5
        values = np.array([np.zeros(6), np.ones(6)])
        grids = np.full((n1, n2, 6), 0.5)
        grids[1, 1, :] = 0.0
        grids[3, 3, :] = 1.0
        _check_maximum_principle(grids, values)
        grids[0, 0, 0] = 1.5
        with pytest.raises(ConvergenceError):
            _check_maximum_principle(grids, values)

    def test_margin_growth_settles_probe_values(self):
        # Fixed regions in pixel space, growing domain margins: envelope
        # values are pinned, probe differences shrink monotonically.
        v0, v1 = scalar_params(0.0), scalar_params(1.0)
        probe = PixelPoint(30.0, 14.0)
        samples = []
        for margin in (6, 12, 24, 48):
            origin = PixelPoint(10 - margin, 10 - margin)
            n1 = 40 + 2 * margin + 1
            n2 = 20 + 2 * margin + 1
            grid = GridDomain(origin, n1, n2)
            regions = [
                DirichletRegion(square(16, 16, 2), v0, name="low"),
                DirichletRegion(square(44, 24, 2), v1, name="high"),
            ]
            f = solve_field(assemble_system(grid, regions))
            samples.append(sample_field(f, probe).a1)
        d1 = abs(samples[0] - samples[1])
        d2 = abs(samples[1] - samples[2])
        d3 = abs(samples[2] - samples[3])
        assert d1 >= d2 >= d3


#: Largest |multigrid field - LU field| allowed, relative to
#: max(1, largest |Dirichlet value|).
MATCHES_LU_RTOL = 1e-11


def assert_matches_lu(system: LaplaceSystem) -> ParameterField:
    got = solve_field(system)
    ref = lu_solve_field(system)
    mask = system.dirichlet_mask
    assert (got.params[mask] == ref.params[mask]).all()
    tol = MATCHES_LU_RTOL * max(1.0, float(np.abs(system.rhs).max()))
    assert np.abs(got.params - ref.params).max() <= tol
    return got


def polygon_mask(vertices, n1: int, n2: int) -> np.ndarray:
    """Envelope of a polygon inside a 1-based n1 x n2 grid, rasterized on a
    grid two nodes wider on every side and cropped, so that it may reach the
    domain edges and corners."""
    region = DirichletRegion(tuple(PixelPoint(x, y) for x, y in vertices), scalar_params(0.0))
    wide = rasterize_envelope(region, GridDomain(PixelPoint(-1, -1), n1 + 4, n2 + 4))
    return wide[2 : 2 + n1, 2 : 2 + n2]


def system_from_masks(n1: int, n2: int, masks, values) -> LaplaceSystem:
    """Assemble disjoint Dirichlet masks (earlier masks win overlaps)."""
    taken = np.zeros((n1, n2), dtype=bool)
    pairs = []
    for mask, value in zip(masks, values):
        mask = mask & ~taken
        if mask.any():
            pairs.append((mask, AffineParams(*value)))
            taken |= mask
    return assemble_from_masks(GridDomain(PixelPoint(1, 1), n1, n2), pairs)


@st.composite
def masked_systems(draw):
    n1 = draw(st.integers(3, 90))
    n2 = draw(st.one_of(st.just(3), st.integers(3, 70)))
    masks, values = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["rectangle", "polygon", "node"]))
        mask = np.zeros((n1, n2), dtype=bool)
        if kind == "node":
            mask[draw(st.integers(0, n1 - 1)), draw(st.integers(0, n2 - 1))] = True
        elif kind == "rectangle":
            i0, i1 = sorted(draw(st.lists(st.integers(0, n1 - 1), min_size=2, max_size=2)))
            j0, j1 = sorted(draw(st.lists(st.integers(0, n2 - 1), min_size=2, max_size=2)))
            mask[i0 : i1 + 1, j0 : j1 + 1] = True
        else:
            point = st.tuples(st.floats(1, n1), st.floats(1, n2))
            vertices = draw(st.lists(point, min_size=3, max_size=5))
            try:
                mask = polygon_mask(vertices, n1, n2)
            except (DegenerateConfigurationError, EmptyRegionError):
                continue
        masks.append(mask)
        values.append(draw(st.lists(st.floats(-60, 60), min_size=6, max_size=6)))
    return system_from_masks(n1, n2, masks, values)


def random_system(seed: int, n1: int, n2: int) -> LaplaceSystem:
    """Rectangles and hexagons of random size and value, some on the edges."""
    rng = np.random.default_rng(seed)
    masks = []
    for _ in range(6):
        i0, j0 = rng.integers(0, n1), rng.integers(0, n2)
        mask = np.zeros((n1, n2), dtype=bool)
        mask[i0 : i0 + rng.integers(1, 12), j0 : j0 + rng.integers(1, 12)] = True
        masks.append(mask)
    for _ in range(3):
        cx, cy, radius = rng.uniform(1, n1), rng.uniform(1, n2), rng.uniform(1, 15)
        hexagon = [
            (min(max(cx + radius * np.cos(k * np.pi / 3), 1), n1),
             min(max(cy + radius * np.sin(k * np.pi / 3), 1), n2))
            for k in range(6)
        ]
        try:
            masks.append(polygon_mask(hexagon, n1, n2))
        except (DegenerateConfigurationError, EmptyRegionError):
            pass
    values = rng.uniform(-1.0, 1.0, size=(len(masks), 6)) * [0.01, 0.01, 0.01, 0.01, 60, 60]
    return system_from_masks(n1, n2, masks, values)


class TestMultigridSolve:
    """The multigrid-preconditioned CG solve against the sparse-LU oracle."""

    @settings(max_examples=60, deadline=None)
    @given(masked_systems())
    def test_matches_lu_on_random_masks(self, system):
        if not system.dirichlet_mask.any():
            with pytest.raises(SingularSystemError):
                solve_field(system)
            return
        assert_matches_lu(system)
        # The same system through a multigrid hierarchy down to 50 nodes.
        with pytest.MonkeyPatch.context() as m:
            m.setattr(field_module, "_DIRECT_NODES", 50)
            m.setattr(field_module, "_COARSE_NODES", 50)
            assert_matches_lu(system)

    @pytest.mark.parametrize(
        "seed, n1, n2", [(0, 221, 181), (1, 240, 150), (2, 400, 97), (3, 130, 300), (4, 96, 1200)]
    )
    def test_matches_lu_on_multilevel_grids(self, monkeypatch, seed, n1, n2):
        system = random_system(seed, n1, n2)
        free = int((~system.dirichlet_mask).sum())
        coarsest = []
        splu = spla.splu
        with monkeypatch.context() as m:
            # field.py imports scipy.sparse.linalg when it builds a hierarchy.
            m.setattr(spla, "splu", lambda a, **kw: coarsest.append(a.shape[0]) or splu(a, **kw))
            f = assert_matches_lu(system)
        assert free > field_module._DIRECT_NODES
        assert coarsest[0] < free / 10  # the multigrid's coarsest level: two coarsenings or more
        # The largest count over the columns solved one at a time is the
        # count of the block CG that solved them together.
        assert f.iterations == {0: 9, 1: 10, 2: 10, 3: 10, 4: 10}[seed]

    def test_isolated_free_nodes_without_coarse_nodes(self):
        # Free nodes only where both indices are odd: more than _DIRECT_NODES
        # of them, but no coarse node is free, so the free system is solved
        # directly.
        n = 351
        mask = np.ones((n, n), dtype=bool)
        mask[1::2, 1::2] = False
        assert (~mask).sum() > field_module._DIRECT_NODES
        assign = np.add.outer(np.arange(n), np.arange(n)) % 3
        system = system_from_masks(
            n, n, [mask & (assign == k) for k in range(3)], [[k] * 6 for k in (0.0, 1.5, -2.0)]
        )
        assert assert_matches_lu(system).iterations == 1

    def test_all_nodes_dirichlet(self):
        # R = 1, 3 and 7 distinct values and no free node: no solve, and an
        # empty set of free rows for the residual.
        n1, n2 = 6, 5
        for regions in (1, 3, 7):
            label = np.arange(n1 * n2).reshape(n1, n2) % regions
            values = np.random.default_rng(regions).uniform(-2.0, 2.0, size=(regions, 6))
            system = system_from_masks(n1, n2, [label == k for k in range(regions)], values.tolist())
            assert len(system.values) == regions
            f = assert_matches_lu(system)
            assert (f.params == values[label]).all()
            assert f.residual == 0.0 and f.iterations == 0 and f.columns == 0

    def test_solve_reads_neither_view(self, monkeypatch):
        # `matrix` and `rhs` are built on each read, for inspection only: the
        # solve of a sparse-LU system and of a multigrid one reads neither.
        systems = [random_system(0, 60, 50), random_system(0, 221, 181)]
        free = [int((~s.dirichlet_mask).sum()) for s in systems]
        assert free[0] <= field_module._DIRECT_NODES < free[1]
        expected = [solve_field(s) for s in systems]

        def unread(system):
            raise AssertionError("solve_field read an assembled view")

        monkeypatch.setattr(LaplaceSystem, "matrix", property(unread))
        monkeypatch.setattr(LaplaceSystem, "rhs", property(unread))
        for system, ref in zip(systems, expected):
            got = solve_field(system)
            assert got.params.tobytes() == ref.params.tobytes()
            assert got.residual.hex() == ref.residual.hex()

    def test_solve_leaves_system_unchanged(self):
        # _pcg scales its right-hand side in place; that array is the
        # solver's own, so the system's Dirichlet data keep their bits and a
        # second solve repeats the first bit for bit.
        for system in (random_system(0, 60, 50), random_system(0, 221, 181)):
            before = [x.copy() for x in (system.dirichlet_mask, system.labels, system.values)]
            first = solve_field(system)
            for x, y in zip(before, (system.dirichlet_mask, system.labels, system.values)):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            assert solve_field(system).params.tobytes() == first.params.tobytes()

    def test_solve_peak_memory_per_node(self):
        # Through CG the solve keeps one matrix, Jacobi weights and
        # interpolation per level, the Dirichlet columns of the free rows,
        # the solved columns and at most five free-node vectors of one
        # column, and builds the operator's free rows again after it: about
        # 240 bytes per node on this 40k-node grid, against 490 when one
        # block CG held five vectors of six columns and a smoother matrix
        # per level.
        system = random_system(0, 221, 181)
        _, peak = traced_peak(lambda: solve_field(system))
        assert peak / system.grid.node_count <= 300

    @pytest.mark.parametrize("seed, n1, n2, deep", [(0, 221, 181, False), (1, 60, 50, True)])
    def test_vcycle_is_symmetric_positive_definite(self, seed, n1, n2, deep):
        # CG needs a symmetric positive definite preconditioner: through the
        # default hierarchy and through one down to 50 nodes the cycle M
        # leaves its argument untouched, u.M(v) = v.M(u) to rounding and
        # u.M(u) > 0.
        system = random_system(seed, n1, n2)
        free = ~system.dirichlet_mask.reshape(-1)
        a, _ = field_module._free_system(system.grid, free)
        with pytest.MonkeyPatch.context() as m:
            if deep:
                m.setattr(field_module, "_DIRECT_NODES", 50)
                m.setattr(field_module, "_COARSE_NODES", 50)
            cycle = field_module._VCycle(a, free.reshape(n1, n2))
        assert len(cycle.levels) >= (4 if deep else 1)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            u, v = rng.normal(size=(2, a.shape[0]))
            before = u.tobytes(), v.tobytes()
            mu, mv = cycle(u), cycle(v)
            assert (u.tobytes(), v.tobytes()) == before
            assert abs(u @ mv - v @ mu) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(mv)
            assert u @ mu > 0 and v @ mv > 0

    @given(arrays(
        np.float64,
        st.tuples(st.integers(1, 300), st.sampled_from([1, 2, 3, 6])),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    ))
    @example(np.full((64, 6), -0.0))
    @example(np.arange(-65.0, 65.0).reshape(65, 2))
    @settings(max_examples=200, deadline=None)
    def test_column_max_abs_matches_per_column(self, x):
        # Rows of 64 nodes and the rest of fewer: the same maxima, bit for bit.
        want = np.array([np.abs(col).max() for col in x.T])
        assert field_module._column_max_abs(x).tobytes() == want.tobytes()

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(field_module, "_PCG_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
            solve_field(random_system(0, 221, 181))


def block_system(values, n1: int = 48, n2: int = 40, seed: int = 0) -> LaplaceSystem:
    """One square Dirichlet block per value, side by side along i."""
    rng = np.random.default_rng(seed)
    masks = []
    for k in range(len(values)):
        mask = np.zeros((n1, n2), dtype=bool)
        i0, j0, side = 2 + 6 * k, rng.integers(2, n2 - 6), rng.integers(1, 5)
        mask[i0 : i0 + side, j0 : j0 + side] = True
        masks.append(mask)
    return system_from_masks(n1, n2, masks, values)


def assert_matches_lu_with_hierarchy(system: LaplaceSystem) -> list[ParameterField]:
    """`assert_matches_lu` directly and through a multigrid hierarchy down
    to 50 nodes."""
    fields = [assert_matches_lu(system)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(field_module, "_DIRECT_NODES", 50)
        m.setattr(field_module, "_COARSE_NODES", 50)
        fields.append(assert_matches_lu(system))
    return fields


class TestHarmonicMeasureBasis:
    """R distinct region values are solved as R - 1 harmonic measures up to
    R = 6, as the six parameter columns from R = 7, and not at all for
    R = 1."""

    @pytest.mark.parametrize("regions", [1, 2, 3, 4, 5, 6, 7])
    def test_basis_matches_lu(self, regions):
        rng = np.random.default_rng(regions)
        values = rng.uniform(-1.0, 1.0, size=(regions, 6)) * [0.01, 0.01, 0.01, 0.01, 60, 60]
        system = block_system(values.tolist())
        assert len(system.values) == regions
        for f in assert_matches_lu_with_hierarchy(system):
            assert f.columns == (0 if regions == 1 else min(6, regions - 1))
            if regions == 1:
                assert f.iterations == 0 and (f.params == values[0]).all()
            else:
                assert f.iterations >= 1

    @pytest.mark.parametrize("value", [0.5, 0.1])
    def test_column_equal_in_every_region(self, monkeypatch, value):
        # Seven regions whose third parameter is one value: that column's
        # grid holds the value bit for bit, and the other columns still
        # match the sparse-LU oracle.  The mean of the 0.5s is exact, so the
        # column's right-hand side is zero and its CG stops before the first
        # iteration; the mean of the 0.1s is rounded, and the solve of the
        # rounding-sized right-hand side cancels it.
        counts = []
        pcg = field_module._pcg

        def counted(*args):
            x, count = pcg(*args)
            counts.append(count)
            return x, count

        monkeypatch.setattr(field_module, "_pcg", counted)
        rng = np.random.default_rng(30)
        values = rng.uniform(-1.0, 1.0, size=(7, 6)) * [0.01, 0.01, 0.01, 0.01, 60, 60]
        values[:, 2] = value
        system = block_system(values.tolist())
        assert len(system.values) == 7
        for deep in (False, True):
            counts.clear()
            with pytest.MonkeyPatch.context() as m:
                if deep:
                    m.setattr(field_module, "_DIRECT_NODES", 50)
                    m.setattr(field_module, "_COARSE_NODES", 50)
                f = assert_matches_lu(system)
            assert f.columns == 6 and f.iterations == max(counts) >= 1
            assert (f.params[..., 2] == value).all()
            assert (counts[2] == 0) == (value == 0.5)

    def test_equal_values_count_as_one(self):
        v, w = [0.3, -0.2, 0.1, 1.0, 12.0, -7.5], [0.0, 0.5, -0.4, 0.9, -3.0, 4.0]
        system = block_system([v, w, v, v])
        assert system.values.tolist() == [v, w]
        for f in assert_matches_lu_with_hierarchy(system):
            assert f.columns == 1

    def test_overlapping_identical_values(self):
        n1, n2 = 40, 36
        a, b, c = (np.zeros((n1, n2), dtype=bool) for _ in range(3))
        a[5:15, 5:15] = True
        b[10:20, 10:20] = True
        c[28:34, 20:30] = True
        v, w = AffineParams(0.5, 0.1, -0.2, 0.8, 40.0, -11.0), AffineParams(0.4, 0.0, 0.3, 1.1, -5.0, 2.0)
        system = assemble_from_masks(GridDomain(PixelPoint(1, 1), n1, n2), [(a, v), (b, v), (c, w)])
        assert system.values.tolist() == [list(v.as_tuple()), list(w.as_tuple())]
        assert (system.labels == np.where(c[system.dirichlet_mask], 1, 0)).all()
        for f in assert_matches_lu_with_hierarchy(system):
            assert f.columns == 1

    def test_label_table_reproduces_rhs(self):
        # Overlapping regions of equal values, one of them -0.0 where the
        # other has 0.0: the later region's bits pin the overlap, as a
        # node-by-node assignment of the region values in order does.
        n1, n2 = 30, 25
        grid = GridDomain(PixelPoint(1, 1), n1, n2)
        rng = np.random.default_rng(4)
        pairs = []
        for k in range(5):
            mask = np.zeros((n1, n2), dtype=bool)
            i0, j0 = rng.integers(1, n1 - 8), rng.integers(1, n2 - 8)
            mask[i0 : i0 + 7, j0 : j0 + 7] = True
            pairs.append((mask, AffineParams(0.0, 0.25, -1.5, 1.0, 3.0, -0.0)))
        pairs[2] = (pairs[2][0], AffineParams(-0.0, 0.25, -1.5, 1.0, 3.0, 0.0))
        pairs.append((np.eye(n1, n2, dtype=bool) & ~np.any([m for m, _ in pairs], axis=0), scalar_params(2.0)))
        system = assemble_from_masks(grid, pairs)
        expected = np.zeros((n1, n2, 6))
        for mask, value in pairs:
            expected[mask] = value.as_tuple()
        dir_flat = system.dirichlet_mask.reshape(-1)
        assert len(system.values) == 3
        assert system.rhs.tobytes() == expected.reshape(-1, 6).tobytes()
        assert system.values[system.labels].tobytes() == system.rhs[dir_flat].tobytes()


class TestSampleField:
    def make_field(self, grids: np.ndarray) -> ParameterField:
        n1, n2 = grids.shape[:2]
        grid = GridDomain(PixelPoint(1, 1), n1, n2)
        mask = np.zeros((n1, n2), dtype=bool)
        return ParameterField(grid, grids, mask, 0.0)

    def test_node_centers_exact(self):
        rng = np.random.default_rng(0)
        grids = rng.uniform(-5, 5, size=(4, 5, 6))
        f = self.make_field(grids)
        for i in range(1, 5):
            for j in range(1, 6):
                got = sample_field(f, PixelPoint(float(i), float(j)))
                assert got.as_tuple() == tuple(grids[i - 1, j - 1])

    def test_edge_midpoint(self):
        grids = np.zeros((3, 3, 6))
        grids[1, :, :] = 1.0  # varies in i only
        f = self.make_field(grids)
        assert sample_field(f, PixelPoint(1.5, 2.0)).a1 == pytest.approx(0.5)

    def test_cell_center_average(self):
        grids = np.zeros((3, 3, 6))
        grids[0, 0, :] = 1.0
        grids[1, 0, :] = 2.0
        grids[0, 1, :] = 3.0
        grids[1, 1, :] = 4.0
        f = self.make_field(grids)
        assert sample_field(f, PixelPoint(1.5, 1.5)).a1 == pytest.approx(2.5)

    def test_outside_domain_raises(self):
        f = self.make_field(np.zeros((3, 3, 6)))
        with pytest.raises(OutOfDomainError):
            sample_field(f, PixelPoint(0.5, 2.0))
        with pytest.raises(OutOfDomainError):
            sample_field(f, PixelPoint(2.0, 3.5))
