"""Harmonic extension of affine parameters over the source-map pixel grid.

Each correspondence region pins the six transform parameters (Dirichlet
data) on the nodes it covers; everywhere else the parameters satisfy the
five-point discrete Laplace equation, with zero-Neumann conditions realized
by reflecting values across the domain boundary.  One sparse matrix serves
every right-hand side.  The field is linear in the Dirichlet data: the first
region value plus the extension of the differences from it, in one basis of
R - 1 harmonic measures when R <= 6 (none when R = 1) or of the six
parameter columns when R >= 7.  `solve_field` solves for the free nodes
only, by scipy's conjugate gradients preconditioned with a
geometric-multigrid V-cycle (Briggs, Henson & McCormick, *A Multigrid
Tutorial*, 2nd ed., SIAM 2000), one column after another with one shared
cycle.  Through CG the solve holds each level's matrix, Jacobi weights and
interpolation, the Dirichlet columns of the free rows, the solved columns
and, through each V-cycle, the six free-node vectors of the column being
solved that scipy's loop keeps (b, x, r, p and the previous z and q); the
operator's free rows are released before CG and built again after it for
the residual contract.  Its peak is about 225 to 280 bytes per node with
six columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .affine import AffineParams, CorrespondenceSet, PixelPoint
from .errors import (
    ConvergenceError,
    DegenerateConfigurationError,
    DomainViolationError,
    EmptyRegionError,
    OutOfDomainError,
    RegionConflictError,
    SingularSystemError,
)

# scipy.sparse and scipy.sparse.linalg are imported in the functions that use
# them: together they take about half of the time `import mapregister` and
# loading a configuration take, which every run pays.
if TYPE_CHECKING:
    import scipy.sparse as sp

#: Absolute tolerance for a node center sitting exactly on a polygon edge.
_ON_EDGE_TOL = 1e-9
#: Residual contract for the solved field, relative to max(1, |values|_inf).
RESIDUAL_RTOL = 1e-8
#: Slack allowed on the discrete maximum principle after the solve.
_MAX_PRINCIPLE_TOL = 1e-9
#: Damped-Jacobi weight and sweeps before and after each coarse correction.
_JACOBI_OMEGA = 0.8
_JACOBI_SWEEPS = 2
#: Sparse LU solves the free system directly up to _DIRECT_NODES free
#: nodes, where it is faster than the multigrid cycles; above it, coarsening
#: stops at a level of at most _COARSE_NODES free nodes, whose Galerkin
#: operator fills in more under LU.  A grid side shorter than
#: _MIN_COARSEN_SIDE is never coarsened.
_DIRECT_NODES = 30000
_COARSE_NODES = 4000
_MIN_COARSEN_SIDE = 5
#: CG stops when a column's residual 2-norm is below this fraction of its
#: right-hand side's 2-norm.
_PCG_RTOL = 1e-12
#: CG iterations allowed: a column that has taken this many fails with
#: ConvergenceError, as scipy's cg tests the residual before each iteration
#: and not after its last.
_PCG_MAX_ITER = 100


@dataclass(frozen=True)
class GridDomain:
    """Uniform unit-spacing node grid; node (1,1) sits at `origin`.

    Node (i, j), i = 1..n1, j = 1..n2 has pixel coordinates
    (origin.x1 + i - 1, origin.x2 + j - 1).
    """

    origin: PixelPoint
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 3 or self.n2 < 3:
            raise DomainViolationError(f"grid {self.n1}x{self.n2} too small, need at least 3x3")

    @property
    def node_count(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True)
class DirichletRegion:
    """A simple closed polygon carrying one set of affine parameters."""

    polygon: tuple[PixelPoint, ...]
    value: AffineParams
    name: str = ""

    def __post_init__(self):
        verts = self.polygon
        deduped = [v for k, v in enumerate(verts) if k == 0 or v != verts[k - 1]]
        while len(deduped) > 1 and deduped[-1] == deduped[0]:
            deduped.pop()  # the ring closed once or more
        if len(deduped) < 3:
            raise DegenerateConfigurationError(
                f"region '{self.name}': polygon needs at least 3 distinct vertices"
            )
        if not _is_simple_polygon(deduped):
            raise DegenerateConfigurationError(
                f"region '{self.name}': polygon is self-intersecting"
            )
        object.__setattr__(self, "polygon", tuple(deduped))


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    # Collinearity is assumed; checks the bounding box only.
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_cross(p1, p2, p3, p4) -> bool:
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return True
    for (a, b, p) in ((p1, p2, p3), (p1, p2, p4), (p3, p4, p1), (p3, p4, p2)):
        if _orient(*a, *b, *p) == 0 and _on_segment(*a, *b, *p):
            return True
    return False


def _is_simple_polygon(verts: list[PixelPoint]) -> bool:
    n = len(verts)
    pts = [(v.x1, v.x2) for v in verts]
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            b1, b2 = pts[j], pts[(j + 1) % n]
            if (j + 1) % n == i or (i + 1) % n == j:
                # Adjacent edges share one vertex; they must not double back
                # along each other beyond it.
                s = a2 if (i + 1) % n == j else a1
                u = a1 if s == a2 else a2
                w = b2 if b1 == s else b1
                if _orient(*u, *s, *w) == 0:
                    dot = (u[0] - s[0]) * (w[0] - s[0]) + (u[1] - s[1]) * (w[1] - s[1])
                    if dot > 0:
                        return False
                continue
            if _segments_cross(a1, a2, b1, b2):
                return False
    return True


def region_from_correspondences(
    cset: CorrespondenceSet, value: AffineParams, use_hull: bool = False
) -> DirichletRegion:
    """Build the region polygon from a set's source points.

    By default the user-supplied point order is honored and validated for
    simplicity; with `use_hull` the convex hull is taken instead, which is
    the safe choice for unordered landmark lists.
    """
    pts = cset.source_points()
    if use_hull:
        from scipy.spatial import ConvexHull

        arr = np.array([(p.x1, p.x2) for p in pts], dtype=float)
        try:
            hull = ConvexHull(arr)
        except Exception as exc:
            raise DegenerateConfigurationError(
                f"region '{cset.name}': convex hull failed ({exc})"
            ) from exc
        pts = [PixelPoint(*arr[k]) for k in hull.vertices]
    return DirichletRegion(tuple(pts), value, name=cset.name)


def rasterize_envelope(region: DirichletRegion, grid: GridDomain) -> np.ndarray:
    """Dirichlet node mask for a region: nodes inside or on the polygon plus
    their 4-neighbor ring (the outer discrete envelope).

    Returns a boolean (n1, n2) array indexed [i-1, j-1].  The marked set
    must stay clear of the domain boundary.
    """
    # Fractional node coordinates (i, j) of the vertices.
    verts = np.array([(p.x1, p.x2) for p in region.polygon]) - (grid.origin.x1, grid.origin.x2) + 1.0
    if (
        verts[:, 0].min() < 1 or verts[:, 0].max() > grid.n1
        or verts[:, 1].min() < 1 or verts[:, 1].max() > grid.n2
    ):
        raise DomainViolationError(f"region '{region.name}': polygon leaves the domain rectangle")

    ilo = max(1, int(math.floor(verts[:, 0].min())))
    ihi = min(grid.n1, int(math.ceil(verts[:, 0].max())))
    jlo = max(1, int(math.floor(verts[:, 1].min())))
    jhi = min(grid.n2, int(math.ceil(verts[:, 1].max())))

    ii, jj = np.meshgrid(
        np.arange(ilo, ihi + 1, dtype=float), np.arange(jlo, jhi + 1, dtype=float), indexing="ij"
    )
    inside = np.zeros(ii.shape, dtype=bool)
    on_edge = np.zeros(ii.shape, dtype=bool)
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        # Even-odd rule: count edges crossed by the ray running in +i.
        straddles = (y1 > jj) != (y2 > jj)
        if straddles.any():
            xin = (x2 - x1) * (jj - y1) / (y2 - y1) + x1
            inside ^= straddles & (ii < xin)
        # Node centers on the closed boundary count as inside.
        cross = (x2 - x1) * (jj - y1) - (y2 - y1) * (ii - x1)
        scale = max(abs(x2 - x1), abs(y2 - y1), 1.0)
        collinear = np.abs(cross) <= _ON_EDGE_TOL * scale
        in_box = (
            (ii >= min(x1, x2) - _ON_EDGE_TOL)
            & (ii <= max(x1, x2) + _ON_EDGE_TOL)
            & (jj >= min(y1, y2) - _ON_EDGE_TOL)
            & (jj <= max(y1, y2) + _ON_EDGE_TOL)
        )
        on_edge |= collinear & in_box

    mask = np.zeros((grid.n1, grid.n2), dtype=bool)
    mask[ilo - 1 : ihi, jlo - 1 : jhi] = inside | on_edge
    if not mask.any():
        raise EmptyRegionError(f"region '{region.name}': polygon encloses no grid nodes")

    ring = np.zeros_like(mask)
    ring[1:, :] |= mask[:-1, :]
    ring[:-1, :] |= mask[1:, :]
    ring[:, 1:] |= mask[:, :-1]
    ring[:, :-1] |= mask[:, 1:]
    marked = mask | ring
    if marked[0, :].any() or marked[-1, :].any() or marked[:, 0].any() or marked[:, -1].any():
        raise DomainViolationError(f"region '{region.name}': envelope reaches the domain boundary")
    return marked


@dataclass
class LaplaceSystem:
    """Dirichlet data of the Laplace system shared by the six parameters.

    `labels` holds, for each Dirichlet node in flat node order, the row of
    `values` (the distinct region values, (R, 6)) that pins it; regions
    with equal values share a row.
    """

    grid: GridDomain
    dirichlet_mask: np.ndarray  # (n1, n2) bool
    labels: np.ndarray  # (Dirichlet node count,) int
    values: np.ndarray  # (R, 6)

    @property
    def matrix(self) -> sp.csr_matrix:
        """Built on each read: identity rows on Dirichlet nodes, the stencil elsewhere."""
        import scipy.sparse as sp

        dir_flat = self.dirichlet_mask.reshape(-1)
        return sp.diags(~dir_flat * 1.0) @ _laplacian(self.grid) + sp.diags(dir_flat * 1.0)

    @property
    def rhs(self) -> np.ndarray:
        """Built on each read, (node_count, 6): Dirichlet values, 0 elsewhere."""
        rhs = np.zeros((self.grid.node_count, 6))
        rhs[self.dirichlet_mask.reshape(-1)] = self.values[self.labels]
        return rhs

    def node_index(self, i: int, j: int) -> int:
        return (i - 1) * self.grid.n2 + (j - 1)


def assemble_from_masks(
    grid: GridDomain, masks_and_values: list[tuple[np.ndarray, AffineParams]]
) -> LaplaceSystem:
    """Collect the Dirichlet data of explicit masks: which nodes are pinned,
    and by which row of the distinct-value table.  Nodes claimed twice with
    different values raise a conflict.
    """
    n1, n2 = grid.n1, grid.n2
    labels = np.full(grid.node_count, -1)  # -1 on free nodes
    table: list[np.ndarray] = []
    rows_of: dict[bytes, int] = {}  # a value's bits -> its row of the table
    for mask, params in masks_and_values:
        flat = mask.reshape(-1)
        if not flat.any():
            continue  # a value that pins no node has no row
        vals = np.array(params.as_tuple(), dtype=float)
        label = rows_of.setdefault(vals.tobytes(), len(table))
        if label == len(table):
            table.append(vals)
        claimed = np.flatnonzero(flat & (labels >= 0))
        differs = np.array([(row != vals).any() for row in table])
        bad = claimed[differs[labels[claimed]]]
        if len(bad):
            nodes = ", ".join(f"({k // n2 + 1}, {k % n2 + 1})" for k in bad[:8])
            raise RegionConflictError(
                f"nodes {nodes} claimed by two regions with different values"
            )
        labels[flat] = label
    values = np.array(table).reshape(-1, 6)
    dir_flat = labels >= 0
    return LaplaceSystem(grid, dir_flat.reshape(n1, n2), labels[dir_flat], values)


def _laplacian(grid: GridDomain) -> sp.csr_matrix:
    """The five-point operator on every node, built from its five
    diagonals: the neighbors one row (offsets -n2, n2) and one column
    (-1, 1) away.  At a zero-Neumann end the neighbor reflected across it
    folds onto the inner one (-2), and no row's end neighbors the next row."""
    import scipy.sparse as sp

    n, n2 = grid.node_count, grid.n2
    col = np.arange(n - 1) % n2  # the column of node m; diagonals -1 and 1 couple m and m + 1
    left = np.where(col == n2 - 2, -2.0, -1.0)  # row m + 1, column m
    right = np.where(col == 0, -2.0, -1.0)  # row m, column m + 1
    left[col == n2 - 1] = right[col == n2 - 1] = 0.0
    up = np.full(n - n2, -1.0)
    down = up.copy()
    up[-n2:] = down[:n2] = -2.0
    return sp.diags([up, left, np.full(n, 4.0), right, down], [-n2, -1, 0, 1, n2], format="csr")


def assemble_system(grid: GridDomain, regions: list[DirichletRegion]) -> LaplaceSystem:
    """Rasterize every region and assemble the shared sparse system."""
    masks = [(rasterize_envelope(r, grid), r.value) for r in regions]
    return assemble_from_masks(grid, masks)


@dataclass
class ParameterField:
    """Six solved parameter grids plus solve diagnostics."""

    grid: GridDomain
    params: np.ndarray  # (n1, n2, 6), read-only
    dirichlet_mask: np.ndarray
    residual: float
    iterations: int = 0  # CG iterations of the solve
    columns: int = 0  # right-hand sides solved: 0, R - 1 or 6


def solve_field(system: LaplaceSystem) -> ParameterField:
    """Solve for the six parameters by multigrid-preconditioned CG.

    The field is linear in the Dirichlet data, so with R distinct region
    values V_0..V_{R-1} it is V_0 + sum_k phi_k (V_k - V_0), phi_k the
    harmonic measure of region k (1 on its nodes, 0 on the other regions').
    The solve is for one basis of the differences, basis @ mix == V - V_0:
    for R <= 6 the indicators of V_1..V_{R-1}, whose extensions are the
    measures, with mix the V_k - V_0 (R = 1 needs no solve); for R >= 7 the
    six columns of V - V_0, with mix the identity.  `ParameterField.columns`
    records which.  A column that is zero on every region has a zero
    right-hand side and takes no CG iteration.

    Only the free nodes are unknowns: the Dirichlet columns move into the
    right-hand side, and halving the reflected-Neumann rows at edge nodes
    (quartering them at corners) makes the free operator symmetric positive
    definite.  Each column is solved by its own CG, preconditioned by one
    geometric multigrid V-cycle that all columns share, until its residual
    2-norm is below `_PCG_RTOL` of its right-hand side's; a column that
    takes `_PCG_MAX_ITER` iterations fails, since scipy's cg does not test
    its residual after the last.  `ParameterField.iterations` is the
    largest count.  Dirichlet entries are then restored bit-for-bit and the
    residual contract re-checked on the free rows, built again for it;
    Dirichlet rows hold exactly.
    """
    if not system.dirichlet_mask.any():
        raise SingularSystemError("no Dirichlet nodes: the pure-Neumann system is singular")

    values = system.values
    n1, n2 = system.grid.n1, system.grid.n2
    free = ~system.dirichlet_mask.reshape(-1)
    iterations = columns = 0
    v = values[0]  # the field on the free nodes
    if len(values) > 1 and free.any():
        # basis @ mix == values - values[0]: R - 1 measures are no more
        # columns than the six parameters.
        if len(values) <= 6:
            basis, mix = np.eye(len(values))[:, 1:], values[1:] - values[0]
        else:
            basis, mix = values - values[0], np.eye(6)
        pinned = basis[system.labels]  # the solved columns on the Dirichlet nodes
        a, dirichlet = _free_system(system.grid, free)
        precondition = _VCycle(a, free.reshape(n1, n2))
        columns = pinned.shape[1]
        v = np.empty((a.shape[0], columns))
        for k in range(columns):
            v[:, k], count = _pcg(a, -(dirichlet @ pinned[:, k]), precondition)
            iterations = max(iterations, count)
        del a, dirichlet, precondition, pinned  # before u is built
        v = values[0] + v @ mix
    u = np.empty((system.grid.node_count, 6))
    u[~free] = values[system.labels]
    u[free] = v
    del v

    # The free rows again, built after CG so that they are not held through it.
    rows = _laplacian(system.grid)[free]
    scale = np.maximum(1.0, np.abs(values).max(axis=0))
    residuals = np.abs(rows @ u).max(axis=0, initial=0.0)
    worst = float((residuals / scale).max())
    if worst > RESIDUAL_RTOL:
        raise ConvergenceError(
            f"residual contract unmet: {worst:.3e} > {RESIDUAL_RTOL:.0e} (per-parameter "
            f"residuals {residuals.tolist()})"
        )

    grids = u.reshape(n1, n2, 6)
    _check_maximum_principle(grids, values)
    grids.setflags(write=False)
    return ParameterField(
        system.grid, grids, system.dirichlet_mask.copy(), worst, iterations, columns
    )


def _free_system(grid: GridDomain, free: np.ndarray):
    """The operator's free rows, symmetric positive definite on the free
    nodes: (their free columns, their Dirichlet columns).  A column of
    Dirichlet values d gives the right-hand side `-(dirichlet @ d)`."""
    import scipy.sparse as sp

    # Halving the rows of edge nodes and quartering those of corners makes
    # the reflected-Neumann operator symmetric.
    side1 = np.ones(grid.n1)
    side1[[0, -1]] = 0.5
    side2 = np.ones(grid.n2)
    side2[[0, -1]] = 0.5
    row_scale = np.outer(side1, side2).reshape(-1)[free]
    rows = sp.diags(row_scale) @ _laplacian(grid)[free]
    return rows[:, free], rows[:, ~free]


def _coarse_nodes_1d(n: int) -> np.ndarray:
    """Fine indices of the coarse nodes along a grid side: every other
    node, always including both ends."""
    return np.minimum(2 * np.arange(n // 2 + 1), n - 1)


def _interpolation_1d(n: int) -> sp.csr_matrix:
    """Linear interpolation onto n fine nodes from `_coarse_nodes_1d(n)`."""
    import scipy.sparse as sp

    i = np.arange(n)
    lo = i // 2
    lo[-1] = n // 2
    hi = np.minimum((i + 1) // 2, n // 2)
    return sp.csr_matrix(
        (np.full(2 * n, 0.5), (np.concatenate([i, i]), np.concatenate([lo, hi]))),
        shape=(n, n // 2 + 1),
    )


class _VCycle:
    """Geometric-multigrid V-cycle on the free nodes of a node grid, for
    one (n,) vector at a time.

    Prolongation is bilinear, restricted to the free fine nodes and to the
    coarse nodes whose fine node is free, so it has full column rank and
    every Galerkin operator P.T @ A @ P stays symmetric positive definite.
    Each level keeps its operator, its damped-Jacobi weights and its
    prolongation; the same sweeps run before and after the coarse
    correction, so the cycle is a symmetric preconditioner.
    """

    def __init__(self, a: sp.csr_matrix, free: np.ndarray):
        import scipy.sparse as sp

        self.levels = []
        limit = _DIRECT_NODES
        while free.sum() > limit and min(free.shape) >= _MIN_COARSEN_SIDE:
            coarse = free[np.ix_(_coarse_nodes_1d(free.shape[0]), _coarse_nodes_1d(free.shape[1]))]
            if not coarse.any():
                break
            p = sp.kron(_interpolation_1d(free.shape[0]), _interpolation_1d(free.shape[1]), "csr")
            p = p[free.reshape(-1)][:, coarse.reshape(-1)]
            self.levels.append((a, _JACOBI_OMEGA / a.diagonal(), p))
            # p.T, a CSC view, restricts; the Galerkin product keeps its bits with a CSR copy.
            a = (p.T.tocsr() @ a @ p).tocsr()
            free = coarse
            limit = _COARSE_NODES
        import scipy.sparse.linalg as spla

        try:
            # Symmetric positive definite: no pivoting, and a minimum-degree
            # order on a.T + a fills in less than splu's default column order.
            self.coarsest = spla.splu(
                a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        # A 1-D weight times an (n, 1) block would broadcast to (n, n).
        assert b.ndim == 1
        if level == len(self.levels):
            return self.coarsest.solve(b)
        a, weight, p = self.levels[level]
        # Damped-Jacobi sweeps x += weight * (b - a @ x); from x = 0 the first gives weight * b.
        x = weight * b
        for _ in range(_JACOBI_SWEEPS - 1):
            x += weight * (b - a @ x)
        x += p @ self(p.T @ (b - a @ x), level + 1)
        for _ in range(_JACOBI_SWEEPS):
            x += weight * (b - a @ x)
        return x


def _pcg(a: sp.csr_matrix, b: np.ndarray, precondition) -> tuple[np.ndarray, int]:
    """scipy's preconditioned CG for one (n,) right-hand side `b`; returns
    the solution and the number of iterations.

    The right-hand side is solved scaled to unit max-norm, so that its
    inner products neither underflow nor overflow whatever its magnitude.
    """
    import scipy.sparse.linalg as spla

    norm = np.abs(b).max(initial=0.0) or 1.0
    np.divide(b, norm, out=b)  # in place: b is the caller's to give up
    steps = []  # the iterate, once per iteration
    # Given no dtype, LinearOperator would find it by running one V-cycle.
    m = spla.LinearOperator(a.shape, matvec=precondition, dtype=a.dtype)
    x, info = spla.cg(a, b, rtol=_PCG_RTOL, maxiter=_PCG_MAX_ITER, M=m, callback=steps.append)
    if info:
        raise ConvergenceError(
            f"multigrid-preconditioned CG did not converge in {_PCG_MAX_ITER} iterations"
        )
    return np.multiply(x, norm, out=x), len(steps)


def _check_maximum_principle(grids, values):
    # Every row of the value table equals the value of some Dirichlet node,
    # so its column ranges are those of the Dirichlet data.
    lo = values.min(axis=0) - _MAX_PRINCIPLE_TOL
    hi = values.max(axis=0) + _MAX_PRINCIPLE_TOL
    flat = grids.reshape(-1, 6)
    if (flat < lo).any() or (flat > hi).any():
        raise ConvergenceError("solved field violates the discrete maximum principle")


def sample_grids(f: ParameterField, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation of the six grids at (n, 2) pixel positions
    (x1, x2): returns the (n, 6) parameters and a mask of the positions
    inside the domain (1e-9 nodes of slack); the others are clamped to it."""
    n = np.array([f.grid.n1, f.grid.n2])
    node = x - (f.grid.origin.x1, f.grid.origin.x2) + 1.0  # fractional node coordinates (i, j)
    inside = ((1.0 - 1e-9 <= node) & (node <= n + 1e-9)).all(axis=1)
    node = np.clip(node, 1.0, n)
    corner = np.minimum(np.floor(node).astype(int), n - 1)
    i0, j0 = corner.T
    s, t = (node - corner).T[:, :, None]
    g = f.params
    v = (
        g[i0 - 1, j0 - 1] * (1 - s) * (1 - t)
        + g[i0, j0 - 1] * s * (1 - t)
        + g[i0 - 1, j0] * (1 - s) * t
        + g[i0, j0] * s * t
    )
    return v, inside


def sample_field(f: ParameterField, x: PixelPoint) -> AffineParams:
    """The six parameters at one pixel position: `sample_grids` at one
    point; raises if the position lies outside the domain."""
    v, inside = sample_grids(f, np.array([[x.x1, x.x2]]))
    if not inside[0]:
        o = f.grid.origin
        raise OutOfDomainError(
            f"pixel ({x.x1}, {x.x2}) lies outside the field domain "
            f"[{o.x1}, {o.x1 + f.grid.n1 - 1}] x [{o.x2}, {o.x2 + f.grid.n2 - 1}]"
        )
    return AffineParams(*v[0].tolist())
