"""Exception hierarchy shared by all modules.

Exit-code categories used by the CLI:
  2 -- configuration / input problems
  3 -- degenerate geometry or domain violations
  4 -- solver convergence / singular systems / out of memory in the field stage
"""

from __future__ import annotations


class MapRegisterError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ConfigError(MapRegisterError):
    """Bad configuration, unreadable input file, or malformed record."""

    exit_code = 2


class GeometryError(MapRegisterError):
    """Degenerate or inconsistent geometry."""

    exit_code = 3


class OutOfRangeError(GeometryError):
    """A computed coordinate left the valid latitude range."""


class DegenerateConfigurationError(GeometryError):
    """Too few or collinear source points; fitting is impossible."""


class DegenerateCurveError(GeometryError):
    """A curve has too few distinct points for the requested operation."""


class EmptyRegionError(GeometryError):
    """A polygon rasterizes to no grid nodes at all."""


class DomainViolationError(GeometryError):
    """A polygon or its envelope reaches the domain boundary, or a point
    lies outside the grid."""


class OutOfDomainError(DomainViolationError):
    """A sample or curve point falls outside the field domain."""


class RegionConflictError(GeometryError):
    """Two regions claim the same grid node with different values."""


class SolverError(MapRegisterError):
    """Linear-algebra failures, and running out of memory in the field stage."""

    exit_code = 4


class SingularSystemError(SolverError):
    """The assembled system has no Dirichlet data and is singular."""


class ConvergenceError(SolverError):
    """The solver finished but the residual contract was not met."""
