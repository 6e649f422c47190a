"""Landmark-based map registration with harmonically blended local affines.

The library fits one affine transformation per landmark region of a source
map, extends the six transform parameters over the whole pixel grid by
solving the discrete Laplace equation (regions act as Dirichlet data, the
domain boundary reflects), transforms digitized curves into WGS84, and
scores curve agreement with geodesic Hausdorff distances and matching
lengths.
"""

from .affine import (
    AffineParams,
    Correspondence,
    CorrespondenceSet,
    PixelPoint,
    apply_affine,
    fit_affine,
    max_error,
    mean_error,
)
from .curves import (
    BandThreshold,
    CurveSegment,
    DiscreteCurve,
    DistanceProfile,
    anchor_min_distances,
    anchor_min_distances_many,
    build_segments,
    directed_max_hausdorff,
    directed_mean_hausdorff,
    matching_length,
    max_hausdorff,
    mean_hausdorff,
    source_distance,
    split_at_nearest_vertex,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateConfigurationError,
    DegenerateCurveError,
    DomainViolationError,
    EmptyRegionError,
    GeometryError,
    MapRegisterError,
    OutOfDomainError,
    OutOfRangeError,
    RegionConflictError,
    SingularSystemError,
    SolverError,
)
from .field import (
    DirichletRegion,
    GridDomain,
    LaplaceSystem,
    ParameterField,
    assemble_from_masks,
    assemble_system,
    rasterize_envelope,
    region_from_correspondences,
    sample_field,
    solve_field,
)
from .geodesy import (
    GeoPoint,
    geodesic_distance,
    walk,
)
from .pipeline import (
    ProjectConfig,
    RunResult,
    build_field,
    compare_pair,
    fit_with_global,
    load_config,
    run_experiment,
    stadia_to_km,
    transform_curve,
)

__version__ = "0.1.0"
