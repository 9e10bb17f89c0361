"""Numerics and obstruction theory for coupled vortex equations on the sphere.

Spectral solvers for the abelian vortex and gravitating vortex systems,
Einstein--Bogomol'nyi couplings, Futaki characters, solvability windows,
balancing conditions, automorphism verdicts, and quiver-bundle residuals.
"""

from .bundles import (
    AutVerdict,
    HiggsConfig,
    classify_automorphisms,
    higgs_profile,
)
from .errors import (
    ConfigurationError,
    DegeneratePairError,
    GravortexError,
    InfeasibleError,
    NumericInputError,
    ObstructionError,
    PoleError,
    WrongRankError,
)
from .geometry import (
    AxisymGrid,
    ConformalMetric,
    CurvatureReport,
    build_grid,
    integrate,
    laplacian,
    normalize_volume,
    round_metric,
    scalar_curvature,
    volume,
)
from .gravitating import (
    ContinuationReport,
    ContinuationSchedule,
    EinsteinBogomolnyiResult,
    GravitatingState,
    einstein_bogomolnyi_solve,
    gravitating_residual,
    general_coupled_residual,
    solve_gravitating,
)
from .obstructions import (
    StabilityReport,
    balancing_condition,
    futaki_closed_form,
    futaki_exact,
    futaki_quadrature,
    stability_check,
)
from .quiver import (
    Arrow,
    Quiver,
    QuiverBundleSpec,
    ReductionParams,
    commutator,
    commutator_values,
    quiver_vortex_residual,
    reduction_parameters,
    trace_identity_check,
)
from .reporting import __version__, conventions_hash
from .vortex import (
    BundleMetricPotential,
    NewtonOptions,
    NonabelianMetric,
    NonabelianResidual,
    SolveReport,
    nonabelian_residual,
    solve_vortex,
    vortex_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
