"""Bilinear merge systems: exact limit solvers plus finite-N simulators.

The package revolves around one object, a :class:`BilinearSystem`, whose
pairwise merge rate is a bilinear form in conserved and sign-odd particle
coordinates.  Everything else is a view of that rate: the gelation time from
a spectral problem, gel curves from a monotone fixed point, sol moments from
a closed ODE system, and two stochastic counterparts (a particle merge
process and an inhomogeneous random graph) for finite-size validation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceeded,
    DegenerateCubic,
    DegenerateMeasure,
    DualNotSubcritical,
    ExplosionReached,
    GelkitError,
    NegativeRate,
    NoConvergence,
    NumericError,
    RateUnderflow,
    SchemaError,
    SlowConvergence,
    ToleranceFailure,
    WindowInvalid,
)
from .graphs import (
    ComponentTrack,
    CouplingReport,
    DualityReport,
    GraphRealization,
    coupling_test,
    duality_experiment,
    graph_from_measure,
    sample_graph,
    trajectory,
)
from .moments import (
    MomentState,
    explosion_time,
    gel_growth_ode,
    initial_state,
    integrate_subcritical,
    moment_rhs,
    moments_at,
    supercritical_moments,
)
from .particles import (
    DirectPairSimulator,
    ParticleSystem,
    Snapshot,
    child_seed,
    init_poisson,
    load_state,
    table_moments,
)
from .presets import (
    PRESETS,
    bidisperse,
    from_name,
    kinetic_gas,
    kinetic_gas_sample,
    multiplicative,
)
from .restricted import (
    TruncatedFlory,
    TruncatedState,
    enumerate_types,
    integrate_truncated,
)
from .spectral import (
    SpectralResult,
    criticality_matrix,
    gelation,
    gelation_time,
    spectral_radius,
)
from .survival import (
    SizeBiasReport,
    SurvivalCoefficients,
    critical_slope,
    fixed_point_map,
    gel_curve,
    gel_data,
    size_bias_check,
    solve_fixed_point,
    survival_probabilities,
    tilted_measure,
)
from .system import (
    AtomicMeasure,
    BilinearSystem,
    GelData,
    HypothesisReport,
    check_hypotheses,
    first_moments,
    gram_plus,
    load_system,
    moment_matrix,
    pair_rates,
    sample_atoms,
    system_measure_from_json,
    system_measure_to_json,
)

__version__ = "0.1.0"

# every public name imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
