"""Kinetic laboratory for the planar relativistic Vlasov-Maxwell system.

Particle ensembles, a spectral Maxwell solver with Boris characteristics,
retarded-integral field reconstruction, and a suite of quantitative
inequality checks, in the planar (2D) and translation-invariant (2.5D)
geometries.  Units have c = 1.
"""

__version__ = "0.1.0"

from .phase import (  # noqa: F401
    Momentum,
    ParticleEnsemble,
    MomentSpec,
    NormSpec,
    momentum_derived,
    weight_w,
    cone_coords,
    momentum_cone_angle,
    moment,
    mixed_norm,
    interpolation_check,
    save_ensemble,
    load_ensemble,
)
from .characteristics import (  # noqa: F401
    CharState,
    FlowJacobian,
    FieldSampler,
    FieldGradientSampler,
    push,
    push_many,
    flow_map,
    variational_push,
    forward_backward_report,
)
from .maxwell import (  # noqa: F401
    Grid,
    FieldState,
    SourceDensities,
    GaugeState,
    SpectralWave,
    step_maxwell,
    constraint_residual,
    poisson_efield,
    gauge_a3,
    evolve_a3,
    field_energy,
    energy,
    flux_identity_lhs,
    good_component_sq,
    save_field,
    load_field,
)
from .pic import (  # noqa: F401
    Scenario,
    RunResult,
    RunHistory,
    DiagnosticSeries,
    scenario_from_dict,
    load_scenario,
    sample_ensemble,
    initial_fields,
    deposit,
    run,
    conservation_report,
    moment_inequality_monitor,
    golden_2d,
    golden_25d,
    golden_repr,
)
from .retarded import (  # noqa: F401
    KernelSet2D,
    KernelSet25D,
    RetardedQuadrature,
    kernel_eval_2d,
    kernel_eval_25d,
    kernel_arrays_2d,
    kernel_arrays_25d,
    kernel_bound_check,
    box_inverse,
    slab_weights,
    field_from_representation,
    grid_field_at,
    epsilon_split_eval,
)
from .inequalities import (  # noqa: F401
    IneqReport,
    SamplerConfig,
    flux_identity_check,
    flux_identity_suite,
    geometry_bounds_check,
    singular_integral_lemma_check,
    interpolation_suite,
    gronwall_check,
    strichartz_admissible,
    strichartz_empirical,
    cone_split_check,
)
