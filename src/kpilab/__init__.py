"""Numerical laboratory for observability and exact control of linear and
fractional KP-I dynamics on the torus."""

__version__ = "0.1.0"

from .dispersion import (
    CriticalPointData,
    DispersionParams,
    critical_points,
    critical_shift,
    dispersion_relation,
    group_velocity,
    modular_pair,
    multiplier_curvature,
    semiclassical_translation,
)
from .errors import (
    ConfigError,
    ConstraintError,
    DimensionError,
    KPILabError,
    NonConvergenceError,
    NumericalConsistencyError,
    ParameterError,
    TruncationError,
)
from .fourier import (
    DEFAULT_LP_FAMILY,
    LPFamily,
    SpectralField,
    TorusGrid,
    forward_transform,
    inverse_transform,
    littlewood_paley_block,
    mode_field,
    project_mean_zero,
    sobolev_norm,
    zero_field,
)
from .hum import (
    ControlGramian,
    ControlTrajectory,
    control_gramian_apply,
    hum_functional,
    quadrature_gramian_apply,
    synthesize_control,
    verify_control,
)
from .observe import (
    ControlProfile,
    GramianBlock,
    ObservabilityEstimate,
    apply_horizontal_control,
    apply_vertical_control,
    assemble_horizontal_gramian,
    assemble_observability_gramian,
    default_profile,
    make_control_profile,
    make_region_profile,
    observability_constant,
    observability_gramian_blocks,
    observability_ratio,
    spectral_constant,
    spectral_constant_table,
)
from .packets import (
    DichotomyResult,
    PacketParams,
    dichotomy_experiment,
    embed_2d,
    gaussian_packet_coefficients,
    invisible_solution,
    modulated_packet,
    packet_initial_data,
)
from .propagate import (
    evolve,
    evolve_many,
    evolve_modewise,
    evolve_semiclassical,
    rk4_reference_evolve,
)
from .experiments import (
    frequency_localized_scan,
    random_field,
    run_experiment,
    seeded_rng,
    weak_observability_diagnostic,
)
