"""nlboson: photonic sampling with single-mode non-linear phase gates.

Exact transition amplitudes for linear and non-linear Fock-state evolutions,
synthesis of post-selected linear-optical gadgets realizing the non-linear
phase gate, heralded simulation of the gate by an enlarged linear system, and
the desk-scale analyses built on top of them.
"""

from .analysis import (
    ExperimentRecord,
    SearchResult,
    TruncationResult,
    amplitude_metrics,
    bunching_at_site,
    bunching_global,
    default_gate_mode,
    fraction_for_threshold,
    random_unitary_search,
    sorted_cumulative,
    summarize_records,
    synthesize_gadgets,
    truncated_mass_study,
    tvd,
    tvd_bunching_experiment,
    write_records_csv,
)
from .errors import (
    BosonError,
    DimensionError,
    GadgetSynthesisError,
    NotUnitaryError,
    PostselectionError,
    SamplingBudgetError,
    StateSpaceTooLargeError,
)
from .fock import (
    FockState,
    StateSpace,
    as_state,
    concat_states,
    enumerate_states,
    format_state,
    normalization_product,
    occupation_indices,
    parse_state,
    photon_count,
    space_size,
)
from .gadget import (
    DEFAULT_SUCCESS_THRESHOLDS,
    GadgetSpec,
    apply_gadget,
    expanded_gadget_matrix,
    gadget_from_json,
    gadget_objective,
    gadget_residuals,
    gadget_to_json,
    heralded_factors,
    load_gadget,
    optimize_gadget,
    reference_gadget,
    save_gadget,
    success_bound,
    success_probability,
    verify_gadget,
)
from .linalg import (
    ReckParams,
    direct_sum,
    gathered_permanents,
    haar_unitary,
    load_matrix,
    matmul,
    matrix_from_json,
    matrix_from_states,
    matrix_to_json,
    permanent,
    permanent_naive,
    permanents,
    phase_shifter,
    random_reck_params,
    reck_to_unitary,
    require_unitary,
    save_matrix,
    unitarity_deviation,
)
from .linear import (
    Distribution,
    amplitude,
    output_distribution,
    read_distribution_csv,
    sample_exact,
    verify_composition,
    write_distribution_csv,
)
from .nonlinear import (
    DiagonalGate,
    MatrixGate,
    NonlinearExperiment,
    SingleModePhase,
    linearized_evolution,
    nonlinear_amplitude,
    nonlinear_distribution,
    phase_gate_amplitude,
    phase_gate_amplitude_split,
    photon_number_components,
)
from .simulate import (
    AcceptanceStats,
    SimulationSetup,
    build_setup,
    postselected_distribution,
    run_rejection_sampling,
)

__version__ = "0.1.0"
