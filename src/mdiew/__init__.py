"""Sequential measurement-device-independent entanglement witnessing.

A simulation library for two-qubit entanglement detection through a
semi-quantum game with trusted quantum inputs and untrusted measurements,
and for the protocol where many observers witness one shared pair in
sequence through unsharp measurements.
"""

from .linalg import (
    DensityOperator,
    SubsystemLayout,
    embed_operator,
    negativity,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
    tensor_states,
)
from .measurement import (
    BinaryEffectPair,
    DegenerateOutcomeError,
    averaged_channel,
    bell_projector,
    effect_sqrt,
    luders_update,
    outcome_probability,
    unsharp_pair,
)
from .protocol import (
    BobRecord,
    ProtocolTrace,
    boundary_alpha_for_n,
    delta_negativity,
    delta_negativity_at_threshold,
    equal_sharpness_count,
    equal_sharpness_curve,
    f_of_lambda,
    lambda_range,
    lambda_range_table,
    n_max_over_lambda,
    negativity_walpha,
    run_equal_sharpness,
    run_threshold_protocol,
    threshold_from_negativity,
    threshold_success_count,
)
from .states import (
    InputEnsemble,
    alpha_from_entanglement,
    bell_phi_plus,
    entanglement_entropy,
    input_ensemble,
    input_state,
    pair_layout,
    psi_alpha,
    werner_alpha,
    werner_strength,
)
from .witness import (
    SingularEnsembleError,
    WitnessCoefficients,
    WitnessValue,
    decompose_witness,
    mdi_ew_closed_form,
    mdi_ew_closed_form_unsharp,
    mdi_ew_numeric,
    threshold_lambda,
    werner_beta,
)

__version__ = "0.1.0"
