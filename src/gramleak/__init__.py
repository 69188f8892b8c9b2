"""Gradient-leakage workbench for federated quadratic logistic regression.

Simulates synchronized/asynchronized federated training on binary data,
recovers the leaked linear systems an honest-but-curious participant sees,
and reconstructs the victim's binary batch exactly from its Gram matrix.
"""

from .attack import (
    AsymmetryDetected,
    ClosedFormParams,
    NullityCheck,
    RecoveredSystem,
    ResidualTooLarge,
    closed_form_delta,
    closed_form_params,
    gamma_nullity_check,
    multiparty_stack_check,
    recover_alpha_beta,
    recover_gamma_eta,
)
from .fedsim import (
    ASYNCHRONIZED,
    SYNCHRONIZED,
    Batch,
    Observation,
    TrainingConfig,
    Transcript,
    approx_loss,
    async_local_pass,
    batch_gradient,
    dump_transcript,
    load_transcript,
    random_batch,
    run_training,
    sync_round,
)
from .numkit import (
    DimensionMismatch,
    NotIntegral,
    RankDeficient,
    as_matrix,
    as_vector,
    rank,
    round_integral,
    solve_linear,
)
from .reconstruct import (
    IlpModel,
    InfeasibleScreen,
    NoConsistentLabels,
    Solution,
    SolverStats,
    build_model,
    canonical_rows,
    count_constraints,
    discover_batch_size,
    enumerate_labels,
    export_model_text,
    recover_labels,
    solve,
    verify_solution,
)

__version__ = "0.1.0"
