"""deft: adapter-based fine-tuning of frozen weight matrices.

Three adapter methods (lora, para, deft) over a frozen base weight, seven
decomposition backends for the projection factor, executable column-space
checks, gradient-verified SGD on synthetic tasks, and bit-exact
persistence. See the README for the CLI surface.
"""

from deft.adapters import (
    AdapterConfig,
    AdapterState,
    ConfigError,
    METHODS,
    config_from_fields,
    forward,
    init_adapter,
    merge,
    param_count,
    projection_factor,
    trainables,
)
from deft._jacobi import ConvergenceError
from deft.decompose import (
    Backend,
    DecompositionResult,
    KINDS,
    decompose,
    eig_project,
    lrmf_decompose,
    nmf_decompose,
    qr_decompose,
    reconstruct,
    relax,
    truncated_svd,
)
from deft.matcore import (
    ShapeError,
    frobenius_norm,
    gaussian,
    make_rng,
    numerical_rank,
)
from deft.store import (
    FormatError,
    PairingError,
    load_adapter,
    load_matrix,
    matrix_hash,
    parse_config,
    read_config,
    save_adapter,
    save_matrix,
    state_hash,
)
from deft.subspace import (
    DisplacementField,
    SubspaceReport,
    check_containment,
    displacement_field,
    verify_decomposition_identity,
)
from deft.train import (
    DivergenceError,
    ToyTask,
    TrainReport,
    grad,
    loss_mse,
    make_teacher_noise_task,
    make_teacher_shift_task,
    run_finetune,
    sgd_step,
)

__version__ = "0.1.0"

__all__ = [
    "AdapterConfig", "AdapterState", "Backend", "ConfigError", "ConvergenceError",
    "DecompositionResult", "DisplacementField", "DivergenceError",
    "FormatError", "KINDS", "METHODS", "PairingError", "ShapeError",
    "SubspaceReport", "ToyTask", "TrainReport",
    "check_containment", "config_from_fields", "decompose", "displacement_field", "eig_project",
    "forward", "frobenius_norm", "gaussian", "grad",
    "init_adapter", "load_adapter", "load_matrix", "loss_mse",
    "lrmf_decompose", "make_rng", "make_teacher_noise_task",
    "make_teacher_shift_task", "matrix_hash", "merge",
    "nmf_decompose", "numerical_rank", "param_count", "parse_config",
    "projection_factor", "qr_decompose", "read_config", "reconstruct",
    "relax", "run_finetune", "save_adapter", "save_matrix",
    "sgd_step", "state_hash", "trainables",
    "truncated_svd", "verify_decomposition_identity",
]
