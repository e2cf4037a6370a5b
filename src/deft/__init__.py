"""deft: adapter-based fine-tuning of frozen weight matrices.

Three adapter methods (lora, para, deft) over a frozen base weight, seven
decomposition backends for the projection factor, executable column-space
checks, gradient-verified SGD on synthetic tasks, and bit-exact
persistence. See the README for the CLI surface.

The names imported below are the package's surface: the README's library
entry points and the exceptions the CLI maps to exit codes. Every other
name is imported from its submodule.
"""

from deft._jacobi import ConvergenceError
from deft.adapters import AdapterConfig, config_from_fields, forward, init_adapter, merge
from deft.decompose import Backend, ConfigError, decompose, reconstruct
from deft.matcore import ShapeError
from deft.store import (FormatError, PairingError, load_adapter, load_matrix, save_adapter,
                        save_matrix)
from deft.subspace import check_containment, verify_decomposition_identity
from deft.train import DivergenceError, make_teacher_shift_task, run_finetune

__version__ = "0.1.0"
