"""proxfw: proximal Frank-Wolfe training on a tape-based gradient engine.

The package trains multiclass hinge-loss models by solving, at every
mini-batch, the dual of a proximal subproblem with one Frank-Wolfe pass
whose step size has a closed form. It ships the reverse-mode tape the
models run on, standard baselines (SGD with Nesterov momentum, adagrad,
adam, amsgrad), seeded synthetic datasets plus CSV/LIBSVM loaders, and a
benchmark harness with a deterministic metrics format.
"""

__version__ = "0.1.0"

from .autodiff import Tape, backward_grad, fd_gradient_oracle
from .bench import (
    EpochMetrics,
    RunConfig,
    SweepRow,
    TrainResult,
    emit_metrics,
    emit_sweep,
    evaluate,
    run_training,
    sensitivity_sweep,
)
from .data import (
    Dataset,
    DatasetFormatError,
    SplitDataset,
    generate_synthetic,
    load_dataset,
    split_dataset,
)
from .losses import (
    augmented_scores,
    conditional_gradient_direction,
    cross_entropy,
    default_direction_mode,
    dual_direction,
    hinge_loss,
    softmax_direction,
)
from .models import ModelSpec, Sample, init_params
from .optimizers import (
    BaselineState,
    DFWState,
    StepDiagnostics,
    adaptive_baseline_step,
    default_lr_schedule,
    dfw_step,
    sgd_nesterov_step,
)
from .proximal import (
    DualVertex,
    ProximalState,
    conditional_gradient_primal,
    dual_objective,
    optimal_step_size,
    proximal_fw_solve,
    single_step_size,
)

__all__ = [
    "Tape",
    "backward_grad",
    "fd_gradient_oracle",
    "ModelSpec",
    "Sample",
    "init_params",
    "hinge_loss",
    "cross_entropy",
    "augmented_scores",
    "softmax_direction",
    "conditional_gradient_direction",
    "dual_direction",
    "default_direction_mode",
    "ProximalState",
    "DualVertex",
    "dual_objective",
    "optimal_step_size",
    "single_step_size",
    "conditional_gradient_primal",
    "proximal_fw_solve",
    "DFWState",
    "BaselineState",
    "StepDiagnostics",
    "dfw_step",
    "sgd_nesterov_step",
    "adaptive_baseline_step",
    "default_lr_schedule",
    "Dataset",
    "SplitDataset",
    "DatasetFormatError",
    "generate_synthetic",
    "load_dataset",
    "split_dataset",
    "RunConfig",
    "EpochMetrics",
    "TrainResult",
    "SweepRow",
    "run_training",
    "sensitivity_sweep",
    "emit_metrics",
    "emit_sweep",
    "evaluate",
    "__version__",
]
