"""Benchmark harness: seeded training runs, sweeps, and metric files.

A run is fully described by a :class:`RunConfig`; identical configs
(including the seed) produce bit-identical metric files apart from the
wall-time column. The metrics and sweep CSV files have fixed schemas: the
columns are the fields of :class:`EpochMetrics` and :class:`SweepRow`, in
declaration order, with floats at 6 significant digits and empty fields
where a column does not apply (step-size columns for baselines).
Non-finite losses or parameters abort the run; completed epochs are kept
and the run is flagged as diverged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import losses, models, optimizers
from ._checks import positive, whole_numbers
from .data import SplitDataset

__all__ = [
    "RunConfig",
    "EpochMetrics",
    "TrainResult",
    "SweepRow",
    "METRICS_HEADER",
    "SWEEP_HEADER",
    "parse_schedule",
    "run_training",
    "sensitivity_sweep",
    "emit_metrics",
    "emit_sweep",
    "evaluate",
]

OPTIMIZERS = ("dfw",) + optimizers.BASELINE_KINDS
DIRECTION_MODES = ("auto",) + losses.MODES

# stream tags keeping the shuffle order independent from weight init
_SHUFFLE_STREAM = 7

# evaluate scores a split in chunks of this many rows, so its memory and
# matmul sizes stay those of a few training batches whatever the split size
EVAL_CHUNK_ROWS = 512


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a training run."""

    dataset: SplitDataset
    optimizer: str = "dfw"
    eta: float = 0.1
    momentum: float = optimizers.DEFAULT_MOMENTUM
    l2: float = optimizers.DEFAULT_L2
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    model: str = "mlp"
    hidden_dims: tuple = (64,)
    loss: str = "svm"
    direction_mode: str = "auto"
    lr_schedule: str | tuple = "auto"

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            object.__setattr__(self, name, int(whole_numbers(name, getattr(self, name))))

    def resolved_mode(self, num_classes: int) -> str:
        if self.direction_mode == "auto":
            return losses.default_direction_mode(num_classes)
        return self.direction_mode

    def resolved_schedule(self) -> tuple:
        schedule = self.lr_schedule
        if isinstance(schedule, str):
            schedule = parse_schedule(schedule)
        if schedule == "auto":
            if self.optimizer == "sgd":
                return optimizers.default_lr_schedule(self.epochs)
            return ()
        if schedule in ("none", None):
            return ()
        return optimizers.checked_schedule(schedule)


def parse_schedule(text: str):
    """An lr schedule written as ``"auto"``, ``"none"`` or
    ``"epoch:mult,epoch:mult,..."``: the keyword, or the ``(epoch,
    multiplier)`` pairs. The multipliers are checked when the schedule is
    resolved."""
    if text in ("auto", "none"):
        return text
    pairs = []
    for chunk in text.split(","):
        epoch, sep, mult = chunk.partition(":")
        try:
            if not sep:
                raise ValueError
            pairs.append((int(epoch), float(mult)))
        except ValueError:
            raise ValueError(
                f"bad lr schedule entry {chunk!r} in {text!r}; expected epoch:multiplier"
            ) from None
    return tuple(pairs)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    mean_gamma: float | None
    switch_fraction: float | None
    wall_time_s: float


@dataclass
class TrainResult:
    metrics: list
    diverged: bool
    final_w: np.ndarray


@dataclass
class SweepRow:
    eta: float
    best_val_acc: float
    final_train_acc: float
    final_train_loss: float
    status: str


def _header(record_type) -> str:
    # a CSV's columns are its record type's fields, in declaration order
    return ",".join(f.name for f in fields(record_type))


METRICS_HEADER = _header(EpochMetrics)
SWEEP_HEADER = _header(SweepRow)


def _validate(config: RunConfig):
    if config.optimizer not in OPTIMIZERS:
        raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {config.optimizer!r}")
    if config.optimizer == "dfw" and config.loss != "svm":
        raise ValueError("the dfw optimizer trains the svm loss only")
    positive("eta", config.eta)
    if config.batch_size < 1 or config.epochs < 1:
        raise ValueError("need batch_size >= 1 and epochs >= 1")
    for name in ("train", "val"):
        if len(getattr(config.dataset, name)) == 0:
            raise ValueError(f"the {name} split is empty")
    if config.direction_mode not in DIRECTION_MODES:
        raise ValueError(f"bad direction mode {config.direction_mode!r}")
    # dfw has no schedule, but a bad one is still a bad setting
    config.resolved_schedule()


def _build_model(config: RunConfig) -> models.ModelSpec:
    hidden = config.hidden_dims if config.model == "mlp" else ()
    return models.ModelSpec(
        kind=config.model,
        input_dim=config.dataset.dim,
        num_classes=config.dataset.num_classes,
        hidden_dims=hidden,
    )


def evaluate(model, w, data, loss: str = "svm"):
    """Mean loss and accuracy of ``w`` on a :class:`~proxfw.data.Dataset`."""
    if loss not in optimizers.LOSSES:
        raise ValueError(f"loss must be one of {optimizers.LOSSES}, got {loss!r}")
    X = data.X
    if len(X) == 0:
        raise ValueError("cannot evaluate on an empty split")
    F = np.concatenate(
        [
            model.batch_scores(w, X[start : start + EVAL_CHUNK_ROWS])[0]
            for start in range(0, len(X), EVAL_CHUNK_ROWS)
        ]
    )
    pred = np.argmax(F, axis=1)
    acc = float((pred == data.y).mean())
    per_row = losses.cross_entropy_batch if loss == "ce" else losses.hinge_loss_batch
    return float(per_row(F, data.y).mean()), acc


def _setup(config: RunConfig):
    """Check every setting of ``config``; its model, the initial optimizer
    state and the step function that advances it."""
    _validate(config)
    model = _build_model(config)
    mode = config.resolved_mode(config.dataset.num_classes)
    schedule = config.resolved_schedule()
    w0 = model.init_params(config.seed)
    if config.optimizer == "dfw":
        state = optimizers.DFWState(
            w=w0, eta=config.eta, momentum=config.momentum, l2=config.l2, mode=mode
        )
        return model, state, optimizers.dfw_step
    state = optimizers.BaselineState(
        kind=config.optimizer,
        w=w0,
        lr=config.eta,
        momentum=config.momentum,
        l2=config.l2,
        loss=config.loss,
        schedule=schedule,
    )
    if config.optimizer == "sgd":
        return model, state, optimizers.sgd_nesterov_step
    return model, state, optimizers.adaptive_baseline_step


def run_training(config: RunConfig) -> TrainResult:
    """Run one seeded training job and collect per-epoch metrics.

    The epoch shuffle uses its own seeded generator, independent of the
    weight-initialization stream, so optimizers that share a seed see the
    same batch order.
    """
    model, state, step = _setup(config)
    data = config.dataset
    shuffle_rng = np.random.default_rng([config.seed, _SHUFFLE_STREAM])

    metrics: list[EpochMetrics] = []
    diverged = False
    n = len(data.train)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        state = replace(state, epoch=epoch)
        order = shuffle_rng.permutation(n)
        diags = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            state, diag = step(state, (data.train.X[idx], data.train.y[idx]), model)
            diags.append(diag)
            if not np.all(np.isfinite(state.w)):
                diverged = True
                break
        if diverged:
            break
        train_loss, train_acc = evaluate(model, state.w, data.train, config.loss)
        _, val_acc = evaluate(model, state.w, data.val, config.loss)
        if not np.isfinite(train_loss):
            diverged = True
            break
        if diags[0].step_size is None:  # the baselines have no step size
            mean_gamma = switch_fraction = None
        else:
            mean_gamma = float(np.mean([d.step_size for d in diags]))
            switch_fraction = sum(d.switched for d in diags) / sum(d.batch_size for d in diags)
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=train_loss,
                train_acc=train_acc,
                val_acc=val_acc,
                mean_gamma=mean_gamma,
                switch_fraction=switch_fraction,
                wall_time_s=time.perf_counter() - t0,
            )
        )
    return TrainResult(metrics=metrics, diverged=diverged, final_w=state.w)


def sensitivity_sweep(base: RunConfig, eta_grid) -> list:
    """Run ``base`` once per distinct eta.

    Every setting but eta is checked once, before the grid runs, and a bad
    one raises ValueError. An eta that is not finite and positive makes an
    ``error`` row; the other etas still run.
    """
    _setup(replace(base, eta=RunConfig.eta))  # base's own eta is replaced
    nan = float("nan")
    rows = []
    for eta in dict.fromkeys(float(e) for e in eta_grid):
        try:
            positive("eta", eta)
        except ValueError:
            rows.append(SweepRow(eta, nan, nan, nan, "error"))
            continue
        result = run_training(replace(base, eta=eta))
        if result.metrics:
            best_val = max(m.val_acc for m in result.metrics)
            final_ta = result.metrics[-1].train_acc
            final_tl = result.metrics[-1].train_loss
        else:
            best_val = final_ta = final_tl = nan
        status = "diverged" if result.diverged else "ok"
        rows.append(SweepRow(eta, best_val, final_ta, final_tl, status))
    return rows


def _field(value) -> str:
    """One CSV field: None is blank, an int or a str is written as is, and a
    float is ``nan`` or ``%.6g``."""
    if value is None:
        return ""
    if isinstance(value, (int, str)):
        return str(value)
    value = float(value)
    return "nan" if np.isnan(value) else f"{value:.6g}"


def _write_csv(path, record_type, records):
    """Write the header of ``record_type`` and one line per record: its
    fields in declaration order, each through :func:`_field`."""
    names = [f.name for f in fields(record_type)]
    lines = [_header(record_type)]
    lines += [",".join(_field(getattr(record, name)) for name in names) for record in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_metrics(metrics, path):
    """Write per-epoch metrics under the fixed CSV header."""
    _write_csv(path, EpochMetrics, metrics)


def emit_sweep(rows, path):
    """Write sweep rows under the fixed sweep CSV header."""
    _write_csv(path, SweepRow, rows)
