"""Benchmark harness: seeded training runs, sweeps, and metric files.

A run is fully described by a :class:`RunConfig`; identical configs
(including the seed) produce bit-identical metric files apart from the
wall-time column. Per-epoch metrics follow a fixed CSV schema::

    epoch,train_loss,train_acc,val_acc,mean_gamma,switch_fraction,wall_time_s

with floats at 6 significant digits and empty fields where a column does
not apply (step-size columns for baselines). Non-finite losses or
parameters abort the run; completed epochs are kept and the run is
flagged as diverged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import losses, models, optimizers
from ._checks import positive
from .data import SplitDataset

__all__ = [
    "RunConfig",
    "EpochMetrics",
    "TrainResult",
    "SweepRow",
    "METRICS_HEADER",
    "SWEEP_HEADER",
    "run_training",
    "sensitivity_sweep",
    "emit_metrics",
    "emit_sweep",
    "evaluate",
]

METRICS_HEADER = "epoch,train_loss,train_acc,val_acc,mean_gamma,switch_fraction,wall_time_s"
SWEEP_HEADER = "eta,best_val_acc,final_train_acc,final_train_loss,status"

OPTIMIZERS = ("dfw",) + optimizers.BASELINE_KINDS
DIRECTION_MODES = ("auto",) + losses.MODES

# stream tags keeping the shuffle order independent from weight init
_SHUFFLE_STREAM = 7


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a training run."""

    dataset: SplitDataset
    optimizer: str = "dfw"
    eta: float = 0.1
    momentum: float = 0.9
    l2: float = 1e-4
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    model: str = "mlp"
    hidden_dims: tuple = (64,)
    loss: str = "svm"
    direction_mode: str = "auto"
    lr_schedule: str | tuple = "auto"

    def resolved_mode(self, num_classes: int) -> str:
        if self.direction_mode == "auto":
            return losses.default_direction_mode(num_classes)
        return self.direction_mode

    def resolved_schedule(self) -> tuple:
        if self.lr_schedule == "auto":
            if self.optimizer == "sgd":
                return optimizers.default_lr_schedule(self.epochs)
            return ()
        if self.lr_schedule in ("none", None):
            return ()
        return tuple((int(e), float(m)) for e, m in self.lr_schedule)


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


def _build_model(config: RunConfig) -> models.ModelSpec:
    hidden = tuple(config.hidden_dims) if config.model == "mlp" else ()
    return models.ModelSpec(
        kind=config.model,
        input_dim=config.dataset.dim,
        num_classes=config.dataset.num_classes,
        hidden_dims=hidden,
    )


def evaluate(model, w, data, loss: str = "svm"):
    """Mean loss and accuracy of ``w`` on a :class:`~proxfw.data.Dataset`."""
    F, _ = model.batch_scores(w, data.X)
    pred = np.argmax(F, axis=1)
    acc = float((pred == data.y).mean())
    if loss == "ce":
        val = float(losses.cross_entropy_batch(F, data.y).mean())
    else:
        val = float(losses.hinge_loss_batch(F, data.y).mean())
    return val, acc


def _init_state(config: RunConfig, model, mode: str, schedule: tuple):
    """Initial optimizer state and the step function that advances it."""
    w0 = model.init_params(config.seed)
    if config.optimizer == "dfw":
        state = optimizers.DFWState(
            w=w0, eta=config.eta, momentum=config.momentum, l2=config.l2, mode=mode
        )
        return state, optimizers.dfw_step
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
        return state, optimizers.sgd_nesterov_step
    return state, optimizers.adaptive_baseline_step


def run_training(config: RunConfig) -> TrainResult:
    """Run one seeded training job and collect per-epoch metrics.

    The epoch shuffle uses its own seeded generator, independent of the
    weight-initialization stream, so optimizers that share a seed see the
    same batch order.
    """
    _validate(config)
    data = config.dataset
    model = _build_model(config)
    mode = config.resolved_mode(data.num_classes)
    state, step = _init_state(config, model, mode, config.resolved_schedule())
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
    """Run ``base`` once per distinct eta; failures never stop the sweep."""
    rows = []
    for eta in dict.fromkeys(float(e) for e in eta_grid):
        cfg = replace(base, eta=eta)
        try:
            result = run_training(cfg)
        except Exception:
            rows.append(SweepRow(eta, float("nan"), float("nan"), float("nan"), "error"))
            continue
        if result.metrics:
            best_val = max(m.val_acc for m in result.metrics)
            final_ta = result.metrics[-1].train_acc
            final_tl = result.metrics[-1].train_loss
        else:
            best_val = final_ta = final_tl = float("nan")
        rows.append(
            SweepRow(
                eta,
                best_val,
                final_ta,
                final_tl,
                "diverged" if result.diverged else "ok",
            )
        )
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return "nan"
    return f"{x:.6g}"


def _write_csv(path, header: str, rows):
    """Write ``header`` and one comma-joined line per row of fields."""
    lines = [header] + [",".join(fields) for fields in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_metrics(metrics, path):
    """Write per-epoch metrics under the fixed CSV header."""
    rows = [
        [
            str(int(m.epoch)),
            _fmt(m.train_loss),
            _fmt(m.train_acc),
            _fmt(m.val_acc),
            _fmt(m.mean_gamma),
            _fmt(m.switch_fraction),
            _fmt(m.wall_time_s),
        ]
        for m in metrics
    ]
    _write_csv(path, METRICS_HEADER, rows)


def emit_sweep(rows, path):
    """Write sweep rows under the fixed sweep CSV header."""
    fields = [
        [
            _fmt(row.eta),
            _fmt(row.best_val_acc),
            _fmt(row.final_train_acc),
            _fmt(row.final_train_loss),
            row.status,
        ]
        for row in rows
    ]
    _write_csv(path, SWEEP_HEADER, fields)
