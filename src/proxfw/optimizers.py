"""Training-step rules: the proximal Frank-Wolfe optimizer and baselines.

The main step (``dfw_step``) performs one dual Frank-Wolfe pass per
mini-batch: a forward pass for scores, one direction pick per sample on
the label simplex, a single backward pass for the direction-weighted
gradient, and a closed-form step size. With step size 1 it reduces
exactly to SGD with Nesterov momentum on the hinge objective, which the
baseline ``sgd_nesterov_step`` implements directly; ``adaptive_baseline_step``
covers adagrad, adam and amsgrad with their usual defaults.

Every step function has the same shape: ``step(state, batch, model)``
returns ``(new_state, StepDiagnostics)`` and never mutates its inputs.
Baselines report no step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import nonnegative, positive, whole_numbers
from .losses import _check_mode, augmented_scores_batch, conditional_vertex_batch
from .losses import cross_entropy_batch, softmax_batch
from .proximal import _anchor, _direction_terms, single_step_size

__all__ = [
    "DFWState",
    "BaselineState",
    "StepDiagnostics",
    "dfw_step",
    "sgd_nesterov_step",
    "adaptive_baseline_step",
    "effective_lr",
    "default_lr_schedule",
    "BASELINE_KINDS",
    "MOMENT_COUNTS",
]

# moment buffers per kind: adagrad's squared-gradient sum; adam's first and
# second moments; amsgrad's two plus the running maximum of the second
MOMENT_COUNTS = {"sgd": 0, "adagrad": 1, "adam": 2, "amsgrad": 3}
BASELINE_KINDS = tuple(MOMENT_COUNTS)
LOSSES = ("svm", "ce")

# Nesterov velocity coefficient and weight decay unless a run sets them
DEFAULT_MOMENTUM = 0.9
DEFAULT_L2 = 1e-4

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAGRAD_EPS = 1e-10


def _check_hyperparameters(rate_name: str, rate: float, momentum: float, l2: float):
    positive(rate_name, rate)
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum!r}")
    nonnegative("l2", l2)


def _buffer(name: str, value, w: np.ndarray) -> np.ndarray:
    """A state buffer beside ``w``: zeros when ``value`` is None, else
    ``value`` as floats, which must have ``w``'s shape."""
    if value is None:
        return np.zeros_like(w)
    value = np.asarray(value, dtype=float)
    if value.shape != w.shape:
        raise ValueError(f"{name} must have the shape of w {w.shape}, got {value.shape}")
    return value


@dataclass
class DFWState:
    """Iterate of the proximal Frank-Wolfe optimizer.

    ``epoch`` is advanced by the harness as for the baselines; the step
    rule itself has no schedule.
    """

    w: np.ndarray
    eta: float
    momentum: float = DEFAULT_MOMENTUM
    l2: float = DEFAULT_L2
    mode: str = "smoothed"
    velocity: np.ndarray | None = None
    step_count: int = 0
    epoch: int = 0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        _check_hyperparameters("eta", self.eta, self.momentum, self.l2)
        _check_mode(self.mode)
        self.velocity = _buffer("velocity", self.velocity, self.w)


@dataclass
class StepDiagnostics:
    """What one step reports; ``step_size`` is None for the baselines."""

    step_size: float | None
    mean_loss: float
    switched: int
    batch_size: int


def _advanced(state, **changes):
    """``state`` with ``changes`` applied and its step counted.

    Skips ``__post_init__``: the fields a step computes come from its own
    checked inputs, so they are not checked again.
    """
    new = object.__new__(type(state))
    new.__dict__.update(vars(state), **changes, step_count=state.step_count + 1)
    return new


def _nesterov(state, velocity_step, w_step):
    """Nesterov momentum update, shared by dfw and sgd; counts the step."""
    velocity = state.momentum * state.velocity - velocity_step
    w = state.w - w_step + state.momentum * velocity
    return _advanced(state, w=w, velocity=velocity)


def dfw_step(state: DFWState, batch, model):
    """One proximal Frank-Wolfe training step on a mini-batch.

    Returns ``(new_state, diagnostics)``. The diagnostics carry the
    closed-form step size, the mean hinge loss of the batch, and how
    many samples fell back from the smoothed direction to the
    conditional-gradient vertex.
    """
    r, delta, loss_term, mean_hinge, switched, n = _direction_terms(
        state.w, batch, model, state.l2, state.mode
    )
    gamma = single_step_size(r, delta, loss_term, state.eta)
    new_state = _nesterov(state, (state.eta * gamma) * (r + delta), state.eta * (r + gamma * delta))
    return new_state, StepDiagnostics(
        step_size=gamma, mean_loss=mean_hinge, switched=switched, batch_size=n
    )


@dataclass
class BaselineState:
    """Iterate of one of the baseline optimizers.

    ``loss`` is the training objective, "svm" (multiclass hinge) or "ce".
    ``schedule`` is a tuple of ``(epoch, multiplier)`` pairs; every pair
    whose epoch has been reached multiplies the base learning rate. The
    harness advances ``epoch``. ``moments`` holds the ``MOMENT_COUNTS[kind]``
    adaptive buffers, zeros unless given.
    """

    kind: str
    w: np.ndarray
    lr: float
    momentum: float = DEFAULT_MOMENTUM
    l2: float = DEFAULT_L2
    loss: str = "svm"
    schedule: tuple = ()
    epoch: int = 0
    step_count: int = 0
    velocity: np.ndarray | None = None
    moments: tuple | None = None

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {self.kind!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        self.w = np.asarray(self.w, dtype=float)
        _check_hyperparameters("lr", self.lr, self.momentum, self.l2)
        self.schedule = checked_schedule(self.schedule)
        self.velocity = _buffer("velocity", self.velocity, self.w)
        count = MOMENT_COUNTS[self.kind]
        moments = (None,) * count if self.moments is None else tuple(self.moments)
        if len(moments) != count:
            raise ValueError(
                f"moments of a {self.kind} state must hold {count} buffers, got {len(moments)}"
            )
        self.moments = tuple(_buffer(f"moments[{i}]", m, self.w) for i, m in enumerate(moments))


def effective_lr(state: BaselineState) -> float:
    """Base rate times every schedule multiplier already reached."""
    lr = state.lr
    for epoch, mult in state.schedule:
        if state.epoch >= epoch:
            lr *= mult
    return lr


def checked_schedule(schedule) -> tuple:
    """``schedule`` as ``(int epoch, float multiplier)`` pairs, every epoch
    a whole number and every multiplier finite and positive."""
    pairs = tuple((int(whole_numbers("lr schedule epoch", e)), float(m)) for e, m in schedule)
    for _, mult in pairs:
        positive("lr schedule multiplier", mult)
    return pairs


def default_lr_schedule(epochs: int) -> tuple:
    """Divide the rate by 5 at 30%, 60% and 90% of the epoch budget."""
    marks = sorted({int(epochs * f) for f in (0.3, 0.6, 0.9)})
    return tuple((m, 0.2) for m in marks if 0 < m < epochs)


def _objective_gradient(w, batch, model, l2: float, loss: str):
    """Gradient of regularizer + mean loss; one backward pass.

    Returns ``(gradient, mean_loss, batch_size)``.
    """
    if loss not in LOSSES:
        raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
    F, ref, y, onehot, r, n = _anchor(w, batch, model, l2)
    if loss == "svm":
        aug = augmented_scores_batch(F, y)
        S, mean_loss = conditional_vertex_batch(aug), aug.max(axis=1).sum() / n
    else:
        S, mean_loss = softmax_batch(F), cross_entropy_batch(F, y).sum() / n
    g_loss = ref.tape.backward(seed=(S - onehot) / n, at=ref)
    return r + g_loss, float(mean_loss), n


def sgd_nesterov_step(state: BaselineState, batch, model):
    """SGD with Nesterov momentum and a stepwise learning-rate schedule."""
    if state.kind != "sgd":
        raise ValueError(f"sgd_nesterov_step on state of kind {state.kind!r}")
    g, mean_loss, n = _objective_gradient(state.w, batch, model, state.l2, state.loss)
    step = effective_lr(state) * g
    new_state = _nesterov(state, step, step)
    return new_state, StepDiagnostics(
        step_size=None, mean_loss=mean_loss, switched=0, batch_size=n
    )


def adaptive_baseline_step(state: BaselineState, batch, model):
    """One adagrad / adam / amsgrad step on regularizer + mean loss."""
    if state.kind not in ("adagrad", "adam", "amsgrad"):
        raise ValueError(f"adaptive_baseline_step on state of kind {state.kind!r}")
    g, mean_loss, n = _objective_gradient(state.w, batch, model, state.l2, state.loss)
    lr = effective_lr(state)
    t = state.step_count + 1
    if state.kind == "adagrad":
        accum = state.moments[0] + g * g
        w = state.w - lr * g / np.sqrt(accum + ADAGRAD_EPS)
        moments = (accum,)
    else:
        m1 = ADAM_BETA1 * state.moments[0] + (1.0 - ADAM_BETA1) * g
        m2 = ADAM_BETA2 * state.moments[1] + (1.0 - ADAM_BETA2) * (g * g)
        if state.kind == "adam":
            m1_hat = m1 / (1.0 - ADAM_BETA1**t)
            m2_hat = m2 / (1.0 - ADAM_BETA2**t)
            w = state.w - lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPS)
            moments = (m1, m2)
        else:
            # keeps the largest second moment seen, no bias correction
            m2_max = np.maximum(state.moments[2], m2)
            w = state.w - lr * m1 / (np.sqrt(m2_max) + ADAM_EPS)
            moments = (m1, m2, m2_max)
    new_state = _advanced(state, w=w, moments=moments)
    return new_state, StepDiagnostics(
        step_size=None, mean_loss=mean_loss, switched=0, batch_size=n
    )
