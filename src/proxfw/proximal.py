"""Primal-dual proximal step machinery.

Each training step solves a proximal problem around the current point
``w0``: minimize ``|w - w0|^2 / (2 eta)`` plus the hinge loss of the
model linearized at ``w0`` (the regularizer is linearized too; the
hinge is kept exact). Its dual is a quadratic over the label simplex,
and one Frank-Wolfe pass over that dual has a closed-form optimal step
size, which is what makes the outer optimizer tuning-free beyond eta.

State convention: the dual iterate is tracked through primal mirrors
``w`` (current primal point) and ``lam`` (the linear term b'alpha of
the dual objective), never through alpha itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import nonnegative, positive, whole_numbers
from .losses import augmented_scores_batch, dual_direction_batch, one_hot
from .models import batch_arrays

__all__ = [
    "ProximalState",
    "DualVertex",
    "SolveDiagnostics",
    "dual_objective",
    "optimal_step_size",
    "single_step_size",
    "conditional_gradient_primal",
    "proximal_fw_solve",
]

# below this squared norm the Frank-Wolfe direction carries no signal and
# the step size is defined as 0
DEGENERATE_DENOM = 1e-24
_MEMO_BYTES = 1 << 20  # bytes of vertex mirrors, keys included, one solve keeps


@dataclass
class ProximalState:
    """Primal mirror of a dual iterate: anchor ``w0``, point ``w``,
    dual linear term ``lam``, proximal weight ``eta``."""

    w0: np.ndarray
    w: np.ndarray
    lam: float
    eta: float

    def __post_init__(self):
        self.w0 = np.asarray(self.w0, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        positive("eta", self.eta)
        if self.w0.shape != self.w.shape:
            raise ValueError("w0 and w must have the same shape")


@dataclass
class DualVertex:
    """Primal mirror (w_s, lam_s) of one simplex vertex or simplex point."""

    w: np.ndarray
    lam: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)


@dataclass
class SolveDiagnostics:
    """Per-iteration record of a proximal solve."""

    dual_objectives: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def dual_objective(state: ProximalState) -> float:
    """Dual objective at the state: -|w - w0|^2 / (2 eta) + lam."""
    return _dual_value(state.w - state.w0, state.lam, state.eta)


def _dual_value(moved, lam: float, eta: float) -> float:
    return float(-(moved @ moved) / (2.0 * eta) + lam)


def optimal_step_size(state: ProximalState, vertex: DualVertex) -> float:
    """Exact line search toward ``vertex``, clipped to [0, 1].

    Maximizes the dual objective along the segment from the current
    iterate to the vertex. Degenerate directions (denominator below
    ``DEGENERATE_DENOM``) return 0.
    """
    positive("eta", state.eta)
    if vertex.w.shape != state.w.shape:
        raise ValueError(f"vertex w has shape {vertex.w.shape}, state w has shape {state.w.shape}")
    moved = state.w - state.w0
    gap_dir = moved - vertex.w
    denom = float(np.vdot(gap_dir, gap_dir))
    if denom < DEGENERATE_DENOM:
        return 0.0
    dlam = vertex.lam - state.lam
    num = float(np.vdot(gap_dir, moved)) + state.eta * dlam
    if math.isfinite(num) and math.isfinite(denom):
        ratio = num / denom
    else:
        ratio = _rescaled_ratio(moved, gap_dir, dlam, state.eta)
    return _clip01(ratio)


def single_step_size(r, delta, loss_term: float, eta: float) -> float:
    """Closed-form step size of the one-pass proximal step.

    Equals ``(-eta r'delta + loss_term) / (eta |delta|^2)`` clipped to
    [0, 1], with 0 on degenerate ``delta``; ``loss_term`` is the mean
    direction-weighted augmented score s'b of the batch.
    """
    positive("eta", eta)
    r = np.asarray(r, dtype=float)
    delta = np.asarray(delta, dtype=float)
    sq = float(np.vdot(delta, delta))
    if sq < DEGENERATE_DENOM:
        return 0.0
    num = -eta * float(np.vdot(delta, r)) + float(loss_term)
    denom = eta * sq
    if math.isfinite(num) and math.isfinite(denom):
        ratio = num / denom
    else:
        ratio = _rescaled_ratio(-r, delta, float(loss_term), 1.0 / eta)
    return _clip01(ratio)


def _clip01(ratio: float) -> float:
    # np.clip(ratio, 0.0, 1.0) bit for bit (NaN and -0.0 included) on a
    # Python float, without numpy's per-call overhead
    return min(max(ratio, 0.0), 1.0)


def _rescaled_ratio(x, y, c, k) -> float:
    """``(x'y + c k) / (y'y)`` for a nonzero ``y`` whose plain products overflow.

    Both vectors are first divided by their largest absolute entry, so
    neither dot product can overflow and ``y'y`` is at least 1. The scales
    come back in as ratios; a term too large for a float becomes a signed
    infinity, which the callers' clip maps to 0 or 1.
    """
    a = float(np.max(np.abs(x))) or 1.0
    b = float(np.max(np.abs(y)))
    xs, ys = x / a, y / b
    with np.errstate(over="ignore"):
        return float((float(xs @ ys) * a / b + c / b * k / b) / float(ys @ ys))


def _anchor(w, batch, model, l2: float):
    """``(F, ref, y, onehot, r, n)`` of ``batch`` at ``w``: the scores and
    their tape node, the labels and their one-hot rows, the regularizer
    gradient (biases excluded) and the batch size. Every pass reads these."""
    X, y = batch_arrays(batch)
    w = np.asarray(w, dtype=float)
    F, ref = model.batch_scores(w, X)
    return F, ref, y, one_hot(y, F.shape[1]), l2 * w * model.weight_mask(), X.shape[0]


def _direction_terms(w, batch, model, l2: float, mode: str):
    """Shared per-batch computation for the one-pass step.

    Returns ``(r, delta, loss_term, mean_hinge, switched, n)`` where
    ``r`` is the regularizer gradient (biases excluded), ``delta`` the
    gradient of the mean direction-weighted augmented scores, and
    ``loss_term`` the mean s'b used in the step-size numerator.
    """
    F, ref, y, onehot, r, n = _anchor(w, batch, model, l2)
    aug = augmented_scores_batch(F, y)
    S, switched = dual_direction_batch(aug, F, mode)
    loss_term = float((S * aug).sum() / n)
    delta = ref.tape.backward(seed=(S - onehot) / n, at=ref)
    mean_hinge = float(aug.max(axis=1).sum() / n)
    return r, delta, loss_term, mean_hinge, switched, n


def conditional_gradient_primal(w, batch, model, l2: float = 0.0, mode: str = "conditional"):
    """Primal mirror of one dual conditional-gradient direction.

    Returns ``(r, delta)``: the regularizer gradient at ``w`` (biases
    excluded) and the gradient of the mean direction-weighted augmented
    scores, obtained from a single backward pass.
    """
    nonnegative("l2", l2)
    r, delta, _, _, _, _ = _direction_terms(w, batch, model, l2, mode)
    return r, delta


def proximal_fw_solve(
    w0,
    batch,
    model,
    eta: float,
    max_iters: int = 100,
    gap_tol: float = 1e-10,
    mode: str = "conditional",
    l2: float = 0.0,
):
    """Multi-pass Frank-Wolfe solve of one proximal problem.

    The model and regularizer are linearized at ``w0`` (the hinge stays
    exact); linearized scores along the way are evaluated with forward
    tangents against ``w - w0``, so no Jacobian is ever materialized.
    Stops after ``max_iters`` passes or when the Frank-Wolfe gap, an
    upper bound on dual suboptimality, drops to ``gap_tol``.

    Returns ``(w, diagnostics)`` with per-iteration dual objectives,
    step sizes and gaps. ``max_iters=0`` returns the initial iterate
    ``w0 - eta * r``. A vertex's mirror depends only on the vertex: the
    first ``_MEMO_BYTES`` of mirrors are kept until the solve returns, so
    each of those vertices costs one backward pass. In smoothed mode the
    softmax point is no minimizing vertex: gamma is mostly 0, the gap stalls.
    """
    positive("eta", eta)
    nonnegative("l2", l2)
    max_iters = int(whole_numbers("max_iters", max_iters))
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    w0 = np.asarray(w0, dtype=float)
    F0, ref, y, onehot, r, n = _anchor(w0, batch, model, l2)
    tape = ref.tape
    aug0 = augmented_scores_batch(F0, y)

    state = ProximalState(w0=w0, w=w0 - eta * r, lam=0.0, eta=eta)
    moved = state.w - w0
    diag = SolveDiagnostics()
    diag.dual_objectives.append(_dual_value(moved, state.lam, eta))
    memo = {}  # S.tobytes() -> read-only DualVertex

    for _ in range(max_iters):
        _, tangent = tape.jvp(w0, moved)
        lin_scores = F0 + tangent
        lin_aug = augmented_scores_batch(lin_scores, y)

        S, _ = dual_direction_batch(lin_aug, lin_scores, mode)
        key = S.tobytes()
        vertex = memo.get(key)
        if vertex is None:
            lam_s = float((S * aug0).sum() / n)
            delta = tape.backward(seed=(S - onehot) / n, at=ref)
            vertex = DualVertex(w=-eta * (r + delta), lam=lam_s)
            if len(memo) < _MEMO_BYTES // (len(key) + vertex.w.nbytes):
                vertex.w.flags.writeable = False
                memo[key] = vertex

        # exact Frank-Wolfe certificate: directional slack of the best
        # vertex over the current iterate, computed from primal mirrors
        at_iterate = state.lam - float(moved @ moved) / eta - float(r @ moved)
        gap = float(lin_aug.max(axis=1).sum() / n) - at_iterate
        diag.gaps.append(gap)
        if gap <= gap_tol:
            diag.converged = True
            break

        gamma = optimal_step_size(state, vertex)
        diag.step_sizes.append(gamma)
        # the iterate built above stays checked: only w and lam move
        state.w = (1.0 - gamma) * state.w + gamma * (vertex.w + w0)
        state.lam = (1.0 - gamma) * state.lam + gamma * vertex.lam
        moved = state.w - w0
        diag.dual_objectives.append(_dual_value(moved, state.lam, eta))
        diag.iterations += 1

    return state.w, diag
