"""Losses, margin-augmented scores, and dual search directions.

The hinge loss used throughout is the multiclass margin-rescaled form
with a 0/1 task error: hinge(s, y) = max_j (s_j - s_y + task_loss(j, y)),
whose maximand is exactly the augmented score vector, zero at the true
label. Search directions live on the label simplex: either the hinge
argmax vertex (conditional gradient) or the softmax point, with a switch
that falls back to the vertex whenever the softmax point is not an
ascent direction for the dual.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MODES",
    "task_loss",
    "augmented_scores",
    "hinge_loss",
    "cross_entropy",
    "softmax_direction",
    "conditional_gradient_direction",
    "dual_direction",
    "default_direction_mode",
    "augmented_scores_batch",
    "hinge_loss_batch",
    "cross_entropy_batch",
    "softmax_batch",
    "conditional_vertex_batch",
    "dual_direction_batch",
    "one_hot",
]

MODES = ("smoothed", "conditional")


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError(f"direction mode must be one of {MODES}, got {mode!r}")


def task_loss(ybar: int, y: int) -> float:
    """0/1 task error."""
    return 0.0 if ybar == y else 1.0


def _row(s) -> np.ndarray:
    # one sample as a batch of one, so the scalar forms reuse the batch formulas
    return np.asarray(s, dtype=float)[None, :]


def _labeled_row(s, y: int) -> np.ndarray:
    s = _row(s)
    if s.shape[1] < 2:
        raise ValueError("need at least two classes")
    one_hot([y], s.shape[1])  # rejects a label outside [0, k)
    return s


def augmented_scores(s, y: int) -> np.ndarray:
    """Margin-augmented scores: s_j - s_y + task_loss(j, y); zero at ``y``."""
    return augmented_scores_batch(_labeled_row(s, y), [y])[0]


def hinge_loss(s, y: int) -> float:
    """Multiclass margin-rescaled hinge; nonnegative by construction."""
    return float(hinge_loss_batch(_labeled_row(s, y), [y])[0])


def cross_entropy(s, y: int) -> float:
    """Softmax cross-entropy with max-shift for overflow safety."""
    return float(cross_entropy_batch(_labeled_row(s, y), [y])[0])


def softmax_direction(s) -> np.ndarray:
    """Softmax of the raw scores; a point in the simplex interior."""
    return softmax_batch(_row(s))[0]


def conditional_gradient_direction(aug) -> np.ndarray:
    """One-hot vertex at the augmented-score argmax (lowest index on ties)."""
    return conditional_vertex_batch(_row(aug))[0]


def dual_direction(aug, scores, mode: str) -> np.ndarray:
    """Search direction on the label simplex for one sample.

    In "conditional" mode this is always the augmented-score argmax
    vertex. In "smoothed" mode the softmax of the raw scores is used
    when it has positive inner product with the augmented scores (an
    approximate ascent check), otherwise the vertex.
    """
    S, _ = dual_direction_batch(_row(aug), _row(scores), mode)
    return S[0]


def default_direction_mode(num_classes: int) -> str:
    """"conditional" for up to 3 classes, "smoothed" beyond."""
    return "conditional" if num_classes <= 3 else "smoothed"


# ----------------------------------------------------------------------
# batch forms (row-per-sample); same conventions as the scalar versions


def one_hot(y, k: int) -> np.ndarray:
    """Rows of the k x k identity picked by ``y``; every label must lie in [0, k)."""
    y = np.asarray(y, dtype=int)
    bad = y[(y < 0) | (y >= k)]
    if bad.size:
        raise ValueError(f"label {bad[0]} outside [0, {k})")
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def augmented_scores_batch(F, y) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    y = np.asarray(y, dtype=int)
    rows = np.arange(F.shape[0])
    out = F - F[rows, y][:, None] + 1.0
    out[rows, y] = 0.0
    return out


def hinge_loss_batch(F, y) -> np.ndarray:
    return augmented_scores_batch(F, y).max(axis=1)


def cross_entropy_batch(F, y) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    y = np.asarray(y, dtype=int)
    m = F.max(axis=1)
    lse = m + np.log(np.exp(F - m[:, None]).sum(axis=1))
    return lse - F[np.arange(F.shape[0]), y]


def softmax_batch(F) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    e = np.exp(F - F.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def conditional_vertex_batch(augF) -> np.ndarray:
    augF = np.asarray(augF, dtype=float)
    out = np.zeros_like(augF)
    out[np.arange(augF.shape[0]), np.argmax(augF, axis=1)] = 1.0
    return out


def dual_direction_batch(augF, F, mode: str):
    """Vectorized :func:`dual_direction`. Returns ``(S, switched)``.

    ``switched`` counts samples where smoothed mode fell back to the
    conditional-gradient vertex; it is 0 in conditional mode.
    """
    _check_mode(mode)
    vertices = conditional_vertex_batch(augF)
    if mode == "conditional":
        return vertices, 0
    P = softmax_batch(F)
    keep = (P * augF).sum(axis=1) > 0.0
    S = np.where(keep[:, None], P, vertices)
    return S, keep.size - int(np.count_nonzero(keep))
