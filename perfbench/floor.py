"""Hand-written numpy floor for one ``dfw_step`` on a relu MLP.

The floor does the work the paper's step promises (one forward pass,
one smoothed direction pick, one backward pass and the closed-form step
update) with no tape. Its arithmetic is the tape's, operation for
operation, so its ``delta``, ``loss_term`` and step size must agree with
what ``dfw_step`` computes; ``mismatches`` lists where they do not, and
the benchmark counts every mismatch as a failed operation. The floor skips one thing the tape does: the adjoint
of the input matrix, which no caller needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# same constant as proximal.DEGENERATE_DENOM; restated so the floor
# depends on nothing but numpy
DEGENERATE_DENOM = 1e-24

# the agreement the floor must reach with the tape, per entry, relative
# to max(1, |value|)
MATCH_TOL = 1e-12


@dataclass
class FloorStep:
    delta: np.ndarray
    loss_term: float
    gamma: float
    w: np.ndarray
    velocity: np.ndarray


def step(w, velocity, X, y, layer_dims, mask, eta, momentum, l2):
    """One smoothed-direction proximal Frank-Wolfe step in plain numpy."""
    n = X.shape[0]
    rows = np.arange(n)
    weights = []
    inputs = [X]
    h = X
    offset = 0
    for i, (fan_in, fan_out) in enumerate(layer_dims):
        W = w[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = w[offset : offset + fan_out]
        offset += fan_out
        weights.append(W)
        h = h @ W + b
        if i < len(layer_dims) - 1:
            h = np.maximum(h, 0.0)
            inputs.append(h)
    F = h

    aug = F - F[rows, y][:, None] + 1.0
    aug[rows, y] = 0.0
    vertices = np.zeros_like(aug)
    vertices[rows, np.argmax(aug, axis=1)] = 1.0
    e = np.exp(F - F.max(axis=1, keepdims=True))
    P = e / e.sum(axis=1, keepdims=True)
    keep = (P * aug).sum(axis=1) > 0.0
    S = np.where(keep[:, None], P, vertices)
    loss_term = float((S * aug).sum() / n)
    onehot = np.zeros_like(F)
    onehot[rows, y] = 1.0

    g = (S - onehot) / n
    delta = np.empty_like(w)
    for i in range(len(layer_dims) - 1, -1, -1):
        fan_in, fan_out = layer_dims[i]
        offset -= fan_out
        delta[offset : offset + fan_out] = g.sum(axis=0)
        offset -= fan_in * fan_out
        delta[offset : offset + fan_in * fan_out] = (inputs[i].T @ g).ravel()
        if i > 0:
            g = (g @ weights[i].T) * (inputs[i] > 0.0)

    r = l2 * w * mask
    sq = float(delta @ delta)
    if sq < DEGENERATE_DENOM:
        gamma = 0.0
    else:
        num = -eta * float(delta @ r) + loss_term
        gamma = float(np.clip(num / (eta * sq), 0.0, 1.0))
    new_velocity = momentum * velocity - (eta * gamma) * (r + delta)
    new_w = w - eta * (r + gamma * delta) + momentum * new_velocity
    return FloorStep(delta, loss_term, gamma, new_w, new_velocity)


def mismatches(floor: FloorStep, delta, loss_term, gamma, w, velocity) -> list:
    """Names of the quantities where the floor and the tape disagree."""
    pairs = {
        "delta": (floor.delta, delta),
        "loss_term": (floor.loss_term, loss_term),
        "gamma": (floor.gamma, gamma),
        "w": (floor.w, w),
        "velocity": (floor.velocity, velocity),
    }
    bad = []
    for name, (got, want) in pairs.items():
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(
            np.abs(got - want) <= MATCH_TOL * np.maximum(1.0, np.abs(want))
        ):
            bad.append(name)
    return bad
