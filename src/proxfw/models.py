"""Score models: linear and relu-MLP multiclass classifiers.

Every model maps a flat parameter vector ``w`` and an input ``x`` to a
vector of class scores, and exposes the computation as a tape so callers
can append a scalar head (a loss, or a weighted combination of scores)
and differentiate through it.

Parameter layout is fixed and documented: layers in input-to-output
order, each layer storing its weight matrix ``(fan_in, fan_out)`` in
C order followed by its bias vector. Biases are flagged by
``weight_mask`` so regularizers can skip them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Ref, Tape

__all__ = [
    "Sample",
    "ModelSpec",
    "ToyBinaryModel",
    "init_params",
    "scores",
    "batch_scores",
    "batch_arrays",
]


@dataclass(frozen=True)
class Sample:
    """One labeled example: a feature vector and an integer class label."""

    features: np.ndarray
    label: int


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a linear or MLP classifier.

    kind: "linear" (no hidden layers) or "mlp" (>= 1 hidden layer, relu).
    hidden_dims are ignored-must-be-empty for linear models.
    """

    kind: str
    input_dim: int
    num_classes: int
    hidden_dims: tuple = ()
    activation: str = "relu"
    bias: bool = True

    def __post_init__(self):
        if self.kind not in ("linear", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")
        if self.kind == "linear" and self.hidden_dims:
            raise ValueError("linear models take no hidden_dims")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ValueError("mlp models need at least one hidden layer")
        if self.activation != "relu":
            raise ValueError("only relu activation is supported")

    def layer_dims(self):
        dims = (self.input_dim, *self.hidden_dims, self.num_classes)
        return list(zip(dims[:-1], dims[1:]))

    @property
    def param_count(self) -> int:
        n = 0
        for fan_in, fan_out in self.layer_dims():
            n += fan_in * fan_out
            if self.bias:
                n += fan_out
        return n

    def weight_mask(self) -> np.ndarray:
        """Boolean vector, True on weight slots, False on bias slots."""
        mask = np.ones(self.param_count, dtype=bool)
        offset = 0
        for fan_in, fan_out in self.layer_dims():
            offset += fan_in * fan_out
            if self.bias:
                mask[offset : offset + fan_out] = False
                offset += fan_out
        return mask

    def init_params(self, seed: int) -> np.ndarray:
        """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) weights, zero biases."""
        rng = np.random.default_rng(seed)
        parts = []
        for fan_in, fan_out in self.layer_dims():
            bound = np.sqrt(1.0 / fan_in)
            parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
            if self.bias:
                parts.append(np.zeros(fan_out))
        return np.concatenate(parts)

    def _build(self, tape: Tape, x_ref: Ref) -> Ref:
        out = x_ref
        layers = self.layer_dims()
        offset = 0
        for li, (fan_in, fan_out) in enumerate(layers):
            w_ref = tape.param(offset, (fan_in, fan_out))
            offset += fan_in * fan_out
            out = out @ w_ref
            if self.bias:
                b_ref = tape.param(offset, (fan_out,))
                offset += fan_out
                out = out + b_ref
            if li < len(layers) - 1:
                out = out.relu()
        return out

    def scores(self, w, x):
        """Class scores for one input. Returns ``(values, ref)``.

        ``values`` has length num_classes; ``ref`` is the scores node on
        a fresh tape (``ref.tape``), ready for a scalar head.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected input of shape ({self.input_dim},), got {x.shape}")
        tape = Tape(self.param_count)
        ref = self._build(tape, tape.constant(x))
        return tape.forward(w), ref

    def batch_scores(self, w, X):
        """Scores for a batch, shape (n, num_classes). Returns ``(values, ref)``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of shape (n, {self.input_dim}), got {X.shape}")
        tape = Tape(self.param_count)
        ref = self._build(tape, tape.constant(X))
        return tape.forward(w), ref


@dataclass(frozen=True)
class ToyBinaryModel:
    """One-weight binary scorer: f(w, x) = (w*x, 0).

    The second class's score is constant, so the whole model has a single
    parameter. Used by worked examples and closed-form tests where hand
    calculation must stay easy.
    """

    input_dim: int = 1
    num_classes: int = 2

    @property
    def param_count(self) -> int:
        return 1

    def weight_mask(self) -> np.ndarray:
        return np.ones(1, dtype=bool)

    def init_params(self, seed: int) -> np.ndarray:
        return np.zeros(1)

    def scores(self, w, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (1,):
            raise ValueError("ToyBinaryModel takes a single feature")
        tape = Tape(1)
        w_ref = tape.param(0)
        ref = w_ref * tape.constant([float(x[0]), 0.0])
        return tape.forward(w), ref

    def batch_scores(self, w, X):
        X = np.asarray(X, dtype=float).reshape(-1, 1)
        cols = np.column_stack([X[:, 0], np.zeros(X.shape[0])])
        tape = Tape(1)
        ref = tape.param(0) * tape.constant(cols)
        return tape.forward(w), ref


def batch_arrays(batch):
    """Normalize a batch to ``(X, y)`` arrays.

    Accepts a single :class:`Sample`, a sequence of Samples, or an
    ``(X, y)`` pair. Rejects empty batches.
    """
    if isinstance(batch, Sample):
        batch = [batch]
    if isinstance(batch, tuple) and len(batch) == 2 and not isinstance(batch[0], Sample):
        X = np.asarray(batch[0], dtype=float)
        y = np.asarray(batch[1], dtype=int)
        if X.ndim == 1:
            X = X[None, :]
            y = y.reshape(1)
    else:
        items = list(batch)
        if not items:
            raise ValueError("empty batch")
        X = np.stack([np.asarray(s.features, dtype=float).reshape(-1) for s in items])
        y = np.array([int(s.label) for s in items])
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if X.shape[0] != y.shape[0]:
        raise ValueError("feature and label counts differ")
    return X, y


def init_params(model, seed: int) -> np.ndarray:
    return model.init_params(seed)


def scores(model, w, x):
    return model.scores(w, x)


def batch_scores(model, w, X):
    return model.batch_scores(w, X)
