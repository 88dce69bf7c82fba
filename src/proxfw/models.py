"""Score models: linear and relu-MLP multiclass classifiers.

Every model maps a flat parameter vector ``w`` and an input ``x`` to a
vector of class scores, and exposes the computation as a tape so callers
can append a scalar head (a loss, or a weighted combination of scores)
and differentiate through it.

Each architecture records its score program once, on first use, with
the input as a tape input slot; equal specs share that program and their
weight mask. Every ``scores`` or ``batch_scores`` call replays
that program on a new tape with the slot bound to the call's input, so a
call costs a list copy and a forward pass, never a rebuild, and a head
appended to one call's tape never reaches another call's.

Parameter layout is fixed and documented: layers in input-to-output
order, each layer storing its weight matrix ``(fan_in, fan_out)`` in
C order followed by its bias vector. Biases are flagged by
``weight_mask`` so regularizers can skip them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

KINDS = ("linear", "mlp")


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
    bias: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"model kind must be one of {KINDS}, got {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")
        if self.kind == "linear" and self.hidden_dims:
            raise ValueError("linear models take no hidden_dims")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ValueError("mlp models need at least one hidden layer")

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
        """Read-only boolean vector, True on weight slots, False on bias slots."""
        return self._weight_mask

    @cached_property
    def _weight_mask(self) -> np.ndarray:
        return _mask_of(self)

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

    @cached_property
    def _program(self) -> Tape:
        return _program_of(self)

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
        return _replay(self, w, x)

    def batch_scores(self, w, X):
        """Scores for a batch, shape (n, num_classes). Returns ``(values, ref)``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of shape (n, {self.input_dim}), got {X.shape}")
        return _replay(self, w, X)


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
        return _TOY_MASK

    def init_params(self, seed: int) -> np.ndarray:
        return np.zeros(1)

    def scores(self, w, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape != (1,):
            raise ValueError("ToyBinaryModel takes a single feature")
        return self._run(w, x)

    def batch_scores(self, w, X):
        return self._run(w, np.asarray(X, dtype=float).reshape(-1, 1))

    @cached_property
    def _program(self) -> Tape:
        return _program_of(self)

    def _build(self, tape: Tape, x_ref: Ref) -> Ref:
        return tape.param(0) * x_ref

    def _run(self, w, X):
        # feature column(s) X of shape (1,) or (n, 1); the second score is 0
        return _replay(self, w, np.concatenate([X, np.zeros_like(X)], axis=-1))


_TOY_MASK = np.ones(1, dtype=bool)
_TOY_MASK.flags.writeable = False


def _replay(model, w, X):
    """``(scores, ref)`` of ``model`` on ``X``; ``ref`` is the scores node of
    a new tape that replays the model's recorded program, ready for a
    scalar head."""
    tape = model._program.replay(X)
    return tape.forward(w), tape.output


@lru_cache(maxsize=32)
def _program_of(model) -> Tape:
    # one recorded program per architecture, keyed on the frozen spec
    return _record(model)


@lru_cache(maxsize=32)
def _mask_of(spec: ModelSpec) -> np.ndarray:
    mask = np.ones(spec.param_count, dtype=bool)
    offset = 0
    for fan_in, fan_out in spec.layer_dims():
        offset += fan_in * fan_out
        if spec.bias:
            mask[offset : offset + fan_out] = False
            offset += fan_out
    mask.flags.writeable = False
    return mask


def _record(model) -> Tape:
    # the score program, with the input as the tape's input slot
    tape = Tape(model.param_count)
    model._build(tape, tape.input())
    return tape


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
