"""Score models: linear and relu-MLP multiclass classifiers.

A :class:`ModelSpec` maps a flat parameter vector ``w`` and an input ``x``
to a vector of class scores, and exposes the computation as a tape so
callers can append a scalar head (a loss, or a weighted combination of
scores) and differentiate through it.

Each architecture records its score program, with the input as a tape
input slot, and builds its weight mask in one cached call on first use;
equal specs share both. Every ``scores`` or ``batch_scores`` call replays
that program on a new tape with the slot bound to the call's input, so a
call costs a list copy and a forward pass, never a rebuild, and a head
appended to one call's tape never reaches another call's.

Parameter layout is fixed and documented: layers in input-to-output
order, each layer storing its weight matrix ``(fan_in, fan_out)`` in
C order followed by its bias vector. Biases are flagged by
``weight_mask`` so regularizers can skip them. Each spec works the layout
out once, as a slot table that ``param_count``, ``init_params``, the score
program and the mask all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._checks import checked_seed, one_of, whole_numbers
from .autodiff import Tape

__all__ = [
    "Sample",
    "ModelSpec",
    "init_params",
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

    def __post_init__(self):
        one_of("model kind", self.kind, KINDS)
        if isinstance(self.hidden_dims, str):
            raise ValueError(f"hidden_dims must be a sequence of widths, got {self.hidden_dims!r}")
        for name in ("input_dim", "num_classes"):
            object.__setattr__(self, name, int(whole_numbers(name, getattr(self, name))))
        widths = whole_numbers("hidden_dims", tuple(self.hidden_dims))
        object.__setattr__(self, "hidden_dims", tuple(widths.tolist()))
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden layer widths must be positive")
        if self.kind == "linear" and self.hidden_dims:
            raise ValueError("linear models take no hidden_dims")
        if self.kind == "mlp" and not self.hidden_dims:
            raise ValueError("mlp models need at least one hidden layer")

    def layer_dims(self):
        dims = (self.input_dim, *self.hidden_dims, self.num_classes)
        return list(zip(dims[:-1], dims[1:]))

    @cached_property
    def _slots(self) -> tuple:
        """Where each layer lives in ``w``: ``(layers, length)``, one
        ``(weight_start, fan_in, fan_out, bias_start)`` per layer and the
        vector's total length."""
        layers, start = [], 0
        for fan_in, fan_out in self.layer_dims():
            end = start + fan_in * fan_out
            layers.append((start, fan_in, fan_out, end))
            start = end + fan_out
        return tuple(layers), start

    @property
    def param_count(self) -> int:
        return self._slots[1]

    def weight_mask(self) -> np.ndarray:
        """Read-only boolean vector, True on weight slots, False on bias slots."""
        return self._weight_mask

    @cached_property
    def _weight_mask(self) -> np.ndarray:
        return _program_and_mask(self)[1]

    def init_params(self, seed: int) -> np.ndarray:
        """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) weights, zero biases."""
        rng = np.random.default_rng(checked_seed("seed", seed))
        parts = []
        for _, fan_in, fan_out, _ in self._slots[0]:
            bound = np.sqrt(1.0 / fan_in)
            parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
            parts.append(np.zeros(fan_out))
        return np.concatenate(parts)

    @cached_property
    def _program(self) -> Tape:
        return _program_and_mask(self)[0]

    def _replay(self, w, X):
        """``(scores, ref)`` on ``X``; ``ref`` is the scores node of a new
        tape that replays the recorded program, ready for a scalar head."""
        tape = self._program.replay(X)
        return tape.forward(w), tape.output

    def scores(self, w, x):
        """Class scores for one input. Returns ``(values, ref)``.

        ``values`` has length num_classes; ``ref`` is the scores node on
        a fresh tape (``ref.tape``), ready for a scalar head.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"expected input of shape ({self.input_dim},), got {x.shape}")
        return self._replay(w, x)

    def batch_scores(self, w, X):
        """Scores for a batch, shape (n, num_classes). Returns ``(values, ref)``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of shape (n, {self.input_dim}), got {X.shape}")
        return self._replay(w, X)


@lru_cache(maxsize=32)
def _program_and_mask(spec: ModelSpec) -> tuple:
    """The score program of ``spec``'s architecture, with the input as the
    tape's input slot, and its read-only weight mask; keyed on the frozen
    spec, so equal specs share both."""
    layers, length = spec._slots
    tape = Tape(length)
    out = tape.input()
    mask = np.ones(length, dtype=bool)
    for li, (weight_start, fan_in, fan_out, bias_start) in enumerate(layers):
        out = out @ tape.param(weight_start, (fan_in, fan_out))
        out = out + tape.param(bias_start, (fan_out,))
        mask[bias_start : bias_start + fan_out] = False
        if li < len(layers) - 1:
            out = out.relu()
    mask.flags.writeable = False
    return tape, mask


def batch_arrays(batch):
    """Normalize a batch to ``(X, y)`` arrays.

    A batch is one :class:`Sample` or an ``(X, y)`` pair with a 2-D ``X``
    of one row per label. Rejects anything else, and empty batches.
    """
    if isinstance(batch, Sample):
        X = np.asarray(batch.features, dtype=float).reshape(1, -1)
        y = whole_numbers("class labels", [batch.label])
    elif isinstance(batch, tuple) and len(batch) == 2 and not isinstance(batch[0], Sample):
        X = np.asarray(batch[0], dtype=float)
        if X.ndim != 2:
            raise ValueError(f"a batch's X must be 2-D, got shape {X.shape}")
        y = whole_numbers("class labels", batch[1])
    else:
        raise ValueError(f"a batch is one Sample or an (X, y) pair, got {type(batch).__name__}")
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    if y.shape != (X.shape[0],):
        raise ValueError("feature and label counts differ")
    return X, y


def init_params(model, seed: int) -> np.ndarray:
    return model.init_params(seed)
