"""Shared tape-building helpers for the test suite.

These build scalar objective heads on top of a model's scores tape so
reverse-mode gradients can be checked against finite differences and
against the optimizer's seeded backward passes, and a one-weight model
for closed-form checks.
"""

from dataclasses import dataclass

import numpy as np

from proxfw.autodiff import Ref, Tape

# the toy model's program: its one weight times the input slot
_TOY_PROGRAM = Tape(1)
_TOY_PROGRAM.param(0) * _TOY_PROGRAM.input()
_TOY_MASK = np.ones(1, dtype=bool)
_TOY_MASK.flags.writeable = False


@dataclass(frozen=True)
class ToyBinaryModel:
    """One-weight binary scorer: f(w, x) = (w*x, 0).

    The second class's score is constant, so the whole model has a single
    parameter, and hand calculation stays easy. It serves the model
    protocol the steps and the solver call: ``param_count``,
    ``weight_mask``, ``init_params``, ``scores`` and ``batch_scores``.
    """

    input_dim: int = 1
    num_classes: int = 2
    param_count = 1

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
        """Scores for a batch of shape (n,) or (n, 1), shape (n, 2)."""
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2) or X.shape[1:] not in ((), (1,)):
            raise ValueError(f"expected inputs of shape (n,) or (n, 1), got {X.shape}")
        return self._run(w, X.reshape(-1, 1))

    def _run(self, w, X):
        # feature column(s) X of shape (1,) or (n, 1); the second score is 0
        tape = _TOY_PROGRAM.replay(np.concatenate([X, np.zeros_like(X)], axis=-1))
        return tape.forward(w), tape.output


def margin_delta(k: int, y: int) -> np.ndarray:
    d = np.ones(k)
    d[y] = 0.0
    return d


def augmented_ref(scores_ref: Ref, y: int, k: int) -> Ref:
    tape = scores_ref.tape
    return scores_ref - scores_ref.select(y) + tape.constant(margin_delta(k, y))


def l2_head_ref(tape: Tape, mask: np.ndarray, l2: float) -> Ref:
    wv = tape.param(0, (mask.shape[0],))
    masked = wv * tape.constant(mask.astype(float))
    return (masked * wv).total() * (l2 / 2.0)


def hinge_objective_ref(model, x, y: int, l2: float = 0.0) -> Ref:
    """Scalar head: hinge(scores(w, x), y) + (l2/2) |weights|^2."""
    _, sref = model.scores(np.zeros(model.param_count), x)
    head = augmented_ref(sref, y, model.num_classes).max()
    if l2:
        head = head + l2_head_ref(sref.tape, model.weight_mask(), l2)
    return head


def ce_objective_ref(model, x, y: int, l2: float = 0.0) -> Ref:
    """Scalar head: max-shifted cross-entropy of the scores + (l2/2) |weights|^2."""
    _, sref = model.scores(np.zeros(model.param_count), x)
    m = sref.max()
    lse = m + (sref - m).exp().total().log()
    head = lse - sref.select(y)
    if l2:
        head = head + l2_head_ref(sref.tape, model.weight_mask(), l2)
    return head


def weighted_aug_ref(model, x, y: int, weights) -> Ref:
    """Scalar head: fixed-weights inner product with the augmented scores."""
    _, sref = model.scores(np.zeros(model.param_count), x)
    aug = augmented_ref(sref, y, model.num_classes)
    return (sref.tape.constant(np.asarray(weights, dtype=float)) * aug).total()


def head_value(head: Ref, w) -> float:
    return float(head.tape.forward(w))
