import re

import numpy as np
import pytest

from proxfw.autodiff import backward_grad
from proxfw.models import ModelSpec, Sample, batch_arrays

from helpers import ToyBinaryModel


def test_linear_param_count():
    spec = ModelSpec("linear", input_dim=2, num_classes=3)
    assert spec.param_count == 2 * 3 + 3


def test_mlp_param_count():
    spec = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dims=(8,))
    assert spec.param_count == 4 * 8 + 8 + 8 * 3 + 3


def test_identity_like_linear_scores():
    spec = ModelSpec("linear", input_dim=2, num_classes=2)
    w = np.zeros(spec.param_count)
    w[0] = 1.0  # W[0,0]
    w[3] = 1.0  # W[1,1]
    vals, _ = spec.scores(w, np.array([1.0, 0.0]))
    assert np.array_equal(vals, [1.0, 0.0])


def test_toy_binary_model_scores():
    model = ToyBinaryModel()
    vals, _ = model.scores(np.array([0.5]), np.array([1.0]))
    assert np.array_equal(vals, [0.5, 0.0])
    assert model.param_count == 1


def test_toy_batch_scores_take_one_feature_per_row():
    model, w = ToyBinaryModel(), np.array([2.0])
    for X in (np.array([1.0, -3.0]), np.array([[1.0], [-3.0]])):
        F, _ = model.batch_scores(w, X)
        assert np.array_equal(F, [[2.0, 0.0], [-6.0, 0.0]])
    for bad in (np.ones((3, 2)), np.ones((2, 1, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"shape \(n,\) or \(n, 1\)"):
            model.batch_scores(w, bad)


def test_param_count_matches_accepted_length():
    for spec in (
        ModelSpec("linear", input_dim=3, num_classes=4),
        ModelSpec("mlp", input_dim=3, num_classes=4, hidden_dims=(5, 6)),
    ):
        w = spec.init_params(0)
        assert w.shape == (spec.param_count,)
        vals, _ = spec.scores(w, np.zeros(3))
        assert vals.shape == (4,)
        with pytest.raises(ValueError):
            spec.scores(w[:-1], np.zeros(3))


def test_init_is_deterministic_and_bounded():
    spec = ModelSpec("mlp", input_dim=6, num_classes=5, hidden_dims=(7,))
    w1 = spec.init_params(123)
    w2 = spec.init_params(123)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, spec.init_params(124))
    mask = spec.weight_mask()
    assert np.all(w1[~mask] == 0.0)  # biases start at zero
    bound = np.sqrt(1.0 / 6)
    assert np.max(np.abs(w1[:42])) <= bound


def test_weight_mask_marks_biases():
    spec = ModelSpec("linear", input_dim=2, num_classes=3)
    mask = spec.weight_mask()
    assert mask.tolist() == [True] * 6 + [False] * 3


@pytest.mark.parametrize("model", [ModelSpec("mlp", 3, 2, (4,)), ToyBinaryModel()])
def test_weight_mask_is_computed_once_and_read_only(model):
    mask = model.weight_mask()
    assert model.weight_mask() is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = False


def test_equal_specs_share_program_and_weight_mask():
    a, b = ModelSpec("mlp", 3, 2, (4,)), ModelSpec("mlp", 3, 2, (4,))
    assert a is not b
    assert a._program is b._program
    assert a.weight_mask() is b.weight_mask()
    assert ModelSpec("mlp", 3, 2, (5,))._program is not a._program


@pytest.mark.parametrize(
    "field, message",
    [
        ({"hidden_dims": "64"}, "hidden_dims must be a sequence of widths, got '64'"),
        ({"hidden_dims": (8.9,)}, "hidden_dims must be whole numbers, got 8.9"),
        ({"input_dim": 3.5}, "input_dim must be a whole number, got 3.5"),
        ({"num_classes": 2.5}, "num_classes must be a whole number, got 2.5"),
        ({"input_dim": "3"}, "input_dim must be a whole number, got '3'"),
        ({"hidden_dims": ("4",)}, "hidden_dims must be whole numbers, got ('4',)"),
    ],
)
def test_sizes_that_are_not_whole_numbers_are_rejected_by_name(field, message):
    # a string size used to be read as the number it spells
    with pytest.raises(ValueError, match=re.escape(message)):
        ModelSpec(**{"kind": "mlp", "input_dim": 3, "num_classes": 2, "hidden_dims": (4,), **field})


def test_whole_number_sizes_of_any_type_build_the_same_spec():
    for hidden in ((64,), [64], (np.int64(64),), np.array([64]), (64.0,)):
        spec = ModelSpec("mlp", np.int64(20), np.int64(10), hidden)
        assert spec == ModelSpec("mlp", 20, 10, (64,))
        assert [type(v) for v in (spec.input_dim, spec.num_classes, *spec.hidden_dims)] == [int] * 3
        assert spec.param_count == 1994


def test_batch_scores_match_per_sample():
    spec = ModelSpec("mlp", input_dim=3, num_classes=4, hidden_dims=(6,))
    rng = np.random.default_rng(9)
    w = spec.init_params(1)
    X = rng.normal(size=(8, 3))
    F, _ = spec.batch_scores(w, X)
    for i in range(8):
        row, _ = spec.scores(w, X[i])
        assert np.allclose(F[i], row, atol=1e-14)


def test_scores_tape_supports_scalar_heads():
    spec = ModelSpec("linear", input_dim=2, num_classes=3)
    w = spec.init_params(2)
    _, ref = spec.scores(w, np.array([0.3, -0.2]))
    head = ref.select(1)
    g = backward_grad(head.tape, w)
    expect = np.zeros_like(w)
    expect[1] = 0.3   # W[0,1]
    expect[4] = -0.2  # W[1,1]
    expect[7] = 1.0   # bias[1]
    assert np.allclose(g, expect, atol=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("linear", input_dim=2, num_classes=3, hidden_dims=(4,))
    with pytest.raises(ValueError):
        ModelSpec("mlp", input_dim=2, num_classes=3)
    with pytest.raises(ValueError):
        ModelSpec("rnn", input_dim=2, num_classes=3)
    with pytest.raises(ValueError):
        ModelSpec("linear", input_dim=2, num_classes=1)


def test_batch_arrays_forms():
    X, y = batch_arrays(Sample(np.array([1.0, 2.0]), 1))
    assert X.tolist() == [[1.0, 2.0]] and y.tolist() == [1]
    X, y = batch_arrays((np.ones((3, 2)), np.array([0, 1, 0])))
    assert X.shape == (3, 2) and y.tolist() == [0, 1, 0]


def test_head_on_one_call_stays_off_the_next_calls_tape():
    spec = ModelSpec("mlp", input_dim=3, num_classes=4, hidden_dims=(5,))
    rng = np.random.default_rng(2)
    w = rng.normal(size=spec.param_count)
    _, first = spec.batch_scores(w, rng.normal(size=(6, 3)))
    program_length = len(first.tape)
    head = (first * first).total()
    assert len(head.tape) > program_length
    _, second = spec.batch_scores(w, rng.normal(size=(2, 3)))
    assert second.tape is not first.tape
    assert len(second.tape) == program_length
    assert second.index == program_length - 1


def test_interleaved_batch_score_tapes_backpropagate_independently():
    spec = ModelSpec("mlp", input_dim=3, num_classes=4, hidden_dims=(5, 6))
    rng = np.random.default_rng(4)
    calls = [
        (rng.normal(size=spec.param_count), rng.normal(size=(n, 3)), rng.normal(size=(n, 4)))
        for n in (7, 3)
    ]

    def gradient(w, X, seed):
        _, ref = spec.batch_scores(w, X)
        return ref.tape.backward(seed=seed, at=ref)

    alone = [gradient(*call) for call in calls]
    refs = [spec.batch_scores(w, X)[1] for w, X, _ in calls]
    # a head on the first tape (which clears its forward cache) leaves the
    # second alone
    head = (refs[0] * calls[0][2]).total()
    head.tape.forward(calls[0][0])
    for i in (1, 0, 1, 0):
        got = head.tape.backward() if i == 0 else refs[1].tape.backward(calls[1][2], refs[1])
        assert got.tobytes() == alone[i].tobytes()


def test_init_params_seed_must_be_a_nonnegative_whole_number():
    spec = ModelSpec("mlp", input_dim=3, num_classes=2, hidden_dims=(4,))
    for seed in (1.5, -1, "2"):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a nonnegative whole number, got {seed!r}")):
            spec.init_params(seed)
    assert spec.init_params(2.0).tobytes() == spec.init_params(np.int64(2)).tobytes() == spec.init_params(2).tobytes()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, w: m.scores(w, np.zeros(4)), "input of shape (3,), got (4,)"),
        (lambda m, w: m.scores(w, np.zeros((1, 3))), "input of shape (3,), got (1, 3)"),
        (lambda m, w: m.batch_scores(w, np.zeros(3)), "inputs of shape (n, 3), got (3,)"),
        (lambda m, w: m.batch_scores(w, np.zeros((2, 4))), "inputs of shape (n, 3), got (2, 4)"),
        (lambda m, w: batch_arrays((np.zeros((0, 3)), [])), "empty batch"),
        (lambda m, w: batch_arrays((np.zeros((3, 3)), [0, 1])), "feature and label counts differ"),
        # a list batch and a 1-D pair were batch forms once
        (lambda m, w: batch_arrays([]), "a batch is one Sample or an (X, y) pair, got list"),
        (lambda m, w: batch_arrays([Sample(np.zeros(3), 0)]), "one Sample or an (X, y) pair, got list"),
        (lambda m, w: batch_arrays((Sample(np.zeros(3), 0),) * 2), "one Sample or an (X, y) pair, got tuple"),
        (lambda m, w: batch_arrays((np.zeros(3), 1)), "a batch's X must be 2-D, got shape (3,)"),
    ],
)
def test_inputs_of_the_wrong_shape_are_rejected(call, message):
    model = ModelSpec("mlp", input_dim=3, num_classes=2, hidden_dims=(4,))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(model, model.init_params(0))
