import numpy as np
import pytest

from proxfw.autodiff import backward_grad
from proxfw.models import ModelSpec, Sample, ToyBinaryModel, batch_arrays


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
    no_bias = ModelSpec("linear", input_dim=2, num_classes=3, bias=False)
    assert no_bias.weight_mask().all()


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


def test_bias_free_linear_scores_are_homogeneous():
    spec = ModelSpec("linear", input_dim=4, num_classes=3, bias=False)
    rng = np.random.default_rng(5)
    w = rng.normal(size=spec.param_count)
    x = rng.normal(size=4)
    s1, _ = spec.scores(w, x)
    s2, _ = spec.scores(w, 3.0 * x)
    assert np.allclose(s2, 3.0 * s1, atol=1e-12)


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
    s = Sample(np.array([1.0, 2.0]), 1)
    X, y = batch_arrays(s)
    assert X.shape == (1, 2) and y.tolist() == [1]
    X, y = batch_arrays([s, Sample(np.array([3.0, 4.0]), 0)])
    assert X.shape == (2, 2) and y.tolist() == [1, 0]
    X, y = batch_arrays((np.ones((3, 2)), np.array([0, 1, 0])))
    assert X.shape == (3, 2)
    with pytest.raises(ValueError, match="empty"):
        batch_arrays([])


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
