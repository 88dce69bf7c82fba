import numpy as np
import pytest

from proxfw.autodiff import Tape, backward_grad, fd_gradient_oracle, forward_eval
from proxfw.models import ModelSpec

from helpers import head_value, hinge_objective_ref


def test_product_tape_value_and_gradient():
    tape = Tape(2)
    _ = tape.param(0) * tape.param(1)
    w = np.array([3.0, 4.0])
    assert forward_eval(tape, w) == 12.0
    assert np.array_equal(backward_grad(tape, w), [4.0, 3.0])


def test_relu_subgradient_is_zero_left_of_kink_and_at_kink():
    tape = Tape(1)
    _ = tape.param(0).relu()
    assert np.array_equal(backward_grad(tape, np.array([-2.0])), [0.0])
    assert np.array_equal(backward_grad(tape, np.array([0.0])), [0.0])
    assert np.array_equal(backward_grad(tape, np.array([3.0])), [1.0])


def test_log_sum_exp_gradient():
    tape = Tape(2)
    _ = (tape.param(0).exp() + tape.param(1).exp()).log()
    g = backward_grad(tape, np.zeros(2))
    assert np.allclose(g, [0.5, 0.5], atol=1e-12)


def test_max_routes_gradient_to_lowest_index_on_ties():
    tape = Tape(2)
    _ = tape.param(0, (2,)).max()
    assert np.array_equal(backward_grad(tape, np.array([1.0, 2.0])), [0.0, 1.0])
    assert np.array_equal(backward_grad(tape, np.array([1.0, 1.0])), [1.0, 0.0])


def test_select_and_matmul_vector_paths():
    # f(w) = (x @ W)[1] with W a 2x2 view
    tape = Tape(4)
    x = tape.constant(np.array([1.0, 2.0]))
    _ = (x @ tape.param(0, (2, 2))).select(1)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    assert forward_eval(tape, w) == 2.0 + 8.0
    assert np.array_equal(backward_grad(tape, w), [0.0, 1.0, 0.0, 2.0])


def test_fd_oracle_on_product():
    tape = Tape(2)
    _ = tape.param(0) * tape.param(1)
    w = np.array([3.0, 4.0])
    g = fd_gradient_oracle(lambda v: forward_eval(tape, v), w)
    assert np.allclose(g, [4.0, 3.0], rtol=1e-6, atol=1e-9)


def test_fd_oracle_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        fd_gradient_oracle(lambda v: 0.0, np.zeros(2), epsilon=0.0)


def test_backward_requires_scalar_output():
    tape = Tape(2)
    _ = tape.param(0, (2,)) * 2.0
    with pytest.raises(ValueError, match="scalar"):
        backward_grad(tape, np.zeros(2))


def test_dimension_mismatch_rejected():
    tape = Tape(3)
    _ = tape.param(0, (3,)).total()
    with pytest.raises(ValueError, match="length 3"):
        forward_eval(tape, np.zeros(4))
    with pytest.raises(ValueError, match="outside"):
        tape.param(2, (2,))


def test_nodes_from_different_tapes_cannot_mix():
    t1, t2 = Tape(1), Tape(1)
    a, b = t1.param(0), t2.param(0)
    with pytest.raises(ValueError, match="different tapes"):
        _ = a + b


def test_backward_is_deterministic_bitwise():
    rng = np.random.default_rng(3)
    model = ModelSpec("mlp", input_dim=5, num_classes=4, hidden_dims=(6,))
    head = hinge_objective_ref(model, rng.normal(size=5), 1, l2=1e-2)
    w = rng.normal(size=model.param_count)
    head.tape.forward(w)
    g1 = head.tape.backward()
    g2 = head.tape.backward()
    assert np.array_equal(g1, g2)


def test_reverse_sweep_visits_every_node_once():
    model = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dims=(5,))
    head = hinge_objective_ref(model, np.ones(4), 0)
    w = np.random.default_rng(0).normal(size=model.param_count)
    head.tape.forward(w)
    head.tape.backward()
    assert head.tape.last_backward_visits == len(head.tape)


def test_backward_matches_fd_on_random_mlp_hinge_objectives():
    rng = np.random.default_rng(42)
    for _ in range(5):
        d = int(rng.integers(3, 8))
        h = int(rng.integers(4, 10))
        k = int(rng.integers(3, 6))
        model = ModelSpec("mlp", input_dim=d, num_classes=k, hidden_dims=(h,))
        x = rng.normal(size=d)
        y = int(rng.integers(0, k))
        head = hinge_objective_ref(model, x, y, l2=1e-3)
        w = rng.normal(size=model.param_count)
        head.tape.forward(w)
        g = head.tape.backward()
        g_fd = fd_gradient_oracle(lambda v: head_value(head, v), w)
        rel = np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g_fd)))
        assert rel < 1e-6


def test_jvp_matches_gradient_on_smooth_tape():
    rng = np.random.default_rng(7)
    tape = Tape(3)
    v = tape.param(0, (3,))
    _ = ((v * v).total() + v.select(0).exp()).log()
    w = rng.normal(size=3) + 2.0
    dw = rng.normal(size=3)
    val, tan = tape.jvp(w, dw)
    tape.forward(w)
    g = tape.backward()
    assert np.isclose(float(tan), float(g @ dw), rtol=1e-12)
    assert np.isclose(float(val), float(forward_eval(tape, w)))


def every_op_tape(X, x_as_param=False):
    # one node of every primitive; relu zeros in X @ W give max ties.
    # With x_as_param, X is read from parameter slots 12 onward instead of
    # a constant, so every sweep runs in full through X @ W.
    tape = Tape(12 + X.size if x_as_param else 12)
    W = tape.param(0, (3, 2))
    v = tape.param(8, (4,))
    Xref = tape.param(12, X.shape) if x_as_param else tape.constant(X)
    H = (Xref @ W + tape.param(6, (2,))).relu()
    S = H - (-H).exp() * 0.5
    rows = S.max() + S.select(np.arange(X.shape[0]) % 2) + (S * S).rowsum()
    V = v.reshape((2, 2))
    _ = rows.total() + (V @ V).total().exp().log() - v.select(3)
    return tape


def test_jvp_reuses_the_forward_cache_bitwise():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 3))
    w = rng.normal(size=12)
    dw = rng.normal(size=12)
    val, tan = every_op_tape(X).jvp(w, dw)
    cached = every_op_tape(X)
    assert cached.forward(w).tobytes() == val.tobytes()
    stale = every_op_tape(X)
    stale.forward(w + 1.0)
    for tape in (cached, stale):
        v, t = tape.jvp(w, dw)
        assert v.tobytes() == val.tobytes() and t.tobytes() == tan.tobytes()
    # the stale cache was refreshed to w, so backward sees the same point
    assert stale.backward().tobytes() == cached.backward().tobytes()


def test_sweeps_that_skip_constants_match_full_sweeps_bitwise():
    # a constant depends on no parameter, so backward computes no adjoint
    # for it and jvp carries no tangent through it; the results must be
    # those of the sweep that treats X as parameters with a zero tangent
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 3))
    w = rng.normal(size=12)
    dw = rng.normal(size=12)
    pruned = every_op_tape(X)
    full = every_op_tape(X, x_as_param=True)
    w_full = np.concatenate([w, X.ravel()])
    dw_full = np.concatenate([dw, np.zeros(X.size)])
    for tape, point in ((pruned, w), (full, w_full)):
        tape.forward(point)
    g = pruned.backward()
    assert g.tobytes() == full.backward()[:12].tobytes()
    assert pruned.last_backward_visits == len(pruned)
    val, tan = pruned.jvp(w, dw)
    val_full, tan_full = full.jvp(w_full, dw_full)
    assert val.tobytes() == val_full.tobytes() and tan.tobytes() == tan_full.tobytes()


def test_relu_masks_follow_the_forward_cache():
    # backward and jvp reuse each relu's mask until the next forward; after
    # a move that flips relu signs they must match a fresh tape bit for bit,
    # whether forward(w2) or a stale-cache jvp(w2, .) moved the cache
    model = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dims=(6,))
    rng = np.random.default_rng(12)
    X = rng.normal(size=(8, 4))
    w1 = rng.normal(size=model.param_count)
    w2 = -w1  # negates every first-layer pre-activation
    seed = rng.normal(size=(8, 3))
    dw = rng.normal(size=model.param_count)
    pre1 = X @ w1[:24].reshape(4, 6) + w1[24:30]
    assert ((pre1 > 0) != (-pre1 > 0)).any()

    _, fresh = model.batch_scores(w2, X)
    want_grad = fresh.tape.backward(seed=seed, at=fresh)
    want_val, want_tan = fresh.tape.jvp(w2, dw)

    def tape_with_masks_at_w1():
        _, ref = model.batch_scores(w1, X)
        ref.tape.backward(seed=seed, at=ref)
        ref.tape.jvp(w1, dw)
        return ref

    ref = tape_with_masks_at_w1()
    ref.tape.forward(w2)
    assert ref.tape.backward(seed=seed, at=ref).tobytes() == want_grad.tobytes()
    val, tan = ref.tape.jvp(w2, dw)
    assert val.tobytes() == want_val.tobytes() and tan.tobytes() == want_tan.tobytes()

    ref = tape_with_masks_at_w1()
    val, tan = ref.tape.jvp(w2, dw)
    assert val.tobytes() == want_val.tobytes() and tan.tobytes() == want_tan.tobytes()
    assert ref.tape.backward(seed=seed, at=ref).tobytes() == want_grad.tobytes()


def test_replay_binds_the_input_slot_on_a_new_tape():
    program = Tape(2)
    _ = program.input() @ program.param(0, (2,))
    with pytest.raises(ValueError, match="unbound"):
        program.forward(np.ones(2))
    w = np.array([1.0, 2.0])
    first = program.replay(np.array([[1.0, 0.0], [0.0, 1.0]]))
    second = program.replay(np.array([3.0, 4.0]))
    assert np.array_equal(first.forward(w), [1.0, 2.0])
    assert second.forward(w) == 11.0
    assert np.array_equal(first.backward(seed=np.ones(2)), [1.0, 1.0])
    assert len(program) == len(first) == len(second) == 3


def test_jvp_linearizes_batch_scores():
    # tangent along (w1 - w0) reproduces f(w1) exactly for a linear map
    model = ModelSpec("linear", input_dim=3, num_classes=4)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 3))
    w0 = model.init_params(0)
    w1 = w0 + rng.normal(size=w0.size)
    F0, ref = model.batch_scores(w0, X)
    _, tan = ref.tape.jvp(w0, w1 - w0)
    F1, _ = model.batch_scores(w1, X)
    assert np.allclose(F0 + tan, F1, atol=1e-12)


def test_batched_heads_match_per_sample_sum():
    # one batched backward equals the sum of per-sample backwards
    model = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dims=(5,))
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 4))
    w = rng.normal(size=model.param_count)
    F, ref = model.batch_scores(w, X)
    seed = rng.normal(size=F.shape)
    g_batch = ref.tape.backward(seed=seed, at=ref)
    g_sum = np.zeros_like(w)
    for i in range(X.shape[0]):
        _, sref = model.scores(w, X[i])
        g_sum += sref.tape.backward(seed=seed[i], at=sref)
    assert np.allclose(g_batch, g_sum, atol=1e-12)
