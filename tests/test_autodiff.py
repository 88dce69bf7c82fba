import re
import tracemalloc

import numpy as np
import pytest

from proxfw.autodiff import _RULES, Ref, Tape, backward_grad, fd_gradient_oracle
from proxfw.models import ModelSpec

from helpers import head_value, hinge_objective_ref


def test_product_tape_value_and_gradient():
    tape = Tape(2)
    _ = tape.param(0) * tape.param(1)
    w = np.array([3.0, 4.0])
    assert tape.forward(w) == 12.0
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
    assert tape.forward(w) == 2.0 + 8.0
    assert np.array_equal(backward_grad(tape, w), [0.0, 1.0, 0.0, 2.0])


def test_fd_oracle_on_product():
    tape = Tape(2)
    _ = tape.param(0) * tape.param(1)
    w = np.array([3.0, 4.0])
    g = fd_gradient_oracle(tape.forward, w)
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
        tape.forward(np.zeros(4))
    with pytest.raises(ValueError, match="outside"):
        tape.param(2, (2,))


def test_nodes_from_different_tapes_cannot_mix():
    t1, t2 = Tape(1), Tape(1)
    a, b = t1.param(0), t2.param(0)
    with pytest.raises(ValueError, match="different tapes"):
        _ = a + b


def test_backward_at_a_node_of_another_tape_is_rejected():
    # y's index names t1's 2 * w0 node, whose gradient t1 would return
    t1, t2 = Tape(2), Tape(2)
    _ = t1.param(0) * 2.0 + t1.param(1) * 5.0
    y = t2.param(1) * 3.0
    t1.forward(np.ones(2))
    with pytest.raises(ValueError, match="different tapes"):
        t1.backward(seed=1.0, at=y)


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
    assert np.isclose(float(val), float(tape.forward(w)))


UNARY = [((),), ((3,),), ((2, 3),)]
BINARY = [((), ()), ((3,), ()), ((3,), (3,)), ((2, 3), (3,)), ((2, 3), (1, 3)), ((2, 3), (2, 3))]
# (op, build, operand shapes): every operation a Ref can push, at every
# operand rank it accepts
PRIMITIVE_CASES = [
    *[("add", lambda a, b: a + b, shapes) for shapes in BINARY],
    *[("sub", lambda a, b: a - b, shapes) for shapes in BINARY],
    *[("mul", lambda a, b: a * b, shapes) for shapes in BINARY],
    *[
        ("matmul", lambda a, b: a @ b, shapes)
        for shapes in [((3,), (3,)), ((2, 3), (3,)), ((3,), (3, 2)), ((2, 3), (3, 2))]
    ],
    *[(op, getattr(Ref, op), shapes) for op in ("relu", "exp", "log", "total") for shapes in UNARY],
    *[("max", Ref.max, shapes) for shapes in UNARY[1:]],
    ("select", lambda a: a.select(2), ((3,),)),
    ("select", lambda a: a.select([2, 0]), ((2, 3),)),
]


@pytest.mark.parametrize("op", sorted({case[0] for case in PRIMITIVE_CASES}))
def test_every_primitive_at_every_rank_matches_finite_differences(op):
    # backward and jvp against the central-difference oracle; each operand
    # of a binary op is in turn a constant, so the sweeps that skip an
    # operand run too
    rng = np.random.default_rng(len(op))
    for _, build, shapes in (case for case in PRIMITIVE_CASES if case[0] == op):
        sizes = [int(np.prod(shape)) for shape in shapes]
        for constant in (None, 0, 1) if len(shapes) == 2 else (None,):
            tape = Tape(sum(sizes))
            operands = [
                tape.constant(rng.normal(size=shape))
                if k == constant
                else tape.param(sum(sizes[:k]), shape)
                for k, shape in enumerate(shapes)
            ]
            out = build(*operands)
            assert tape.nodes[out.index].op == op
            w = rng.normal(size=tape.num_params)
            w = np.abs(w) + 0.5 if op == "log" else w
            dw = rng.normal(size=w.size)
            value = tape.forward(w)
            seed = rng.normal(size=value.shape)
            g = tape.backward(seed=seed, at=out)
            _, tangent = tape.jvp(w, dw)
            oracle = fd_gradient_oracle(lambda v: np.sum(seed * tape.forward(v)), w)
            case = (shapes, constant)
            assert tangent.shape == value.shape, case
            assert np.allclose(g, oracle, rtol=1e-6, atol=1e-8), case
            assert np.isclose(np.sum(seed * tangent), oracle @ dw, rtol=1e-6, atol=1e-8), case


@pytest.mark.parametrize(
    "op,shapes,constant",
    [
        ("matmul", [(2, 3, 2), (2, 3)], None),
        ("matmul", [(2, 3, 2), (2, 3)], 1),
        ("matmul", [(2, 3), (2, 3, 2)], None),
        ("matmul", [(2, 3), (2, 3, 2)], 0),
        ("max", [(3, 3, 2)], None),
        ("max", [()], None),
    ],
    ids=["matmul-a", "matmul-a-const-b", "matmul-b", "matmul-b-const-a", "max", "max-0d"],
)
def test_rank_3_operands_of_matmul_and_max_are_rejected_in_forward(op, shapes, constant):
    # their adjoints assume rank <= 2: a rank-3 operand gave a wrong gradient
    # (matmul with a constant right operand) or crashed backward (max); max
    # also needs a last axis to reduce
    sizes = [int(np.prod(shape)) for shape in shapes]
    tape = Tape(sum(sizes))
    operands = [
        tape.constant(np.ones(shape)) if k == constant else tape.param(sum(sizes[:k]), shape)
        for k, shape in enumerate(shapes)
    ]
    _ = operands[0] @ operands[1] if op == "matmul" else operands[0].max()
    shown = " and ".join(str(shape) for shape in shapes)
    ranks = "<= 2" if op == "matmul" else "1 or 2"
    with pytest.raises(ValueError, match=re.escape(f"{op} takes operands of rank {ranks}, got shapes {shown}")):
        tape.forward(np.ones(tape.num_params))


def test_every_op_a_ref_can_push_has_exactly_one_rule():
    methods = {name for name, f in vars(Ref).items() if callable(f) and not name.startswith("_")}
    pushed = {case[0] for case in PRIMITIVE_CASES}
    assert methods <= pushed == set(_RULES)


def every_op_tape(X, x_as_param=False):
    # one node of every primitive; relu zeros in X @ W give max ties.
    # With x_as_param, X is read from parameter slots 12 onward instead of
    # a constant, so every sweep runs in full through X @ W.
    tape = Tape(12 + X.size if x_as_param else 12)
    W = tape.param(0, (3, 2))
    v = tape.param(8, (4,))
    Xref = tape.param(12, X.shape) if x_as_param else tape.constant(X)
    H = (Xref @ W + tape.param(6, (2,))).relu()
    S = H - (0.0 - H).exp() * 0.5
    rows = S.max() + S.select(np.arange(X.shape[0]) % 2) + (S * S) @ np.ones(2)
    V = tape.param(8, (2, 2))
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


def layered_program(extra_readers=False):
    # relu(X @ W + b) @ V + c over input X (n, 3): the bias adds and the
    # relu write into the matmul buffers. extra_readers gives every matmul
    # and add an unused second consumer, which rules out every such write
    # and leaves the same program computing into fresh buffers.
    tape = Tape(26)
    nodes = {"X": tape.input()}

    def keep(name, ref):
        nodes[name] = ref
        if extra_readers:
            _ = ref * 1.0
        return ref

    m = keep("m", nodes["X"] @ tape.param(0, (3, 4)))
    h = keep("h", m + tape.param(12, (4,)))
    r = nodes["r"] = h.relu()
    s = keep("s", r @ tape.param(16, (4, 2)))
    nodes["out"] = s + tape.param(24, (2,))
    return tape, nodes


def layered_numpy(w, X):
    m = X @ w[:12].reshape(3, 4)
    r = np.maximum(m + w[12:16], 0.0)
    return r, r @ w[16:24].reshape(4, 2) + w[24:]


def test_in_place_writes_match_fresh_buffers_bitwise():
    # the relu zeros some rows, so its mask matters; backward at the
    # overwritten h and the jvp must match the program without writes
    rng = np.random.default_rng(21)
    X = rng.normal(size=(7, 3))
    w = rng.normal(size=26)
    dw = rng.normal(size=26)
    seed_h, seed_out = rng.normal(size=(7, 4)), rng.normal(size=(7, 2))
    program, nodes = layered_program()
    reference, ref_nodes = layered_program(extra_readers=True)
    assert program._in_place and not reference._in_place
    tape, ref_tape = program.replay(X), reference.replay(X)

    r, out = layered_numpy(w, X)
    assert (r == 0).any() and (r > 0).any()
    assert tape.forward(w).tobytes() == out.tobytes()
    ref_tape.forward(w)
    for name, seed in (("h", seed_h), ("r", seed_h), ("out", seed_out)):
        got = tape.backward(seed=seed, at=Ref(tape, nodes[name].index))
        want = ref_tape.backward(seed=seed, at=Ref(ref_tape, ref_nodes[name].index))
        assert got.tobytes() == want.tobytes()
    # the gradient at h is the linear layer's alone
    g_h = tape.backward(seed=seed_h, at=Ref(tape, nodes["h"].index))
    assert g_h[:12].tobytes() == (X.T @ seed_h).ravel().tobytes()
    assert g_h[12:16].tobytes() == seed_h.sum(axis=0).tobytes()

    val, tan = tape.jvp(w, dw)
    ref_val, ref_tan = ref_tape.jvp(w, dw)
    assert val.tobytes() == out.tobytes() == ref_val.tobytes()
    assert tan.tobytes() == ref_tan.tobytes()


def test_two_consumers_keep_their_operand():
    # h feeds both the relu and the final add, so neither may overwrite it
    rng = np.random.default_rng(22)
    X = rng.normal(size=(5, 3))
    w = rng.normal(size=8)
    seed = rng.normal(size=(5, 2))
    tape = Tape(8)
    h = tape.constant(X) @ tape.param(0, (3, 2)) + tape.param(6, (2,))
    _ = h.relu() + h
    pre = X @ w[:6].reshape(3, 2) + w[6:]
    assert (pre < 0).any()
    assert tape.forward(w).tobytes() == (np.maximum(pre, 0.0) + pre).tobytes()
    d = seed + seed * (pre > 0)
    g = tape.backward(seed=seed)
    assert g[:6].tobytes() == (X.T @ d).ravel().tobytes()
    assert g[6:].tobytes() == d.sum(axis=0).tobytes()


def test_broadcast_that_grows_the_operand_takes_a_fresh_buffer():
    # the matmul value has shape (2,), the sum (3, 2): no write into it fits
    tape = Tape(4)
    x, B = np.array([1.0, -2.0]), np.arange(6.0).reshape(3, 2)
    _ = (tape.constant(x) @ tape.param(0, (2, 2)) + tape.constant(B)).relu()
    w = np.array([0.5, -1.0, 2.0, 0.25])
    assert tape.forward(w).tobytes() == np.maximum(x @ w.reshape(2, 2) + B, 0.0).tobytes()


def test_head_on_a_replay_cancels_the_write_into_what_it_reads():
    # the recorded relu overwrites h; a head on one replay that reads h
    # keeps h intact there, and the program and other replays still write
    rng = np.random.default_rng(23)
    X = rng.normal(size=(6, 3))
    w = rng.normal(size=26)
    program, nodes = layered_program()
    relu_index = nodes["r"].index
    tape = program.replay(X)
    head = tape.output.total() + Ref(tape, nodes["h"].index).total()
    assert relu_index not in tape._in_place
    assert relu_index in program._in_place and relu_index in program.replay(X)._in_place

    _, out = layered_numpy(w, X)
    pre = X @ w[:12].reshape(3, 4) + w[12:16]
    assert (pre < 0).any()
    assert float(head.tape.forward(w)) == float(np.sum(out) + np.sum(pre))


def test_scores_stay_unchanged_by_later_calls_and_sweeps():
    model = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dims=(5, 6))
    rng = np.random.default_rng(24)
    X = rng.normal(size=(8, 4))
    w, w2, dw = (rng.normal(size=model.param_count) for _ in range(3))
    seed = rng.normal(size=(8, 3))
    F, ref = model.batch_scores(w, X)
    kept = F.copy()
    ref.tape.backward(seed=seed, at=ref)
    ref.tape.jvp(w2, dw)
    G, other = model.batch_scores(w2, X)
    other.tape.backward(seed=seed, at=other)
    head = (ref - 1.0).relu().total()  # the sub may overwrite the scores node
    head.tape.forward(w)
    head.tape.backward()
    assert F.tobytes() == kept.tobytes()
    assert F.tobytes() == model.batch_scores(w, X)[0].tobytes()
    assert G.tobytes() == model.batch_scores(w2, X)[0].tobytes()


def test_wide_forward_keeps_one_buffer_per_layer():
    # a replayed forward of MLP 32-256-256-4 on 512 rows retains its two
    # hidden activations, the copy of w and the output, and little else;
    # with a matmul, a bias-add and a relu buffer per layer it kept 6.6 MB
    model = ModelSpec("mlp", input_dim=32, num_classes=4, hidden_dims=(256, 256))
    rng = np.random.default_rng(25)
    X = rng.normal(size=(512, 32))
    w = model.init_params(0)
    _, ref = model.batch_scores(w, X)
    tracemalloc.start()
    try:
        ref.tape.forward(w)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    floats = 2 * 512 * 256 + model.param_count + 512 * 4
    assert retained <= 8 * floats + 64 * 1024


def test_backward_at_a_relu_leaves_the_seed_unchanged():
    # the relu's only consumer is a matmul, so below the seeded node its
    # adjoint is masked in place; the seed itself is the caller's array
    rng = np.random.default_rng(26)
    X = rng.normal(size=(7, 3))
    w = rng.normal(size=26)
    program, nodes = layered_program()
    tape = program.replay(X)
    tape.forward(w)
    seed = rng.normal(size=(7, 4))
    kept = seed.copy()
    g = tape.backward(seed=seed, at=Ref(tape, nodes["r"].index))
    assert seed.tobytes() == kept.tobytes()
    mask = np.maximum(X @ w[:12].reshape(3, 4) + w[12:16], 0.0) > 0
    assert not mask.all()
    assert g[:12].tobytes() == (X.T @ (kept * mask)).ravel().tobytes()


def test_a_relu_that_also_feeds_a_head_on_a_replay_keeps_fresh_adjoints():
    # on this replay a head reads the relu besides the recorded matmul; add
    # hands its adjoint through, so the relu's adjoint at the head is the
    # caller's seed itself and must not be masked in place
    rng = np.random.default_rng(27)
    X = rng.normal(size=(7, 3))
    w = rng.normal(size=26)
    program, nodes = layered_program()
    tape = program.replay(X)
    head = Ref(tape, nodes["r"].index) + 0.0
    tape.forward(w)
    seed = rng.normal(size=(7, 4))
    kept = seed.copy()
    g = tape.backward(seed=seed, at=head)
    assert seed.tobytes() == kept.tobytes()
    mask = np.maximum(X @ w[:12].reshape(3, 4) + w[12:16], 0.0) > 0
    assert not mask.all()
    assert g[:12].tobytes() == (X.T @ (kept * mask)).ravel().tobytes()
    assert g[12:16].tobytes() == (kept * mask).sum(axis=0).tobytes()


def test_relu_adjoints_masked_in_place_equal_fresh_ones_bitwise():
    # the reference replay gives every relu an unused second consumer, which
    # keeps its adjoint out of place; both sweeps start at the scores node
    model = ModelSpec("mlp", input_dim=5, num_classes=3, hidden_dims=(6, 6))
    rng = np.random.default_rng(28)
    X = rng.normal(size=(9, 5))
    w = rng.normal(size=model.param_count)
    seed = rng.normal(size=(9, 3))
    F, ref = model.batch_scores(w, X)
    fresh = model._program.replay(X)
    relus = [i for i, node in enumerate(fresh.nodes) if node.op == "relu"]
    for i in relus:
        _ = Ref(fresh, i) * 1.0
    fresh.forward(w)
    assert fresh._values[ref.index].tobytes() == F.tobytes()
    assert all((fresh._values[i] == 0).any() for i in relus)
    got = ref.tape.backward(seed=seed, at=ref)
    want = fresh.backward(seed=seed, at=Ref(fresh, ref.index))
    assert got.tobytes() == want.tobytes()


def test_wide_backward_masks_each_relu_adjoint_in_place():
    # one backward of MLP 32-256-256-4 on 512 rows; a new array per relu
    # mask, as a plain g * mask makes, took its peak to 5.7 MB
    model = ModelSpec("mlp", input_dim=32, num_classes=4, hidden_dims=(256, 256))
    rng = np.random.default_rng(29)
    X = rng.normal(size=(512, 32))
    seed = rng.normal(size=(512, 4)) / 512
    _, ref = model.batch_scores(model.init_params(0), X)
    tracemalloc.start()
    try:
        ref.tape.backward(seed=seed, at=ref)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.0e6


def _doubled_pair(run_forward):
    # a tape whose output is the vector 2 * w, run at w = 0 when asked
    tape = Tape(2)
    _ = tape.param(0, (2,)) * 2.0
    if run_forward:
        tape.forward(np.zeros(2))
    return tape


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: t.forward(np.zeros(2)), "tape is empty"),
        (lambda t: t.jvp(np.zeros(2), np.ones(2)), "tape is empty"),
        (lambda t: backward_grad(t, np.zeros(2)), "tape is empty"),
        (lambda t: t.output, "tape is empty"),
        (lambda t: t.backward(), "run forward before backward"),
    ],
    ids=["forward", "jvp", "backward_grad", "output", "backward"],
)
def test_an_empty_tape_is_rejected_by_every_entry(call, message):
    # forward and jvp used to return 0.0, and the backwards an IndexError
    with pytest.raises(ValueError, match=message):
        call(Tape(2))


@pytest.mark.parametrize(
    "run_forward, call, message",
    [
        (False, lambda t: t.backward(seed=np.ones(2)), "run forward before backward"),
        (
            True,
            lambda t: t.backward(seed=np.ones(3)),
            "seed shape (3,) does not match output shape (2,)",
        ),
        (True, lambda t: t.backward(), "default backward seed requires a scalar output"),
        (False, lambda t: t.jvp(np.zeros(2), np.ones(3)), "jvp expects w and dw of length"),
        (False, lambda t: t.jvp(np.zeros(3), np.ones(2)), "jvp expects w and dw of length"),
    ],
    ids=["backward-before-forward", "seed-shape", "default-seed-on-a-vector", "jvp-dw", "jvp-w"],
)
def test_sweeps_reject_calls_that_do_not_fit_the_tape(run_forward, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(_doubled_pair(run_forward))
