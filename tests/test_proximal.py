import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxfw import proximal
from proxfw.autodiff import Tape
from proxfw.data import generate_synthetic
from proxfw.losses import hinge_loss_batch
from proxfw.models import ModelSpec, Sample
from proxfw.proximal import (
    DualVertex,
    ProximalState,
    conditional_gradient_primal,
    dual_objective,
    optimal_step_size,
    proximal_fw_solve,
    single_step_size,
)

from helpers import ToyBinaryModel


def mk_state(w0, w, lam, eta):
    return ProximalState(w0=np.asarray(w0, float), w=np.asarray(w, float), lam=lam, eta=eta)


def test_dual_objective_worked_example():
    state = mk_state([0.0, 0.0], [1.0, 0.0], lam=2.0, eta=1.0)
    assert dual_objective(state) == 1.5


def test_dual_objective_rejects_bad_eta():
    with pytest.raises(ValueError):
        mk_state([0.0], [0.0], lam=0.0, eta=0.0)
    with pytest.raises(ValueError):
        mk_state([0.0], [0.0], lam=0.0, eta=-1.0)


def test_optimal_step_size_worked_examples():
    # step all the way to the vertex
    state = mk_state([0.0, 0.0], [1.0, 0.0], lam=0.0, eta=1.0)
    vertex = DualVertex(w=np.zeros(2), lam=0.0)
    assert optimal_step_size(state, vertex) == 1.0
    # interior optimum
    state = mk_state([0.0, 0.0], [0.0, 0.0], lam=0.0, eta=0.5)
    vertex = DualVertex(w=np.array([-2.0, 0.0]), lam=1.0)
    assert optimal_step_size(state, vertex) == 0.125
    # raw value 42 clips to 1
    state = mk_state([0.0, 0.0], [1.0, 0.0], lam=0.0, eta=1.0)
    vertex = DualVertex(w=np.array([0.5, 0.0]), lam=10.0)
    assert optimal_step_size(state, vertex) == 1.0


def test_optimal_step_size_degenerate_direction():
    state = mk_state([0.0, 0.0], [1.0, 0.0], lam=0.0, eta=1.0)
    vertex = DualVertex(w=np.array([1.0, 0.0]), lam=5.0)
    assert optimal_step_size(state, vertex) == 0.0


def test_single_step_size_worked_examples():
    assert single_step_size(np.zeros(1), np.array([2.0]), 0.8, eta=0.1) == 1.0
    # numerator 0.2, denominator 0.4
    assert single_step_size(np.zeros(1), np.array([2.0]), 0.2, eta=0.1) == 0.5
    assert single_step_size(np.array([3.0]), np.zeros(1), 1.0, eta=0.1) == 0.0


def test_single_step_size_matches_grid_search():
    # the closed form beats a dense grid over [0, 1] on random instances
    rng = np.random.default_rng(0)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(100):
        p = int(rng.integers(2, 12))
        r = rng.normal(size=p)
        delta = rng.normal(size=p)
        loss_term = float(rng.normal(scale=2.0))
        eta = float(10.0 ** rng.uniform(-2, 0.5))
        gamma = single_step_size(r, delta, loss_term, eta)
        # dual value along the segment, dropped constants:
        # g(t) = -(eta/2) |r + t delta|^2 + t loss_term
        vals = (
            -(eta / 2.0) * ((r @ r) + 2.0 * grid * (r @ delta) + grid**2 * (delta @ delta))
            + grid * loss_term
        )
        best = vals.max()
        got = (
            -(eta / 2.0) * ((r @ r) + 2.0 * gamma * (r @ delta) + gamma**2 * (delta @ delta))
            + gamma * loss_term
        )
        assert got >= best - 1e-8


def test_optimal_step_size_matches_grid_search():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(100):
        p = int(rng.integers(2, 12))
        state = mk_state(
            rng.normal(size=p), rng.normal(size=p), float(rng.normal()), float(10.0 ** rng.uniform(-2, 0.5))
        )
        vertex = DualVertex(w=rng.normal(size=p), lam=float(rng.normal()))
        gamma = optimal_step_size(state, vertex)
        assert 0.0 <= gamma <= 1.0
        moved = state.w - state.w0
        seg = moved[None, :] * (1.0 - grid)[:, None] + vertex.w[None, :] * grid[:, None]
        vals = -np.sum(seg * seg, axis=1) / (2.0 * state.eta) + (
            (1.0 - grid) * state.lam + grid * vertex.lam
        )
        at_gamma = -np.sum(
            ((1.0 - gamma) * moved + gamma * vertex.w) ** 2
        ) / (2.0 * state.eta) + ((1.0 - gamma) * state.lam + gamma * vertex.lam)
        assert at_gamma >= vals.max() - 1e-8


def test_conditional_gradient_primal_toy_example():
    model = ToyBinaryModel()
    r, delta = conditional_gradient_primal(np.zeros(1), Sample(np.array([1.0]), 0), model)
    assert np.array_equal(r, [0.0])
    assert np.array_equal(delta, [-1.0])


def test_conditional_gradient_primal_regularizer_skips_biases():
    model = ModelSpec("linear", input_dim=2, num_classes=3)
    w = np.ones(model.param_count)
    r, _ = conditional_gradient_primal(
        w, Sample(np.array([1.0, -1.0]), 1), model, l2=0.01
    )
    assert np.allclose(r[:6], 0.01)
    assert np.array_equal(r[6:], np.zeros(3))


def test_proximal_fw_solve_toy_reaches_exact_minimizer():
    model = ToyBinaryModel()
    w, diag = proximal_fw_solve(
        np.array([0.5]), Sample(np.array([1.0]), 0), model, eta=1.0, max_iters=50
    )
    assert np.allclose(w, [1.0], atol=1e-12)
    assert diag.converged
    # dual of the proximal problem equals the primal at the minimizer
    assert np.isclose(diag.dual_objectives[-1], 0.125, atol=1e-12)


def test_proximal_fw_solve_zero_iters_returns_prox_init():
    model = ModelSpec("linear", input_dim=2, num_classes=3)
    w0 = np.ones(model.param_count)
    w, diag = proximal_fw_solve(
        w0, Sample(np.array([1.0, 2.0]), 0), model, eta=0.5, max_iters=0, l2=0.1
    )
    expect = w0 - 0.5 * 0.1 * w0 * model.weight_mask()
    assert np.array_equal(w, expect)
    assert diag.iterations == 0 and not diag.converged


def test_proximal_fw_solve_rejects_bad_arguments():
    model = ToyBinaryModel()
    with pytest.raises(ValueError):
        proximal_fw_solve(np.zeros(1), Sample(np.array([1.0]), 0), model, eta=0.0)
    with pytest.raises(ValueError):
        proximal_fw_solve(np.zeros(1), Sample(np.array([1.0]), 0), model, eta=1.0, max_iters=-1)
    for l2 in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="l2 must be finite and nonnegative"):
            proximal_fw_solve(np.zeros(1), Sample(np.array([1.0]), 0), model, eta=1.0, l2=l2)



@pytest.mark.parametrize("l2", [-1.0, float("nan"), float("inf")])
def test_conditional_gradient_primal_rejects_a_bad_l2(l2):
    model = ModelSpec("linear", input_dim=2, num_classes=3)
    w, batch = np.ones(model.param_count), Sample(np.array([1.0, -1.0]), 1)
    with pytest.raises(ValueError, match="l2 must be finite and nonnegative"):
        conditional_gradient_primal(w, batch, model, l2=l2)


def test_optimal_step_size_rejects_a_vertex_of_another_shape():
    state = mk_state([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], lam=0.0, eta=1.0)
    with pytest.raises(ValueError, match=re.escape("vertex w has shape (1,), state w has shape (3,)")):
        optimal_step_size(state, DualVertex(w=np.zeros(1), lam=1.0))


def test_solver_iteration_count_must_be_a_whole_number():
    model = ModelSpec("linear", input_dim=2, num_classes=3)
    w0, batch = np.ones(model.param_count), Sample(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError, match="max_iters must be a whole number, got 2.5"):
        proximal_fw_solve(w0, batch, model, eta=0.5, max_iters=2.5, gap_tol=0.0)
    w_int, diag_int = proximal_fw_solve(w0, batch, model, eta=0.5, max_iters=3, gap_tol=0.0)
    w_float, diag_float = proximal_fw_solve(w0, batch, model, eta=0.5, max_iters=3.0, gap_tol=0.0)
    assert diag_float.iterations == diag_int.iterations == 3
    assert np.array_equal(w_float, w_int)

def _call_with_eta(entry, eta):
    if entry == "state":
        mk_state([0.0], [0.0], lam=0.0, eta=eta)
    elif entry == "optimal_step_size":
        state = mk_state([0.0], [1.0], lam=0.0, eta=1.0)
        state.eta = eta
        optimal_step_size(state, DualVertex(w=np.zeros(1), lam=1.0))
    elif entry == "single_step_size":
        single_step_size(np.zeros(1), np.array([2.0]), 0.8, eta=eta)
    else:
        proximal_fw_solve(np.zeros(1), Sample(np.array([1.0]), 0), ToyBinaryModel(), eta=eta)


@pytest.mark.parametrize("eta", [float("nan"), float("inf")])
@pytest.mark.parametrize("entry", ["state", "optimal_step_size", "single_step_size", "solve"])
def test_proximal_entry_points_reject_non_finite_eta(entry, eta):
    with pytest.raises(ValueError, match="eta must be finite and positive"):
        _call_with_eta(entry, eta)


# |x| <= 1e300 lets squared norms and dot products overflow float64,
# which both functions must still map into [0, 1], and without a numpy
# RuntimeWarning on the way. eta spans 16 decades.
FINITE = st.floats(-1e300, 1e300)
ETA = st.floats(1e-8, 1e8)
VECTORS = st.integers(1, 6).flatmap(
    lambda p: st.tuples(*[st.lists(FINITE, min_size=p, max_size=p)] * 3)
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(VECTORS, FINITE, FINITE, ETA)
def test_step_sizes_lie_in_unit_interval(vectors, a, b, eta):
    u, v, t = (np.array(x) for x in vectors)
    assert 0.0 <= single_step_size(u, v, a, eta) <= 1.0
    state = ProximalState(w0=u, w=v, lam=a, eta=eta)
    assert 0.0 <= optimal_step_size(state, DualVertex(w=t, lam=b)) <= 1.0


def test_dual_objectives_never_decrease():
    rng = np.random.default_rng(7)
    data = generate_synthetic("blobs", 30, 0, 0, d=4, num_classes=3, noise=1.0, seed=3)
    model = ModelSpec("linear", input_dim=4, num_classes=3)
    for mode in ("conditional", "smoothed"):
        w0 = rng.normal(scale=0.3, size=model.param_count)
        _, diag = proximal_fw_solve(
            w0,
            (data.train.X, data.train.y),
            model,
            eta=0.7,
            max_iters=200,
            gap_tol=1e-12,
            mode=mode,
            l2=1e-2,
        )
        duals = np.array(diag.dual_objectives)
        assert np.all(np.diff(duals) >= -1e-12)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear", "mlp"]),
    mode=st.sampled_from(["conditional", "smoothed"]),
    eta=st.floats(1e-2, 10.0),
    l2=st.one_of(st.just(0.0), st.floats(1e-5, 1e-1)),
    seed=st.integers(0, 2**16),
)
def test_dual_objectives_never_decrease_on_drawn_problems(kind, mode, eta, l2, seed):
    # exact line search along a feasible direction of a concave dual: every
    # pass may lose at most rounding, 1e-12 relative to max(1, |dual|)
    data = generate_synthetic("blobs", 30, 0, 0, d=4, num_classes=3, noise=1.0, seed=seed)
    hidden = (5,) if kind == "mlp" else ()
    model = ModelSpec(kind, input_dim=4, num_classes=3, hidden_dims=hidden)
    w0 = np.random.default_rng(seed).normal(scale=0.3, size=model.param_count)
    _, diag = proximal_fw_solve(
        w0, (data.train.X, data.train.y), model, eta=eta, max_iters=200,
        gap_tol=1e-12, mode=mode, l2=l2,
    )
    duals = np.array(diag.dual_objectives)
    assert np.all(np.diff(duals) >= -1e-12 * np.maximum(1.0, np.abs(duals[:-1])))


def test_solve_runs_one_backward_pass_per_distinct_vertex(monkeypatch):
    # the model stays linearized at w0, so a vertex the solve has already
    # mirrored is reused, not differentiated again
    data = generate_synthetic("blobs", 40, 0, 0, d=4, num_classes=4, noise=1.0, seed=5)
    model = ModelSpec("mlp", input_dim=4, num_classes=4, hidden_dims=(8,))
    w0 = np.random.default_rng(5).normal(scale=0.3, size=model.param_count)
    picked, backwards, vertices = [], [], []
    pick, backward, step = proximal.dual_direction_batch, Tape.backward, proximal.optimal_step_size

    def spy_pick(*args):
        S, switched = pick(*args)
        picked.append(S.tobytes())
        return S, switched

    def spy_backward(tape, *args, **kwargs):
        backwards.append(1)
        return backward(tape, *args, **kwargs)

    def spy_step(state, vertex):
        vertices.append(vertex)
        return step(state, vertex)

    monkeypatch.setattr(proximal, "dual_direction_batch", spy_pick)
    monkeypatch.setattr(Tape, "backward", spy_backward)
    monkeypatch.setattr(proximal, "optimal_step_size", spy_step)
    _, diag = proximal_fw_solve(
        w0, (data.train.X, data.train.y), model, eta=1.0, max_iters=200, gap_tol=0.0, l2=1e-3
    )
    assert len(picked) == 200 and diag.iterations == 200
    assert len(backwards) == len(set(picked)) < 200
    assert len(set(picked)) <= proximal._MEMO_BYTES // (len(picked[0]) + w0.nbytes)
    for vertex in vertices:
        with pytest.raises(ValueError, match="read-only"):
            vertex.w[0] = 0.0


def test_linear_solve_recovers_svm_on_separable_data():
    # with w0 = 0 and no regularizer drift the proximal problem is a
    # multiclass SVM; on separable blobs the certificate drops to ~0 and
    # strong duality holds
    data = generate_synthetic("blobs", 40, 0, 0, d=3, num_classes=2, noise=0.0, seed=1)
    model = ModelSpec("linear", input_dim=3, num_classes=2)
    w0 = np.zeros(model.param_count)
    eta = 10.0
    w, diag = proximal_fw_solve(
        w0, (data.train.X, data.train.y), model, eta=eta, max_iters=4000, gap_tol=1e-9
    )
    assert diag.converged
    assert diag.gaps[-1] <= 1e-9
    F, _ = model.batch_scores(w, data.train.X)
    primal = float(np.sum((w - w0) ** 2) / (2 * eta) + hinge_loss_batch(F, data.train.y).mean())
    assert primal >= diag.dual_objectives[-1] - 1e-12  # weak duality
    assert abs(primal - diag.dual_objectives[-1]) < 1e-8
    assert (F.argmax(axis=1) == data.train.y).all()


@pytest.mark.parametrize("gap_tol", [float("nan"), -1e-9, float("inf")])
def test_solver_gap_tolerance_must_be_finite_and_nonnegative(gap_tol):
    # a nan tolerance used to run every pass and report no error
    model = ModelSpec("linear", input_dim=2, num_classes=3)
    w0, batch = np.ones(model.param_count), Sample(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError, match=re.escape(f"gap_tol must be finite and nonnegative, got {gap_tol!r}")):
        proximal_fw_solve(w0, batch, model, eta=0.5, max_iters=3, gap_tol=gap_tol)


def test_a_state_whose_point_and_anchor_differ_in_shape_is_rejected():
    with pytest.raises(ValueError, match="w0 and w must have the same shape"):
        mk_state([0.0, 0.0], [0.0, 0.0, 0.0], lam=0.0, eta=1.0)
