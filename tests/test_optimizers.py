import re

import numpy as np
import pytest

from proxfw.autodiff import fd_gradient_oracle
from proxfw.data import generate_synthetic
from proxfw.losses import augmented_scores
from proxfw.models import ModelSpec, Sample, init_params
from proxfw.proximal import proximal_fw_solve
from proxfw.optimizers import (
    BASELINE_KINDS,
    MOMENT_COUNTS,
    BaselineState,
    DFWState,
    StepDiagnostics,
    adaptive_baseline_step,
    default_lr_schedule,
    dfw_step,
    effective_lr,
    sgd_nesterov_step,
)

from helpers import ToyBinaryModel, ce_objective_ref, head_value, hinge_objective_ref


TOY = ToyBinaryModel()
TOY_BATCH = [Sample(np.array([1.0]), 0)]


def toy_state(w, **kw):
    kw.setdefault("momentum", 0.0)
    kw.setdefault("l2", 0.0)
    kw.setdefault("mode", "conditional")
    return DFWState(w=np.array([float(w)]), eta=1.0, **kw)


def test_dfw_step_full_step_from_origin():
    new, diag = dfw_step(toy_state(0.0), TOY_BATCH, TOY)
    assert diag.step_size == 1.0
    assert np.array_equal(new.w, [1.0])


def test_dfw_step_partial_step_hits_proximal_minimizer():
    new, diag = dfw_step(toy_state(0.5), TOY_BATCH, TOY)
    assert diag.step_size == 0.5
    assert np.array_equal(new.w, [1.0])


def test_dfw_step_no_movement_when_margin_satisfied():
    new, diag = dfw_step(toy_state(2.0), TOY_BATCH, TOY)
    assert diag.step_size == 0.0
    assert np.array_equal(new.w, [2.0])
    assert np.array_equal(new.velocity, [0.0])
    assert diag.mean_loss == 0.0


def test_dfw_step_velocity_accumulation():
    state = toy_state(0.0, momentum=0.9)
    state, diag = dfw_step(state, TOY_BATCH, TOY)
    # gamma=1, direction r+delta=-1: z = 0.9*0 + 1, w = 0 + 1 + 0.9*1
    assert diag.step_size == 1.0
    assert np.allclose(state.velocity, [1.0])
    assert np.allclose(state.w, [1.9])
    state, diag = dfw_step(state, TOY_BATCH, TOY)
    # margin now satisfied: gamma=0, z decays, w coasts on momentum
    assert diag.step_size == 0.0
    assert np.allclose(state.velocity, [0.9])
    assert np.allclose(state.w, [1.9 + 0.9 * 0.9])
    assert state.step_count == 2


def test_dfw_step_is_sgd_when_gamma_hits_one():
    v0 = np.array([0.25])
    fw = DFWState(w=np.zeros(1), eta=1.0, momentum=0.9, l2=0.0, mode="conditional", velocity=v0.copy())
    sgd = BaselineState(kind="sgd", w=np.zeros(1), lr=1.0, momentum=0.9, l2=0.0, velocity=v0.copy())
    fw_new, diag = dfw_step(fw, TOY_BATCH, TOY)
    sgd_new, _ = sgd_nesterov_step(sgd, TOY_BATCH, TOY)
    assert diag.step_size == 1.0
    assert np.array_equal(fw_new.w, sgd_new.w)
    assert np.array_equal(fw_new.velocity, sgd_new.velocity)


def test_dfw_step_batch_duplication_invariance():
    rng = np.random.default_rng(5)
    model = ModelSpec("mlp", input_dim=4, num_classes=3, hidden_dims=(8,))
    w = init_params(model, seed=2) + 0.1 * rng.normal(size=model.param_count)
    X = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    once, d1 = dfw_step(DFWState(w=w, eta=0.3, momentum=0.0, mode="smoothed"), (X, y), model)
    twice, d2 = dfw_step(
        DFWState(w=w, eta=0.3, momentum=0.0, mode="smoothed"),
        (np.vstack([X, X]), np.concatenate([y, y])),
        model,
    )
    assert abs(d1.step_size - d2.step_size) < 1e-12
    assert np.allclose(once.w, twice.w, atol=1e-12)
    assert d2.switched == 2 * d1.switched


def test_dfw_step_rejects_empty_batch():
    with pytest.raises(ValueError):
        dfw_step(toy_state(0.0), [], TOY)


def test_dfw_step_size_stays_in_unit_interval():
    rng = np.random.default_rng(11)
    model = ModelSpec("mlp", input_dim=5, num_classes=5, hidden_dims=(6,))
    data = generate_synthetic("blobs", 64, 0, 0, d=5, num_classes=5, noise=1.5, seed=4)
    for trial in range(60):
        w = init_params(model, seed=trial) + rng.normal(scale=0.5, size=model.param_count)
        eta = float(10.0 ** rng.uniform(-3, 1))
        mode = "smoothed" if trial % 2 else "conditional"
        idx = rng.integers(0, 64, size=8)
        state = DFWState(w=w, eta=eta, momentum=0.9, mode=mode)
        new, diag = dfw_step(state, (data.train.X[idx], data.train.y[idx]), model)
        assert 0.0 <= diag.step_size <= 1.0
        assert np.isfinite(new.w).all()
        assert 0 <= diag.switched <= 8
        if mode == "conditional":
            assert diag.switched == 0


def linear_pair_model():
    return ModelSpec("linear", input_dim=2, num_classes=2, bias=False)


def test_sgd_step_worked_example():
    # x=(1,0), y=1, w=0: hinge active at class 0, g=(1,-1,0,0)
    model = linear_pair_model()
    state = BaselineState(kind="sgd", w=np.zeros(4), lr=0.1, momentum=0.0, l2=0.0)
    new, _ = sgd_nesterov_step(state, [Sample(np.array([1.0, 0.0]), 1)], model)
    assert np.allclose(new.w, [-0.1, 0.1, 0.0, 0.0])


def test_sgd_schedule_multiplies_reached_marks():
    model = linear_pair_model()
    state = BaselineState(
        kind="sgd", w=np.zeros(4), lr=0.1, momentum=0.0, l2=0.0,
        schedule=((3, 0.2),), epoch=3,
    )
    assert effective_lr(state) == 0.1 * 0.2
    new, _ = sgd_nesterov_step(state, [Sample(np.array([1.0, 0.0]), 1)], model)
    assert np.allclose(new.w, [-0.02, 0.02, 0.0, 0.0])
    early = BaselineState(kind="sgd", w=np.zeros(4), lr=0.1, schedule=((3, 0.2),), epoch=2)
    assert effective_lr(early) == 0.1
    stacked = BaselineState(
        kind="sgd", w=np.zeros(4), lr=0.1, schedule=((3, 0.2), (6, 0.2)), epoch=6
    )
    assert effective_lr(stacked) == pytest.approx(0.1 * 0.04)



@pytest.mark.parametrize("epoch", [1.5, np.float64(2.7)])
def test_schedule_epochs_that_are_not_whole_numbers_are_rejected(epoch):
    message = f"lr schedule epoch must be a whole number, got {float(epoch)!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        BaselineState(kind="sgd", w=np.zeros(2), lr=0.1, schedule=((epoch, 0.2),))


def test_whole_number_schedule_epochs_of_any_type_become_ints():
    for epoch in (3, 3.0, np.int64(3), np.float64(3.0)):
        state = BaselineState(kind="sgd", w=np.zeros(2), lr=0.1, schedule=((epoch, 0.2),))
        assert state.schedule == ((3, 0.2),)
        assert type(state.schedule[0][0]) is int

def test_sgd_zero_gradient_drifts_on_momentum():
    # margin satisfied at w=2 so the hinge gradient vanishes
    state = BaselineState(
        kind="sgd", w=np.array([2.0]), lr=0.1, momentum=0.9, l2=0.0,
        velocity=np.array([0.5]),
    )
    new, _ = sgd_nesterov_step(state, TOY_BATCH, TOY)
    assert np.allclose(new.velocity, [0.45])
    assert np.allclose(new.w, new.velocity * 0.9 + 2.0)


@pytest.mark.parametrize("l2", [0.0, 1e-2])
@pytest.mark.parametrize("loss", ["svm", "ce"])
def test_sgd_gradient_matches_finite_differences(loss, l2):
    model = ModelSpec("mlp", input_dim=3, num_classes=4, hidden_dims=(5,))
    rng = np.random.default_rng(3)
    w = init_params(model, seed=9)
    x, y = rng.normal(size=3), 2
    state = BaselineState(kind="sgd", w=w, lr=0.05, momentum=0.0, l2=l2, loss=loss)
    new, _ = sgd_nesterov_step(state, [Sample(x, y)], model)
    g_implied = (w - new.w) / 0.05
    if loss == "svm":
        # the hinge argmax must not change under the 1e-5 probes
        top2 = np.sort(augmented_scores(model.scores(w, x)[0], y))[-2:]
        assert top2[1] - top2[0] > 1e-3
        head = hinge_objective_ref(model, x, y, l2=l2)
    else:
        head = ce_objective_ref(model, x, y, l2=l2)

    g_fd = fd_gradient_oracle(lambda wv: head_value(head, wv), w)
    denom = max(np.linalg.norm(g_fd), 1e-12)
    assert np.linalg.norm(g_implied - g_fd) / denom < 1e-6


def test_adagrad_first_step_worked_example():
    # x=(3,0) makes g=(3,-3,0,0); first-step denominator is sqrt(g^2+eps)
    model = linear_pair_model()
    state = BaselineState(kind="adagrad", w=np.zeros(4), lr=0.1, l2=0.0)
    new, _ = adaptive_baseline_step(state, [Sample(np.array([3.0, 0.0]), 1)], model)
    g = np.array([3.0, -3.0, 0.0, 0.0])
    assert np.array_equal(new.w, -0.1 * g / np.sqrt(g * g + 1e-10))
    assert np.allclose(new.w, [-0.1, 0.1, 0.0, 0.0], atol=1e-8)
    assert np.array_equal(new.moments[0], g * g)


def test_adam_zero_gradient_is_noop():
    state = BaselineState(kind="adam", w=np.array([2.0]), lr=0.1, l2=0.0)
    for _ in range(5):
        state, _ = adaptive_baseline_step(state, TOY_BATCH, TOY)
    assert np.array_equal(state.w, [2.0])


def test_adam_first_step_is_sign_scaled():
    # bias correction makes the first update lr * g / (|g| + eps)
    model = linear_pair_model()
    state = BaselineState(kind="adam", w=np.zeros(4), lr=0.1, l2=0.0)
    new, _ = adaptive_baseline_step(state, [Sample(np.array([3.0, 0.0]), 1)], model)
    assert np.allclose(new.w, [-0.1, 0.1, 0.0, 0.0], atol=1e-7)
    assert new.step_count == 1


def test_amsgrad_second_moment_cap_is_monotone():
    rng = np.random.default_rng(13)
    model = ModelSpec("mlp", input_dim=3, num_classes=3, hidden_dims=(4,))
    data = generate_synthetic("blobs", 48, 0, 0, d=3, num_classes=3, noise=1.0, seed=6)
    state = BaselineState(kind="amsgrad", w=init_params(model, seed=1), lr=0.01)
    prev = state.moments[2].copy()
    for _ in range(40):
        idx = rng.integers(0, 48, size=6)
        state, _ = adaptive_baseline_step(state, (data.train.X[idx], data.train.y[idx]), model)
        assert np.all(state.moments[2] >= prev)
        assert np.isfinite(state.w).all()
        prev = state.moments[2].copy()
    assert prev.max() > 0


def test_baseline_state_validation():
    with pytest.raises(ValueError):
        BaselineState(kind="rmsprop", w=np.zeros(2), lr=0.1)
    with pytest.raises(ValueError):
        BaselineState(kind="sgd", w=np.zeros(2), lr=0.0)
    with pytest.raises(ValueError):
        sgd_nesterov_step(BaselineState(kind="adam", w=np.zeros(1), lr=0.1), TOY_BATCH, TOY)
    with pytest.raises(ValueError):
        adaptive_baseline_step(BaselineState(kind="sgd", w=np.zeros(1), lr=0.1), TOY_BATCH, TOY)


BUFFERS = [("dfw", "velocity"), ("sgd", "velocity")] + [
    (kind, f"moments[{i}]") for kind in ("adagrad", "adam", "amsgrad") for i in range(MOMENT_COUNTS[kind])
]


@pytest.mark.parametrize("shape", [(1,), (6, 1)])
@pytest.mark.parametrize("kind,field", BUFFERS, ids=lambda v: v)
def test_a_buffer_not_shaped_like_w_is_rejected_by_name(kind, field, shape):
    bad = np.ones(shape)
    if field == "velocity":
        buffers = {"velocity": bad}
    else:
        moments = [None] * MOMENT_COUNTS[kind]
        moments[int(field[-2])] = bad
        buffers = {"moments": tuple(moments)}
    with pytest.raises(ValueError, match=re.escape(f"{field} must have the shape of w (6,), got {shape}")):
        if kind == "dfw":
            DFWState(w=np.zeros(6), eta=0.1, **buffers)
        else:
            BaselineState(kind=kind, w=np.zeros(6), lr=0.1, **buffers)


@pytest.mark.parametrize(
    "kind,length",
    [(kind, n) for kind in BASELINE_KINDS for n in range(4) if n != MOMENT_COUNTS[kind]],
)
def test_moments_of_another_kind_are_rejected(kind, length):
    with pytest.raises(ValueError, match=f"moments of a {kind} state must hold {MOMENT_COUNTS[kind]} buffers"):
        BaselineState(kind=kind, w=np.zeros(2), lr=0.1, moments=(np.zeros(2),) * length)


def test_default_lr_schedule_marks():
    assert default_lr_schedule(60) == ((18, 0.2), (36, 0.2), (54, 0.2))
    assert default_lr_schedule(20) == ((6, 0.2), (12, 0.2), (18, 0.2))
    assert default_lr_schedule(1) == ()


def test_dfw_state_validation():
    with pytest.raises(ValueError):
        DFWState(w=np.zeros(2), eta=0.0)
    with pytest.raises(ValueError):
        DFWState(w=np.zeros(2), eta=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        DFWState(w=np.zeros(2), eta=0.1, l2=-1.0)


def settings_id(kwargs):
    return ",".join(f"{k}={v}" for k, v in kwargs.items())


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta=float("nan")),
        dict(eta=float("inf")),
        dict(eta=-0.1),
        dict(eta=0.1, momentum=-0.1),
        dict(eta=0.1, momentum=float("nan")),
        dict(eta=0.1, l2=float("nan")),
        dict(eta=0.1, mode="bogus"),
    ],
    ids=settings_id,
)
def test_dfw_state_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        DFWState(w=np.zeros(2), **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(lr=float("nan")),
        dict(lr=float("inf")),
        dict(lr=-0.1),
        dict(lr=0.1, momentum=1.5),
        dict(lr=0.1, momentum=1.0),
        dict(lr=0.1, l2=-1.0),
        dict(lr=0.1, l2=float("inf")),
        dict(lr=0.1, loss="hinge"),
        dict(lr=0.1, schedule=((1, float("nan")),)),
        dict(lr=0.1, schedule=((1, -0.2),)),
    ],
    ids=settings_id,
)
def test_baseline_state_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        BaselineState(kind="sgd", w=np.zeros(2), **kwargs)


STEP_MODEL = ModelSpec("mlp", input_dim=3, num_classes=4, hidden_dims=(5,))


def step_of(kind):
    w = init_params(STEP_MODEL, seed=0)
    if kind == "dfw":
        return DFWState(w=w, eta=0.1), dfw_step
    step = sgd_nesterov_step if kind == "sgd" else adaptive_baseline_step
    return BaselineState(kind=kind, w=w, lr=0.1), step


def _raw(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return tuple(map(_raw, value)) if isinstance(value, tuple) else value


def _snapshot(obj):
    return {k: _raw(v) for k, v in vars(obj).items()}


@pytest.mark.parametrize("kind", ("dfw",) + BASELINE_KINDS)
def test_every_step_returns_state_and_diagnostics(kind):
    state, step = step_of(kind)
    X = np.random.default_rng(1).normal(size=(6, 3))
    y = np.array([0, 1, 2, 3, 0, 1])
    before = (_snapshot(state), X.tobytes(), y.tobytes())
    new, diag = step(state, (X, y), STEP_MODEL)
    # the step builds a new state of the same class and leaves its inputs alone
    assert (_snapshot(state), X.tobytes(), y.tobytes()) == before
    assert vars(new).keys() == vars(state).keys()
    assert type(new) is type(state) and new.step_count == 1
    assert isinstance(diag, StepDiagnostics)
    assert diag.batch_size == 6 and np.isfinite(diag.mean_loss)
    assert (diag.step_size is None) == (kind != "dfw")
    if kind != "dfw":
        assert diag.switched == 0


@pytest.mark.parametrize("kind", ("dfw",) + BASELINE_KINDS)
def test_a_state_rebuilt_through_its_constructor_steps_bit_identically(kind):
    # w, velocity, moments and step_count fully determine the next steps
    state, step = step_of(kind)
    rng = np.random.default_rng(3)
    batches = [(rng.normal(size=(6, 3)), rng.integers(0, 4, size=6)) for _ in range(6)]
    for batch in batches[:3]:
        state, _ = step(state, batch, STEP_MODEL)
    rebuilt = type(state)(**vars(state))
    for batch in batches[3:]:
        state, diag = step(state, batch, STEP_MODEL)
        rebuilt, rebuilt_diag = step(rebuilt, batch, STEP_MODEL)
        assert _snapshot(rebuilt) == _snapshot(state)
        assert vars(rebuilt_diag) == vars(diag)


@pytest.mark.parametrize("label", [-1, 4])
@pytest.mark.parametrize("kind", ["dfw", "sgd", "adam-ce", "solver"])
def test_labels_outside_the_class_range_are_rejected(kind, label):
    X = np.random.default_rng(2).normal(size=(3, 3))
    batch = (X, np.array([0, label, 1]))
    w = init_params(STEP_MODEL, seed=0)
    with pytest.raises(ValueError, match=f"label {label} outside"):
        if kind == "solver":
            proximal_fw_solve(w, batch, STEP_MODEL, eta=0.1, max_iters=2)
        elif kind == "adam-ce":
            adaptive_baseline_step(BaselineState(kind="adam", w=w, lr=0.1, loss="ce"), batch, STEP_MODEL)
        else:
            state, step = step_of(kind)
            step(state, batch, STEP_MODEL)
