"""Acceptance gate: ten verifiable behaviors of the toolkit.

Every test prints one PASS/FAIL line (run ``pytest -s`` to see them all)
and asserts the behavior at its stated tolerance. Criteria 8b and 8c
assert a step-size decay and a time-to-loss advantage that only appear
when the benchmark task can be fit to near-zero loss; the fixed noisy
benchmark dataset cannot be, so those two tests fail by design rather
than weaken the check. The README documents this.
"""

import hashlib
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from proxfw.autodiff import fd_gradient_oracle
from proxfw.bench import EpochMetrics, RunConfig, emit_metrics, run_training, sensitivity_sweep
from proxfw.data import generate_synthetic
from proxfw.losses import (
    augmented_scores,
    augmented_scores_batch,
    conditional_gradient_direction,
    dual_direction,
    hinge_loss_batch,
    softmax_direction,
)
from proxfw.models import ModelSpec, Sample, init_params
from proxfw.optimizers import BaselineState, DFWState, dfw_step, sgd_nesterov_step
from proxfw.proximal import (
    DualVertex,
    ProximalState,
    conditional_gradient_primal,
    optimal_step_size,
    proximal_fw_solve,
)

from helpers import ce_objective_ref, head_value, hinge_objective_ref

ETA_GRID = (1e-3, 1e-2, 1e-1, 1.0)
FIXED_DATASET_SHA256 = "7971b9c7b67d66fc8f77da49153f226008d3cde1a181379d817322821d6ebf2a"


def report(tag, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {tag}: {detail}"


def random_mlp(rng, d_hi=20, h_hi=32, k_hi=10):
    d = int(rng.integers(2, d_hi + 1))
    h = int(rng.integers(3, h_hi + 1))
    k = int(rng.integers(2, k_hi + 1))
    return ModelSpec("mlp", input_dim=d, num_classes=k, hidden_dims=(h,))


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        model = random_mlp(rng)
        w = init_params(model, seed=trial) + 0.3 * rng.normal(size=model.param_count)
        x = rng.normal(size=model.input_dim)
        y = int(rng.integers(0, model.num_classes))
        if trial % 2 == 0:
            head = ce_objective_ref(model, x, y)
        else:
            # keep the hinge argmax stable under the 1e-5 probes
            for _ in range(100):
                F, _ = model.scores(w, x)
                top2 = np.sort(augmented_scores(F, y))[-2:]
                if top2[1] - top2[0] > 1e-3:
                    break
                w = init_params(model, seed=trial) + 0.3 * rng.normal(size=model.param_count)
            head = hinge_objective_ref(model, x, y, l2=0.01)
        head.tape.forward(w)
        g_bw = head.tape.backward(seed=1.0, at=head)
        g_fd = fd_gradient_oracle(lambda wv: head_value(head, wv), w)
        worst = max(worst, np.linalg.norm(g_bw - g_fd) / max(np.linalg.norm(g_fd), 1e-12))
    elapsed = time.perf_counter() - t0
    report(
        "1",
        worst < 1e-6 and elapsed < 10.0,
        f"reverse-mode vs finite differences, 20 models: max rel err {worst:.2e} "
        f"(tol 1e-6) in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_direction_gradient_identity():
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(100):
        if trial % 3 == 0:
            d = int(rng.integers(2, 10))
            k = int(rng.integers(2, 6))
            model = ModelSpec("linear", input_dim=d, num_classes=k)
        else:
            model = random_mlp(rng, d_hi=10, h_hi=12, k_hi=6)
        w = init_params(model, seed=trial) + 0.4 * rng.normal(size=model.param_count)
        x = rng.normal(size=model.input_dim)
        y = int(rng.integers(0, model.num_classes))
        l2 = float(rng.choice([0.0, 1e-3, 1e-2]))
        r, delta = conditional_gradient_primal(w, Sample(x, y), model, l2=l2)
        head = hinge_objective_ref(model, x, y, l2=l2)
        head.tape.forward(w)
        g = head.tape.backward(seed=1.0, at=head)
        worst = max(worst, np.abs((r + delta) - g).max())
    report(
        "2",
        worst <= 1e-12,
        f"vertex-direction gradient vs objective gradient, 100 pairs: "
        f"max abs diff {worst:.2e} (tol 1e-12)",
    )


def test_criterion_03_step_size_optimality():
    rng = np.random.default_rng(30)
    grid = np.linspace(0.0, 1.0, 10_000)
    worst_short = -np.inf
    bounds_ok = True
    for _ in range(1000):
        p = int(rng.integers(2, 13))
        state = ProximalState(
            w0=rng.normal(size=p),
            w=rng.normal(size=p),
            lam=float(rng.normal()),
            eta=float(10.0 ** rng.uniform(-2, 1)),
        )
        vertex = DualVertex(w=rng.normal(size=p), lam=float(rng.normal()))
        gamma = optimal_step_size(state, vertex)
        bounds_ok = bounds_ok and 0.0 <= gamma <= 1.0
        m = state.w - state.w0
        a, b, c = m @ m, m @ vertex.w, vertex.w @ vertex.w

        def seg(t):
            quad = (1 - t) ** 2 * a + 2 * t * (1 - t) * b + t**2 * c
            return -quad / (2 * state.eta) + (1 - t) * state.lam + t * vertex.lam

        shortfall = seg(grid).max() - seg(gamma)
        worst_short = max(worst_short, shortfall)
    report(
        "3",
        worst_short <= 1e-8 and bounds_ok,
        f"closed-form step vs 10^4-point grid, 1000 instances: worst shortfall "
        f"{worst_short:.2e} (tol 1e-8), bounds {'ok' if bounds_ok else 'violated'}",
    )


def test_criterion_04_dual_oracle_equivalence():
    t0 = time.perf_counter()
    n, d, k = 50, 10, 3
    data = generate_synthetic("blobs", n, 0, 0, d=d, num_classes=k, noise=0.8, seed=2)
    X, y = data.train.X, data.train.y
    model = ModelSpec("linear", input_dim=d, num_classes=k)
    p = model.param_count
    rng = np.random.default_rng(40)
    w0 = init_params(model, seed=1) + 0.1 * rng.normal(size=p)
    eta, l2 = 0.5, 0.01
    r = l2 * w0 * model.weight_mask()

    # independent oracle: explicit per-sample direction matrices, then
    # projected gradient ascent on the concave dual over the simplices
    A = np.zeros((n, p, k))
    for i in range(n):
        for j in range(k):
            e = np.zeros(k)
            e[j] += 1.0
            e[y[i]] -= 1.0
            A[i, :, j] = np.concatenate([np.outer(X[i], e).ravel(), e])
    delta_cost = 1.0 - np.eye(k)[y]

    def project_rows(V):
        U = np.sort(V, axis=1)[:, ::-1]
        css = np.cumsum(U, axis=1) - 1.0
        ks = np.arange(1, k + 1)
        rho = k - 1 - np.argmax((U - css / ks > 0)[:, ::-1], axis=1)
        theta = css[np.arange(V.shape[0]), rho] / (rho + 1)
        return np.maximum(V - theta[:, None], 0.0)

    flat = A.transpose(1, 0, 2).reshape(p, n * k) / n
    lipschitz = eta * np.linalg.norm(flat, 2) ** 2
    alpha = np.eye(k)[y]
    for _ in range(100_000):
        g = flat @ alpha.ravel()
        wstar = w0 - eta * (r + g)
        grad = (np.einsum("ipk,p->ik", A, wstar) + delta_cost) / n
        new = project_rows(alpha + grad / lipschitz)
        if np.abs(new - alpha).max() < 1e-15:
            alpha = new
            break
        alpha = new
    g = flat @ alpha.ravel()
    oracle = -0.5 * eta * np.sum((r + g) ** 2) + g @ w0 + (alpha * delta_cost).sum() / n

    _, diag = proximal_fw_solve(
        w0, (X, y), model, eta=eta, max_iters=2000, gap_tol=1e-12, mode="conditional", l2=l2
    )
    duals = np.array(diag.dual_objectives)
    diff = abs(duals[-1] - oracle)
    monotone = bool(np.all(np.diff(duals) >= -1e-12))
    elapsed = time.perf_counter() - t0
    report(
        "4",
        diff <= 1e-4 and monotone and elapsed < 30.0,
        f"inner solve vs projected-gradient dual oracle: |diff| {diff:.2e} "
        f"(tol 1e-4), dual series {'monotone' if monotone else 'NOT monotone'}, "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_05_sgd_equivalence_at_full_step():
    rng = np.random.default_rng(50)
    worst = 0.0
    kept = 0
    attempts = 0
    while kept < 60 and attempts < 2000:
        attempts += 1
        model = random_mlp(rng, d_hi=8, h_hi=8, k_hi=6)
        w = init_params(model, seed=attempts) + 0.2 * rng.normal(size=model.param_count)
        X = rng.normal(size=(4, model.input_dim))
        yb = rng.integers(0, model.num_classes, size=4)
        v0 = 0.1 * rng.normal(size=model.param_count)
        eta, mu, l2 = 1e-3, 0.9, 1e-4
        fw = DFWState(w=w.copy(), eta=eta, momentum=mu, l2=l2, mode="conditional",
                      velocity=v0.copy())
        fw_new, diag = dfw_step(fw, (X, yb), model)
        if diag.step_size != 1.0:
            continue
        kept += 1
        sgd = BaselineState(kind="sgd", w=w.copy(), lr=eta, momentum=mu, l2=l2,
                            velocity=v0.copy())
        sgd_new, _ = sgd_nesterov_step(sgd, (X, yb), model)
        worst = max(worst, np.abs(fw_new.w - sgd_new.w).max(),
                    np.abs(fw_new.velocity - sgd_new.velocity).max())
    report(
        "5",
        kept >= 50 and worst <= 1e-15,
        f"full-step updates vs SGD with Nesterov momentum, {kept} clipped "
        f"instances: max abs diff {worst:.2e} (tol 1e-15)",
    )


def test_criterion_06_single_step_matches_one_solver_pass():
    rng = np.random.default_rng(60)
    worst_gamma = worst_w = 0.0
    kept = 0
    attempts = 0
    while kept < 100 and attempts < 2000:
        attempts += 1
        smoothed = kept >= 60
        model = random_mlp(rng, d_hi=8, h_hi=8, k_hi=6)
        w0 = init_params(model, seed=attempts) + 0.3 * rng.normal(size=model.param_count)
        X = rng.normal(size=(5, model.input_dim))
        yb = rng.integers(0, model.num_classes, size=5)
        eta = float(10.0 ** rng.uniform(-1, 0))
        l2 = 0.0 if smoothed else float(rng.choice([0.0, 1e-4, 1e-3, 1e-2]))
        mode = "smoothed" if smoothed else "conditional"
        if l2 > 0.0:
            # the one-pass solver picks its vertex from scores linearized at
            # w0 - eta*r; keep only instances where that vertex matches the
            # one picked at w0, which is the identity's premise
            r = l2 * w0 * model.weight_mask()
            F0, ref = model.batch_scores(w0, X)
            _, tang = ref.tape.jvp(w0, -eta * r)
            same = (
                augmented_scores_batch(F0 + tang, yb).argmax(axis=1)
                == augmented_scores_batch(F0, yb).argmax(axis=1)
            ).all()
            if not same:
                continue
        kept += 1
        state = DFWState(w=w0.copy(), eta=eta, momentum=0.0, l2=l2, mode=mode)
        one_step, diag = dfw_step(state, (X, yb), model)
        w_pass, diag_pass = proximal_fw_solve(
            w0, (X, yb), model, eta=eta, max_iters=1, mode=mode, l2=l2
        )
        worst_gamma = max(worst_gamma, abs(diag.step_size - diag_pass.step_sizes[0]))
        worst_w = max(worst_w, np.abs(one_step.w - w_pass).max())
    report(
        "6",
        kept >= 100 and worst_gamma <= 1e-15 and worst_w <= 1e-15,
        f"closed-form step vs one solver pass, {kept} instances: step-size diff "
        f"{worst_gamma:.2e}, update diff {worst_w:.2e} (tol 1e-15)",
    )


def test_criterion_07_smoothing_switch_condition():
    rng = np.random.default_rng(70)
    switched = 0
    total = 0
    for k in range(2, 11):
        for _ in range(1112):
            total += 1
            scale = float(10.0 ** rng.uniform(-1, 1))
            F = scale * rng.normal(size=k)
            y = int(rng.integers(0, k))
            aug = augmented_scores(F, y)
            s = dual_direction(aug, F, "smoothed")
            soft = softmax_direction(F)
            ascent = float(soft @ aug)
            if np.array_equal(s, soft):
                assert ascent > 0.0, f"softmax kept with ascent {ascent}"
            else:
                assert np.array_equal(s, conditional_gradient_direction(aug))
                assert ascent <= 0.0, f"vertex fallback with ascent {ascent}"
                switched += 1
    report(
        "7",
        total == 10_008,
        f"smoothed-direction ascent condition on {total} score vectors "
        f"(labels 2..10): {switched} vertex fallbacks, zero violations",
    )


@pytest.fixture(scope="module")
def fixed_dataset():
    data = generate_synthetic(
        "blobs", 5000, 1000, 1000, d=20, num_classes=10, noise=1.0, seed=0
    )
    h = hashlib.sha256()
    for part in (data.train, data.val, data.test):
        h.update(part.X.tobytes())
        h.update(part.y.tobytes())
    assert h.hexdigest() == FIXED_DATASET_SHA256, "benchmark dataset drifted"
    return data


def _bench_config(data, optimizer, eta, seed=0):
    return RunConfig(
        dataset=data, optimizer=optimizer, eta=eta, epochs=60, batch_size=64,
        model="mlp", hidden_dims=(64,), seed=seed,
    )


def _best_val(result):
    return max((m.val_acc for m in result.metrics), default=float("-inf"))


@pytest.fixture(scope="module")
def tuned(fixed_dataset):
    t0 = time.perf_counter()
    runs = {"dfw": {}, "sgd": {}}
    for opt in runs:
        for eta in ETA_GRID:
            runs[opt][eta] = run_training(_bench_config(fixed_dataset, opt, eta))
    best = {opt: max(ETA_GRID, key=lambda e: _best_val(runs[opt][e])) for opt in runs}
    return {
        "runs": runs,
        "best": best,
        "dataset": fixed_dataset,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def seed_runs(tuned):
    t0 = time.perf_counter()
    out = {}
    for seed in (0, 1, 2):
        if seed == 0:
            out[seed] = {
                "dfw": tuned["runs"]["dfw"][tuned["best"]["dfw"]],
                "sgd": tuned["runs"]["sgd"][tuned["best"]["sgd"]],
            }
            continue
        out[seed] = {
            opt: run_training(
                _bench_config(tuned["dataset"], opt, tuned["best"][opt], seed=seed)
            )
            for opt in ("dfw", "sgd")
        }
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_08a_tuned_validation_parity(tuned):
    ours = _best_val(tuned["runs"]["dfw"][tuned["best"]["dfw"]])
    theirs = _best_val(tuned["runs"]["sgd"][tuned["best"]["sgd"]])
    report(
        "8a",
        ours >= theirs - 0.015,
        f"best val acc {ours:.4f} (eta {tuned['best']['dfw']:g}) vs SGD "
        f"{theirs:.4f} (eta {tuned['best']['sgd']:g}), margin 1.5pp",
    )


def test_criterion_08b_step_size_decays(tuned):
    metrics = tuned["runs"]["dfw"][tuned["best"]["dfw"]].metrics
    head = float(np.mean([m.mean_gamma for m in metrics[:6]]))
    tail = float(np.mean([m.mean_gamma for m in metrics[-6:]]))
    report(
        "8b",
        tail < head,
        f"mean step size first 6 epochs {head:.4f} vs last 6 {tail:.4f}; "
        f"decay requires the loss term to shrink, which this dataset never allows",
    )


def test_criterion_08c_reaches_target_loss_earlier(tuned, seed_runs):
    wins = 0
    details = []
    for seed in (0, 1, 2):
        ours = seed_runs[seed]["dfw"].metrics
        theirs = seed_runs[seed]["sgd"].metrics
        target = theirs[-1].train_loss
        ours_at = next((m.epoch for m in ours if m.train_loss <= target), None)
        theirs_at = next(m.epoch for m in theirs if m.train_loss <= target)
        if ours_at is not None and ours_at < theirs_at:
            wins += 1
        details.append(f"seed {seed}: {ours_at} vs {theirs_at}")
    total_elapsed = tuned["elapsed"] + seed_runs["elapsed"]
    report(
        "8c",
        wins >= 2 and total_elapsed < 600.0,
        f"epochs to reach the SGD final train loss ({'; '.join(details)}): "
        f"{wins}/3 seeds earlier; benchmark wall time {total_elapsed:.0f}s (budget 600s)",
    )


def test_criterion_08_conditional_dfw_is_unscheduled_sgd_where_every_step_clips():
    # criterion 8's kind of data and network at a tenth of its size: the
    # step size is clipped at 1 on every step, so conditional-mode DFW takes
    # exactly the steps of SGD without a schedule (criterion 5 over a whole
    # run); this is the regime in which 8b and 8c fail
    data = generate_synthetic("blobs", 500, 100, 100, d=20, num_classes=10, noise=1.0, seed=0)
    base = RunConfig(
        dataset=data, eta=0.01, epochs=5, batch_size=64, model="mlp", hidden_dims=(64,), seed=0,
    )
    dfw = run_training(replace(base, optimizer="dfw", direction_mode="conditional"))
    sgd = run_training(replace(base, optimizer="sgd", lr_schedule="none"))
    shared = [f.name for f in fields(EpochMetrics)
              if f.name not in ("mean_gamma", "switch_fraction", "wall_time_s")]

    def table(result):
        return np.array([[getattr(m, name) for name in shared] for m in result.metrics], dtype=float)

    gammas = [m.mean_gamma for m in dfw.metrics]
    same_w = dfw.final_w.tobytes() == sgd.final_w.tobytes()
    same_metrics = table(dfw).tobytes() == table(sgd).tobytes()
    report(
        "8-identity",
        len(gammas) == 5 and all(g == 1.0 for g in gammas) and same_w and same_metrics,
        f"mean step size per epoch {gammas}; final weights {'equal' if same_w else 'DIFFER'} "
        f"and {', '.join(shared)} {'equal' if same_metrics else 'DIFFER'} bit for bit "
        f"against SGD without a schedule",
    )


def test_criterion_09_eta_sensitivity_plateau():
    data = generate_synthetic(
        "blobs", 1000, 200, 200, d=10, num_classes=5, noise=0.25, seed=0
    )
    base = RunConfig(
        dataset=data, optimizer="dfw", epochs=40, batch_size=32,
        model="mlp", hidden_dims=(32,), seed=0,
    )
    rows = sensitivity_sweep(base, ETA_GRID)
    good = [r.status == "ok" and r.final_train_acc >= 0.99 for r in rows]
    best_streak = streak = 0
    for flag in good:
        streak = streak + 1 if flag else 0
        best_streak = max(best_streak, streak)
    accs = ", ".join(f"{r.eta:g}: {r.final_train_acc:.3f}" for r in rows)
    report(
        "9",
        best_streak >= 3,
        f"train acc >= 0.99 across {best_streak} consecutive decades ({accs})",
    )


def test_criterion_09_step_size_anneals_where_the_model_fits():
    # criterion 9's data and config, where the MLP can fit the data: unlike
    # on the 8b benchmark set, the mean step size must fall over training
    data = generate_synthetic(
        "blobs", 1000, 200, 200, d=10, num_classes=5, noise=0.25, seed=0
    )
    base = RunConfig(
        dataset=data, optimizer="dfw", epochs=40, batch_size=32,
        model="mlp", hidden_dims=(32,), seed=0,
    )
    details, ok = [], []
    for eta in ETA_GRID:
        result = run_training(replace(base, eta=eta))
        if result.diverged:
            details.append(f"{eta:g}: diverged")
            continue
        gammas = [m.mean_gamma for m in result.metrics]
        first, last = np.mean(gammas[:6]), np.mean(gammas[-6:])
        ok.append(last < first)
        details.append(f"{eta:g}: {first:.3f} -> {last:.3f}")
    report(
        "9-anneal",
        bool(ok) and all(ok),
        f"mean step size over the first vs last 6 epochs ({', '.join(details)})",
    )


def test_criterion_10_metric_files_reproduce(tuned, tmp_path):
    config = _bench_config(tuned["dataset"], "dfw", tuned["best"]["dfw"])
    again = run_training(config)
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    emit_metrics(tuned["runs"]["dfw"][tuned["best"]["dfw"]].metrics, first)
    emit_metrics(again.metrics, second)

    def stable(path):
        return [",".join(l.split(",")[:-1]) for l in path.read_text().splitlines()]

    same = stable(first) == stable(second)
    report(
        "10",
        same,
        f"re-running the tuned configuration reproduces the metrics file "
        f"byte-for-byte outside the wall-time column ({len(stable(first)) - 1} rows)",
    )
