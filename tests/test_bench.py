import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import proxfw.bench as bench_module
import proxfw.models as models_module
import proxfw.optimizers as optimizers
from proxfw.autodiff import Tape
from proxfw.bench import (
    EVAL_CHUNK_ROWS,
    METRICS_HEADER,
    SWEEP_HEADER,
    EpochMetrics,
    RunConfig,
    emit_metrics,
    emit_sweep,
    evaluate,
    run_training,
    sensitivity_sweep,
)
from proxfw.data import Dataset, SplitDataset, generate_synthetic
from proxfw.losses import cross_entropy_batch, hinge_loss_batch
from proxfw.models import ModelSpec


def small_blobs(noise=1.0, num_classes=4, seed=0):
    return generate_synthetic("blobs", 80, 20, 20, d=4, num_classes=num_classes, noise=noise, seed=seed)


def test_metrics_header_is_frozen():
    assert METRICS_HEADER == "epoch,train_loss,train_acc,val_acc,mean_gamma,switch_fraction,wall_time_s"
    assert SWEEP_HEADER == "eta,best_val_acc,final_train_acc,final_train_loss,status"


def test_emit_metrics_single_record(tmp_path):
    m = EpochMetrics(
        epoch=0, train_loss=0.123456789, train_acc=0.975, val_acc=0.9,
        mean_gamma=0.25, switch_fraction=0.0625, wall_time_s=0.01,
    )
    out = tmp_path / "m.csv"
    emit_metrics([m], out)
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == METRICS_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "0"
    # six significant digits, round-trip exact at that precision
    assert fields[1] == "0.123457"
    assert float(fields[1]) == float(f"{0.123456789:.6g}")
    assert fields[2] == "0.975" and fields[3] == "0.9"
    assert fields[4] == "0.25" and fields[5] == "0.0625"


def test_emit_metrics_blank_columns_for_baselines(tmp_path):
    m = EpochMetrics(
        epoch=3, train_loss=1.0, train_acc=0.5, val_acc=0.4,
        mean_gamma=None, switch_fraction=None, wall_time_s=0.5,
    )
    out = tmp_path / "m.csv"
    emit_metrics([m], out)
    row = out.read_text().splitlines()[1]
    assert row.split(",")[4] == ""
    assert row.split(",")[5] == ""


def test_dfw_separable_blobs_reaches_full_train_accuracy():
    data = generate_synthetic("blobs", 100, 20, 20, d=3, num_classes=2, noise=0.0, seed=1)
    config = RunConfig(dataset=data, optimizer="dfw", eta=0.1, model="linear",
                       epochs=20, batch_size=16)
    result = run_training(config)
    assert not result.diverged
    assert len(result.metrics) == 20
    assert result.metrics[-1].train_acc == 1.0
    for m in result.metrics:
        assert 0.0 <= m.mean_gamma <= 1.0
        assert 0.0 <= m.train_acc <= 1.0 and 0.0 <= m.val_acc <= 1.0


def test_identical_configs_reproduce_bitwise(tmp_path):
    config = RunConfig(dataset=small_blobs(), optimizer="dfw", eta=0.05,
                       epochs=4, batch_size=16, hidden_dims=(8,), seed=3)
    a = run_training(config)
    b = run_training(config)
    assert np.array_equal(a.final_w, b.final_w)
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma.train_loss == mb.train_loss
        assert ma.train_acc == mb.train_acc
        assert ma.val_acc == mb.val_acc
        assert ma.mean_gamma == mb.mean_gamma
        assert ma.switch_fraction == mb.switch_fraction
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_metrics(a.metrics, pa)
    emit_metrics(b.metrics, pb)
    strip = lambda p: ["," .join(l.split(",")[:-1]) for l in p.read_text().splitlines()]
    assert strip(pa) == strip(pb)


def test_optimizers_share_epoch_shuffles(monkeypatch):
    seen = {"dfw": [], "sgd": []}
    real_dfw = optimizers.dfw_step
    real_sgd = optimizers.sgd_nesterov_step

    def spy_dfw(state, batch, model):
        seen["dfw"].append(np.array(batch[1]))
        return real_dfw(state, batch, model)

    def spy_sgd(state, batch, model):
        seen["sgd"].append(np.array(batch[1]))
        return real_sgd(state, batch, model)

    monkeypatch.setattr(optimizers, "dfw_step", spy_dfw)
    monkeypatch.setattr(optimizers, "sgd_nesterov_step", spy_sgd)
    data = small_blobs()
    for opt in ("dfw", "sgd"):
        config = RunConfig(dataset=data, optimizer=opt, eta=0.05, epochs=2,
                           batch_size=16, hidden_dims=(8,), seed=9)
        run_training(config)
    assert len(seen["dfw"]) == len(seen["sgd"]) > 0
    for ya, yb in zip(seen["dfw"], seen["sgd"]):
        assert np.array_equal(ya, yb)


def test_baseline_metrics_leave_step_columns_empty():
    config = RunConfig(dataset=small_blobs(), optimizer="adam", eta=0.01,
                       epochs=2, batch_size=16, hidden_dims=(8,), loss="ce")
    result = run_training(config)
    assert not result.diverged
    for m in result.metrics:
        assert m.mean_gamma is None
        assert m.switch_fraction is None


def test_divergent_run_aborts_but_keeps_completed_epochs():
    config = RunConfig(dataset=small_blobs(), optimizer="sgd", eta=1e6,
                       model="mlp", hidden_dims=(8,), epochs=12,
                       batch_size=16, lr_schedule="none")
    with np.errstate(all="ignore"):
        result = run_training(config)
    assert result.diverged
    assert 0 < len(result.metrics) < 12
    for m in result.metrics:
        assert np.isfinite(m.train_loss)


def test_sweep_dedups_grid_and_records_failures():
    data = small_blobs()
    base = RunConfig(dataset=data, optimizer="dfw", epochs=2, batch_size=16,
                     hidden_dims=(8,))
    rows = sensitivity_sweep(base, [0.1, 0.1, -1.0, 0.01])
    assert [r.eta for r in rows] == [0.1, -1.0, 0.01]
    by_eta = {r.eta: r for r in rows}
    assert by_eta[0.1].status == "ok"
    assert by_eta[0.01].status == "ok"
    assert by_eta[-1.0].status == "error"
    assert np.isnan(by_eta[-1.0].best_val_acc)


def test_sweep_default_grid_shape():
    base = RunConfig(dataset=small_blobs(), optimizer="dfw", epochs=2,
                     batch_size=16, hidden_dims=(8,))
    rows = sensitivity_sweep(base, (1e-3, 1e-2, 1e-1, 1.0))
    assert len(rows) == 4
    assert all(r.status == "ok" for r in rows)


def test_emit_sweep_format(tmp_path):
    base = RunConfig(dataset=small_blobs(), optimizer="dfw", epochs=2,
                     batch_size=16, hidden_dims=(8,))
    rows = sensitivity_sweep(base, [0.1, -1.0])
    out = tmp_path / "s.csv"
    emit_sweep(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert lines[2].startswith("-1,nan,nan,nan,error")


def test_run_config_validation():
    data = small_blobs()
    with pytest.raises(ValueError):
        run_training(RunConfig(dataset=data, optimizer="dfw", loss="ce"))
    with pytest.raises(ValueError):
        run_training(RunConfig(dataset=data, optimizer="lbfgs"))
    with pytest.raises(ValueError):
        run_training(RunConfig(dataset=data, eta=0.0))
    with pytest.raises(ValueError):
        run_training(RunConfig(dataset=data, direction_mode="stochastic"))
    with pytest.raises(ValueError):
        run_training(RunConfig(dataset=data, model="cnn"))
    for eta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            run_training(RunConfig(dataset=data, eta=eta))
    no_val = generate_synthetic("blobs", 40, 0, 10, d=4, num_classes=4, noise=1.0, seed=0)
    with pytest.raises(ValueError, match="the val split is empty"):
        run_training(RunConfig(dataset=no_val))
    no_train = SplitDataset(Dataset(np.zeros((0, 4)), np.zeros(0)), data.val, data.test)
    with pytest.raises(ValueError, match="the train split is empty"):
        run_training(RunConfig(dataset=no_train))
    rows = sensitivity_sweep(RunConfig(dataset=data, epochs=1), [float("nan")])
    assert rows[0].status == "error"
    for optimizer in ("dfw", "sgd"):
        config = RunConfig(dataset=data, optimizer=optimizer, lr_schedule=((1, float("nan")),))
        with pytest.raises(ValueError, match="lr schedule multiplier must be finite and positive"):
            run_training(config)
    # a schedule string from Python reads as the --lr-schedule flag does
    config = RunConfig(dataset=data, optimizer="sgd", epochs=4, lr_schedule="3:0.5")
    assert config.resolved_schedule() == ((3, 0.5),)
    as_pairs = replace(config, lr_schedule=((3, 0.5),))
    assert run_training(config).final_w.tobytes() == run_training(as_pairs).final_w.tobytes()
    for text in ("3-0.5", "3:half", "3:0.5,"):
        with pytest.raises(ValueError, match=f"bad lr schedule entry .* in {text!r}"):
            run_training(replace(config, lr_schedule=text))



@pytest.mark.parametrize("field, value", [("epochs", 2.5), ("batch_size", 16.5)])
def test_counts_that_are_not_whole_numbers_are_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a whole number, got {value!r}")):
        RunConfig(dataset=small_blobs(), **{field: value})


def test_whole_number_counts_of_any_type_train_the_same_run():
    counts = ((2, 16), (2.0, 16.0), (np.int64(2), np.float64(16.0)))
    configs = [RunConfig(dataset=small_blobs(), epochs=e, batch_size=b) for e, b in counts]
    assert all(type(c.epochs) is int and type(c.batch_size) is int for c in configs)
    runs = [run_training(config) for config in configs]
    for run in runs[1:]:
        assert np.array_equal(run.final_w, runs[0].final_w)

def test_sweep_checks_its_shared_settings_once_before_the_grid(monkeypatch):
    data = small_blobs()
    trained = []
    monkeypatch.setattr(bench_module, "run_training", lambda config: trained.append(config))
    with pytest.raises(ValueError, match="hidden layer widths must be positive"):
        sensitivity_sweep(RunConfig(dataset=data, epochs=1, hidden_dims=(0,)), [0.01, 0.1])
    with pytest.raises(ValueError, match="momentum must lie in"):
        sensitivity_sweep(RunConfig(dataset=data, epochs=1, momentum=1.5, eta=-1.0), [0.1])
    assert trained == []


def test_sweep_replaces_an_invalid_base_eta():
    base = RunConfig(dataset=small_blobs(), epochs=1, hidden_dims=(8,), eta=-1.0)
    rows = sensitivity_sweep(base, [0.1, float("inf")])
    assert [r.status for r in rows] == ["ok", "error"]
    assert rows[0].final_train_acc == run_training(replace(base, eta=0.1)).metrics[-1].train_acc


@pytest.mark.parametrize("loss", ["cross_entropy", "hinge", ""])
def test_evaluate_rejects_an_unknown_loss(loss):
    data = small_blobs()
    model = ModelSpec("mlp", data.dim, data.num_classes, (8,))
    with pytest.raises(ValueError, match=f"loss must be one of .*, got {loss!r}"):
        evaluate(model, model.init_params(0), data.train, loss=loss)


def test_runs_of_one_architecture_record_the_program_once(monkeypatch):
    recorded = []

    class CountingTape(Tape):
        # replays build their tapes through autodiff's own name, so only
        # the tapes that models.py records are counted
        def __init__(self, num_params):
            recorded.append(num_params)
            super().__init__(num_params)

    monkeypatch.setattr(models_module, "Tape", CountingTape)
    models_module._program_and_mask.cache_clear()
    data = small_blobs()
    for optimizer in ("dfw", "adam"):
        run_training(RunConfig(dataset=data, optimizer=optimizer, epochs=1, hidden_dims=(7, 3)))
    assert len(recorded) == 1


@pytest.mark.parametrize(
    "hidden, message",
    [
        ("64", "hidden_dims must be a sequence of widths, got '64'"),
        ((8.9,), "hidden_dims must be whole numbers, got 8.9"),
        ((8, 2.5), "hidden_dims must be whole numbers, got 2.5"),
    ],
)
def test_widths_that_are_not_whole_numbers_stop_a_run_before_any_step(monkeypatch, hidden, message):
    def step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(optimizers, "dfw_step", step)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_training(RunConfig(dataset=small_blobs(), epochs=1, hidden_dims=hidden))


def test_integer_widths_of_any_type_train_the_same_network():
    runs = [
        run_training(RunConfig(dataset=small_blobs(), epochs=1, hidden_dims=hidden))
        for hidden in ((8,), (np.int64(8),), [8])
    ]
    assert runs[0].final_w.shape == (4 * 8 + 8 + 8 * 4 + 4,)
    for run in runs[1:]:
        assert np.array_equal(run.final_w, runs[0].final_w)


@pytest.mark.parametrize("loss", ["svm", "ce"])
def test_chunked_evaluate_matches_one_forward_pass(loss):
    # 1300 rows: more than one chunk, and not a multiple of the chunk size
    assert 1300 > EVAL_CHUNK_ROWS and 1300 % EVAL_CHUNK_ROWS
    data = generate_synthetic("blobs", 1300, 0, 0, d=6, num_classes=5, noise=1.0, seed=2).train
    model = ModelSpec("mlp", 6, 5, (12,))
    w = model.init_params(4)
    F, _ = model.batch_scores(w, data.X)
    per_row = cross_entropy_batch if loss == "ce" else hinge_loss_batch
    value, acc = evaluate(model, w, data, loss)
    assert abs(value - per_row(F, data.y).mean()) <= 1e-12
    assert acc == (F.argmax(axis=1) == data.y).mean()
    with pytest.raises(ValueError, match="empty split"):
        evaluate(model, w, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int)), loss)


def test_direction_mode_resolution():
    data3 = generate_synthetic("blobs", 40, 10, 0, d=3, num_classes=3, noise=1.0, seed=0)
    data4 = small_blobs()
    assert RunConfig(dataset=data3).resolved_mode(3) == "conditional"
    assert RunConfig(dataset=data4).resolved_mode(4) == "smoothed"
    assert RunConfig(dataset=data4, direction_mode="conditional").resolved_mode(4) == "conditional"


DETERMINISM_RUN = """
import sys
from proxfw import RunConfig, emit_metrics, generate_synthetic, run_training
data = generate_synthetic("blobs", 1024, 256, 0, d=32, num_classes=10, noise=1.0, seed=0)
for optimizer, loss, eta in (("dfw", "svm", 0.1), ("adam", "ce", 0.01)):
    config = RunConfig(dataset=data, optimizer=optimizer, loss=loss, eta=eta,
                       epochs=2, batch_size=256, hidden_dims=(128,), seed=5)
    result = run_training(config)
    emit_metrics(result.metrics, sys.argv[1] + "_" + optimizer + ".csv")
    result.final_w.tofile(sys.argv[1] + "_" + optimizer + ".w")
"""


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        prefix = tmp_path / f"threads_{threads}"
        subprocess.run(
            [sys.executable, "-c", DETERMINISM_RUN, str(prefix)], env=env, check=True, timeout=120
        )
        files = {}
        for optimizer in ("dfw", "adam"):
            csv = Path(f"{prefix}_{optimizer}.csv").read_text().splitlines()
            files[optimizer] = (
                [line.rsplit(",", 1)[0] for line in csv],  # drop wall_time_s
                Path(f"{prefix}_{optimizer}.w").read_bytes(),
            )
        outputs.append(files)
    assert len(outputs[0]["dfw"][0]) == len(outputs[0]["adam"][0]) == 3
    assert outputs[0] == outputs[1]
