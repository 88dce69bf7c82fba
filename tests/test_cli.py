import argparse
from dataclasses import fields

import numpy as np
import pytest

from proxfw.bench import METRICS_HEADER, SWEEP_HEADER, RunConfig
from proxfw.cli import _add_common, main


BASE = [
    "--n-train", "60", "--n-val", "20", "--n-test", "20",
    "--dim", "4", "--classes", "4", "--batch-size", "16",
    "--hidden", "8", "--epochs", "3",
]


def test_train_writes_metrics_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["train", "--dataset", "blobs", *BASE, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 4
    assert "train_acc=" in capsys.readouterr().out


def test_train_on_csv_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(60):
        x = rng.normal(size=2)
        label = int(x[0] + 0.3 * rng.normal() > 0)
        rows.append(f"{x[0]},{x[1]},{label}")
    data = tmp_path / "points.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "m.csv"
    code = main([
        "train", "--dataset", str(data), "--data-format", "csv",
        "--model", "linear", "--epochs", "2", "--batch-size", "8",
        "--val-fraction", "0.2", "--test-fraction", "0.2", "--out", str(out),
    ])
    assert code == 0
    assert out.exists()


def test_missing_dataset_file_exits_nonzero(tmp_path, capsys):
    code = main(["train", "--dataset", str(tmp_path / "absent.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_dataset_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,0\n1.0,oops,1\n")
    code = main(["train", "--dataset", str(bad), "--model", "linear"])
    assert code == 1
    assert "line 2" in capsys.readouterr().err
    bad.write_text("1.0,2.0,0\n1.0,nan,1\n")
    code = main(["train", "--dataset", str(bad), "--model", "linear"])
    assert code == 1
    assert "line 2: non-finite" in capsys.readouterr().err
    bad.write_bytes(b"1.0,2.0,0\n1.0,\xff,1\n")
    code = main(["train", "--dataset", str(bad), "--model", "linear"])
    assert code == 1
    assert "line 2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


def test_sweep_writes_table(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--dataset", "blobs", *BASE,
        "--eta-grid", "0.01,0.1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--hidden", "0"], "hidden layer widths must be positive"),
        (["--batch-size", "0"], "need batch_size >= 1"),
        (["--optimizer", "dfw", "--loss", "ce"], "the dfw optimizer trains the svm loss only"),
        (["--momentum", "1.5"], "momentum must lie in [0, 1)"),
    ],
    ids=["hidden-0", "batch-size-0", "dfw-with-ce", "momentum-1.5"],
)
def test_a_bad_shared_sweep_setting_exits_1_and_writes_no_csv(flags, reason, tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--dataset", "blobs", *BASE, *flags, "--eta-grid", "0.01,0.1",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {reason}")
    assert not out.exists()


def test_divergent_run_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "m.csv"
    with np.errstate(all="ignore"):
        code = main([
            "train", "--dataset", "blobs", *BASE, "--epochs", "12",
            "--optimizer", "sgd", "--eta", "1e6", "--lr-schedule", "none",
            "--out", str(out),
        ])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
    assert out.exists()


def test_lr_alias_and_schedule_parsing(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main([
        "train", "--dataset", "blobs", *BASE, "--optimizer", "sgd",
        "--lr", "0.05", "--lr-schedule", "1:0.5,2:0.5", "--out", str(out),
    ])
    assert code == 0
    assert "eta=0.05" in capsys.readouterr().out


def test_bad_flag_value_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["train", "--optimizer", "newton"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["train", "--lr-schedule", "3-0.2"])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("proxfw ")


def test_incompatible_loss_for_dfw_exits_nonzero(capsys):
    code = main(["train", "--dataset", "blobs", *BASE, "--loss", "ce"])
    assert code == 1
    assert "svm" in capsys.readouterr().err


def test_non_finite_eta_is_rejected_not_diverged(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["train", "--dataset", "blobs", *BASE, "--eta", "nan", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eta must be finite") and "diverged" not in err
    assert not out.exists()


def test_non_finite_noise_is_rejected_not_diverged(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["train", "--dataset", "blobs", *BASE, "--noise", "nan", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: noise must be finite") and "diverged" not in err
    assert not out.exists()


@pytest.mark.parametrize("optimizer", ["dfw", "sgd"])
def test_non_finite_schedule_is_rejected_for_every_optimizer(optimizer, tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["train", "--dataset", "blobs", *BASE, "--optimizer", optimizer,
                 "--lr-schedule", "1:nan", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lr schedule multiplier must be finite and positive")
    assert not out.exists()


def test_every_run_config_field_has_a_flag_with_its_default():
    parser = argparse.ArgumentParser()
    _add_common(parser)
    args = parser.parse_args([])
    for f in fields(RunConfig):
        if f.name != "dataset":
            assert getattr(args, f.name) == f.default, f.name
