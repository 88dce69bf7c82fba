"""Pinned outputs: fixed configurations must keep producing the same bytes.

A change that only restructures how numbers are computed (tape replay,
chunked evaluation, shared helpers) must leave every metric and every
trained weight exactly as it was. This test pins them by hash.

Training runs. Data ``generate_synthetic("blobs", 400, 100, 100, d=8,
num_classes=5, noise=1.0, seed=0)``; each run uses ``RunConfig(epochs=6,
batch_size=32, hidden_dims=(16,), seed=3)`` with eta 0.1 for dfw (smoothed
and conditional directions), 0.05 for sgd and 0.01 for adagrad, adam and
amsgrad, each baseline on the svm and the ce loss. Two more runs have a
train split larger than ``bench.EVAL_CHUNK_ROWS`` and not a multiple of
it: data ``generate_synthetic("blobs", 1300, 700, 0, d=8, num_classes=5,
noise=1.0, seed=1)``, ``RunConfig(epochs=3, batch_size=64,
hidden_dims=(16,), seed=3)``, dfw/svm at eta 0.1 and adam/ce at eta 0.01.

Metrics hash: SHA-256 of the metrics CSV with the last field
(``wall_time_s``) cut from every line, lines joined by ``\\n`` with a
trailing ``\\n``; first 16 hex digits. Weights hash: SHA-256 of
``final_w.tobytes()``, first 16 hex digits.

Solver run. ``proximal_fw_solve`` on the MLP 8-16-5 from
``init_params(1)``, over 8 batches of 64 train rows of the 400-row data,
each drawn by ``rng.choice(400, 64, replace=False)`` from one
``default_rng(42)``. Batch ``i`` uses the conditional mode for even ``i``
and the smoothed mode for odd ``i``, l2 1e-3 on batches 2, 3, 6 and 7 and
0 on the others, eta 0.1, 200 iterations, ``gap_tol=0``. Hash: SHA-256
over the float64 bytes of ``w``, ``dual_objectives``, ``gaps`` and
``step_sizes`` of every solve, in that order.

Recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (Python 3.11, x86-64).
Another numpy or BLAS build may round differently; if only this test
fails after such an upgrade, re-record the hashes on an unchanged tree.
"""

import hashlib

import numpy as np

from proxfw import RunConfig, generate_synthetic, run_training
from proxfw.bench import emit_metrics
from proxfw.models import ModelSpec
from proxfw.proximal import proximal_fw_solve

# (optimizer, loss, eta, direction mode) -> (metrics hash, weights hash)
SMALL_RUNS = {
    ("dfw", "svm", 0.1, "smoothed"): ("01ba22ebcabd2e4c", "2e3aa97a0185126b"),
    ("dfw", "svm", 0.1, "conditional"): ("9598030395aed43f", "6988d29c7fb77d8f"),
    ("sgd", "svm", 0.05, "auto"): ("8552d284a9034a17", "ddc7c0f44fd22cb9"),
    ("sgd", "ce", 0.05, "auto"): ("d8ff1d1feca30151", "e7f3d9ddc0d585ef"),
    ("adagrad", "svm", 0.01, "auto"): ("ec9bf061f62c7d7b", "5a662360114b8ffd"),
    ("adagrad", "ce", 0.01, "auto"): ("269c5990efbcba8e", "fd48dddfd1e1c268"),
    ("adam", "svm", 0.01, "auto"): ("04d5dd77dd505624", "667feb1473273373"),
    ("adam", "ce", 0.01, "auto"): ("6efd0c3bb4efa27b", "44d4bce72cfa49a9"),
    ("amsgrad", "svm", 0.01, "auto"): ("e6e711432d672862", "71a4e4e1e94dc7e8"),
    ("amsgrad", "ce", 0.01, "auto"): ("452a708287b6c8ba", "a2fa1a38da369281"),
}
LARGE_RUNS = {
    ("dfw", "svm", 0.1, "auto"): ("6ad4604b11f1c339", "942070723e260b0c"),
    ("adam", "ce", 0.01, "auto"): ("a216b338872cff2a", "79bbbc67f237921b"),
}
SOLVER_HASH = "0453954755bf91d7e0ff27a94f0b42b8904e77fa12712502bd407d66a92de15f"


def _run_hashes(data, settings, tmp_path, **shape):
    optimizer, loss, eta, mode = settings
    config = RunConfig(
        dataset=data, optimizer=optimizer, loss=loss, eta=eta, direction_mode=mode, **shape
    )
    result = run_training(config)
    path = tmp_path / "metrics.csv"
    emit_metrics(result.metrics, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    return (
        hashlib.sha256(body.encode()).hexdigest()[:16],
        hashlib.sha256(result.final_w.tobytes()).hexdigest()[:16],
    )


def test_pinned_metrics_weights_and_solver_outputs(tmp_path):
    small = generate_synthetic("blobs", 400, 100, 100, d=8, num_classes=5, noise=1.0, seed=0)
    large = generate_synthetic("blobs", 1300, 700, 0, d=8, num_classes=5, noise=1.0, seed=1)
    got = {}
    for settings in SMALL_RUNS:
        got[settings] = _run_hashes(
            small, settings, tmp_path, epochs=6, batch_size=32, hidden_dims=(16,), seed=3
        )
    assert got == SMALL_RUNS
    got = {}
    for settings in LARGE_RUNS:
        got[settings] = _run_hashes(
            large, settings, tmp_path, epochs=3, batch_size=64, hidden_dims=(16,), seed=3
        )
    assert got == LARGE_RUNS

    model = ModelSpec("mlp", 8, 5, (16,))
    w0 = model.init_params(1)
    rng = np.random.default_rng(42)
    digest = hashlib.sha256()
    for i in range(8):
        idx = rng.choice(400, 64, replace=False)
        w, diag = proximal_fw_solve(
            w0,
            (small.train.X[idx], small.train.y[idx]),
            model,
            eta=0.1,
            max_iters=200,
            gap_tol=0.0,
            mode="conditional" if i % 2 == 0 else "smoothed",
            l2=1e-3 if i in (2, 3, 6, 7) else 0.0,
        )
        for part in (w, diag.dual_objectives, diag.gaps, diag.step_sizes):
            digest.update(np.asarray(part, dtype=float).tobytes())
    assert digest.hexdigest() == SOLVER_HASH
