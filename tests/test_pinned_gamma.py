"""Pinned DFW outputs where the step size is not clipped at 1.

At gamma = 1 the two step vectors of ``dfw_step`` (the velocity's
``eta*gamma*(r + delta)`` and the point's ``eta*(r + gamma*delta)``) are
equal, and every step of the runs in ``test_pinned_outputs.py`` has
gamma = 1. These runs sit in a cell where most steps have gamma = 0 and a
few have 0 < gamma < 1, so a change that mixes up the two steps, or
rounds either one differently, moves their hashes.

Data ``generate_synthetic("blobs", 400, 100, 100, d=10, num_classes=5,
noise=0.25, seed=0)``; each run is DFW with ``RunConfig(epochs=6,
batch_size=32, hidden_dims=(16,), seed=3)``, the default l2 and momentum,
at eta 0.1 and 1 in both direction modes. The hashes are those of
``test_pinned_outputs.py``: the metrics CSV without its ``wall_time_s``
field and ``final_w.tobytes()``, SHA-256, first 16 hex digits.

Recorded with numpy 2.4.6 on scipy-openblas 0.3.31 (Python 3.11, x86-64).
"""

import pytest
from test_pinned_outputs import _run_hashes

from proxfw import generate_synthetic, optimizers

# (eta, direction mode) -> (metrics hash, weights hash)
GAMMA_RUNS = {
    (0.1, "smoothed"): ("de37b3e817841d12", "2d0f4bde9d1447ad"),
    (0.1, "conditional"): ("c29a4505771cd5eb", "1a998d73c0ab846a"),
    (1.0, "smoothed"): ("200a25bb29b89d8f", "9f5d0c9e1d19e081"),
    (1.0, "conditional"): ("d3107c44f2bbdac5", "ff852aae59b03fac"),
}


@pytest.fixture(scope="module")
def data():
    return generate_synthetic("blobs", 400, 100, 100, d=10, num_classes=5, noise=0.25, seed=0)


@pytest.mark.parametrize("eta, mode", list(GAMMA_RUNS))
def test_pinned_runs_with_step_sizes_below_one(data, eta, mode, tmp_path, monkeypatch):
    gammas = []
    step = optimizers.dfw_step

    def recording_step(state, batch, model):
        new_state, diag = step(state, batch, model)
        gammas.append(diag.step_size)
        return new_state, diag

    monkeypatch.setattr(optimizers, "dfw_step", recording_step)
    got = _run_hashes(
        data, ("dfw", "svm", eta, mode), tmp_path, epochs=6, batch_size=32, hidden_dims=(16,), seed=3
    )
    assert len(gammas) == 78
    assert 0.0 in gammas, "no step with gamma = 0"
    assert any(0.0 < g < 1.0 for g in gammas), "no step with 0 < gamma < 1"
    assert got == GAMMA_RUNS[eta, mode]
