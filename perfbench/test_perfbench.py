"""Tests of the benchmark's own code: its declaration and tiny smoke runs.

No test asserts on a timing.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import floor  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def declared(trace):
    return {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def test_benchmark_json_schema():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

    assert 1 <= len(SPEC["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    for arg in SPEC["command"][1:]:
        if "/" in arg:
            assert any(arg.startswith(p + "/") for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60

    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}

    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")


def test_workload_layer_predictions_name_declared_metrics():
    layers = declared(trace=True)
    assert set(tracer.SPAN_FOR_LAYER) <= layers
    for w in workloads.WORKLOADS.values():
        assert set(w.moves) <= layers and set(w.flat) <= layers
        assert not set(w.moves) & set(w.flat)
        assert set(w.uses) <= set(tracer.SPAN_FOR_LAYER)


def _originals():
    found = [getattr(owner, attr) for _, owner, attr, _ in tracer.TARGETS]
    return found + [workloads.proximal.dual_direction_batch]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run(name, trace, tmp_path):
    before = _originals()
    record = workloads.run(name, seed=3, seconds=0.05, trace=trace, out_dir=tmp_path, tiny=True)
    assert _originals() == before, "a wrapper outlived the traced block"
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] >= 1
    assert set(record["metrics"]) == declared(trace)
    assert all(math.isfinite(v) for v in record["metrics"].values())
    assert record["environment"]["seed"] == 3
    if trace:
        assert (tmp_path / f"spans-{name}.tsv").is_file()
    else:
        assert all(record["metrics"][m["name"]] > 0 for m in SPEC["end_to_end"])
    # inputs written for the run are removed again
    assert not list(tmp_path.glob("*.libsvm")) and not list(tmp_path.glob("*.csv"))


def test_tracer_wraps_functions_where_callers_look_them_up():
    original = workloads.proximal.dual_direction_batch
    t = tracer.Tracer()
    with t.installed():
        assert workloads.proximal.dual_direction_batch is not original
        assert sys.modules["proxfw.losses"].dual_direction_batch is workloads.proximal.dual_direction_batch
    assert workloads.proximal.dual_direction_batch is original


def test_floor_mismatch_is_detected():
    rng = np.random.default_rng(0)
    dims = [(3, 4), (4, 5)]
    n_params = sum(a * b + b for a, b in dims)
    w = rng.standard_normal(n_params)
    X = rng.standard_normal((6, 3))
    y = rng.integers(0, 5, size=6)
    mask = np.ones(n_params, dtype=bool)
    out = floor.step(w, np.zeros(n_params), X, y, dims, mask, 0.1, 0.9, 1e-4)
    exact = (out.delta, out.loss_term, out.gamma, out.w, out.velocity)
    assert floor.mismatches(out, *exact) == []
    nudged = out.delta.copy()
    nudged[0] += 1e-9
    assert floor.mismatches(out, nudged, *exact[1:]) == ["delta"]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dfw_blobs", "--seed", "0", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
