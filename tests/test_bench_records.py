"""Layout of every committed ``BENCH_<n>.json`` (no timing is asserted)."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_at_least_one_record_is_committed():
    assert RECORDS
    assert all(re.fullmatch(r"BENCH_\d+\.json", path.name) for path in RECORDS)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_layout(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    _tool().check_record(record)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "untraced": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "traced": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert set(record["workloads"]) <= {w["name"] for w in spec["workloads"]}
    for blocks in record["workloads"].values():
        for kind, block in blocks.items():
            for side in block["sides"].values():
                units = {name: m["unit"] for name, m in side["metrics"].items()}
                assert units == declared[kind]
                for run in side["runs"]:
                    assert {"numpy", "blas", "nproc"} <= set(run["environment"])


def test_seed_lists_parse_as_written():
    tool = _tool()
    assert tool.parse_seeds("600-603,7") == [600, 601, 602, 603, 7]
    assert tool.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
