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


def _block(**sides):
    # a recorded block reduced to what reference_report reads
    return {"sides": {name: {"runs": [{"counts": {"reference_s": ms / 1e3}} for ms in refs]}
                      for name, refs in sides.items()}}


@pytest.mark.parametrize(
    "parent, change, warned",
    [
        ([6.9, 7.6, 5.9], [5.8, 5.5, 5.6], True),  # ranges apart
        ([6.6, 6.1, 7.3], [5.1, 4.2, 6.2], True),  # ranges overlap, medians outside them
        ([6.9, 7.6, 5.9], [6.9, 6.3, 7.3], False),  # one mode on both sides
        ([6.9, 7.6, 6.2], [6.2, 5.5, 5.6], True),  # ranges share one point
    ],
)
def test_reference_medians_outside_the_other_range_are_warned_about(parent, change, warned):
    line, warning = _tool().reference_report("dfw_blobs", _block(parent=parent, change=change))
    shown = ", ".join(
        f"{name} {sorted(ms)[1]:.2f} [{min(ms):.2f}-{max(ms):.2f}]"
        for name, ms in (("parent", parent), ("change", change))
    )
    assert line == f"dfw_blobs reference_s ms, median [range]: {shown}"
    assert (warning is not None) == warned
    if warned:
        assert warning.startswith(f"warning: dfw_blobs: a side's reference_s median lies outside another side's range ({shown} ms)")


def test_the_record_tool_prints_reference_ranges_and_warns_on_stderr(monkeypatch, tmp_path, capsys):
    tool = _tool()
    refs = {"parent": iter([6.6, 6.1, 7.3]), "change": iter([5.1, 4.2, 6.2])}

    def run_once(checkout, workload, seed, seconds, trace):
        side = Path(checkout).name
        return {"seed": seed, "attempted": 1, "failed": 0, "metrics": {"m": 1.0}, "units": {"m": "1"},
                "environment": {}, "counts": {"reference_s": next(refs[side]) / 1e3}}

    def copy_side(spec, dest):
        name, _, _ = spec.partition("=")
        return name, tmp_path, tmp_path / name

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "_copy_side", copy_side)
    monkeypatch.setattr(tool, "describe_side", lambda checkout: {})
    monkeypatch.setattr(tool, "check_record", lambda record: None)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "dfw_blobs"}], "end_to_end": []})
    )
    tool.main(["--out", str(tmp_path / "BENCH_0.json"), "--side", "parent=.", "--side", "change=.", "--seeds", "1-3"])
    out, err = capsys.readouterr()
    assert "dfw_blobs reference_s ms, median [range]: parent 6.60 [6.10-7.30], change 5.10 [4.20-6.20]" in out
    assert "warning: dfw_blobs: a side's reference_s median lies outside" in err


def test_the_rate_line_gives_each_sides_median_raw_items_per_s():
    def runs(*rates):
        return {"runs": [{"counts": {"reference_s": 0.005, "items_per_s": r}} for r in rates]}

    block = {"sides": {"parent": runs(170000.0, 181500.4, 165000.0), "change": runs(5492.0, 4382.0),
                       "old": {"runs": [{"counts": {"reference_s": 0.005}}]}}}
    line = _tool().rate_report("dfw_blobs", block)
    assert line == "dfw_blobs items_per_s, median: parent 170,000, change 4,937, old n/a"


def test_the_pair_line_counts_seed_wins_and_objective_mismatches_are_warned_about():
    def side(*pairs):
        return {"runs": [{"metrics": {"items_per_ref": r, "final_objective": f}} for r, f in pairs]}

    block = {
        "seeds": [1, 2, 3, 4],
        "sides": {
            "parent": side((21.0, 1.5), (22.0, 1.25), (20.0, 1.0), (23.0, 0.5)),
            "change": side((25.0, 1.5), (22.0, 1.25), (26.0, 1.0), (21.0, 0.5)),  # one tie, one loss
            "other": side((20.0, 1.5), (23.0, 1.3), (21.0, 1.0), (24.0, 0.75)),
        },
    }
    metrics = [{"name": "items_per_ref", "better": "higher"}]
    lines, warnings = _tool().pair_report("solver_certify", block, metrics)
    # parent quartiles 20.75, 21.5, 22.25: IQR 1.5 is 7.0% of 21.5; the
    # medians 23.5 and 22 are 9.3% and 2.3% above it
    assert lines == [
        "solver_certify items_per_ref seeds won against parent: "
        "change 2/4 (median +9.3%, parent IQR 7.0%), other 3/4 (median +2.3%, parent IQR 7.0%)"
    ]
    assert warnings == ["warning: solver_certify: final_objective differs from parent's: other on seed 2, 4"]
    del block["sides"]["other"]
    assert _tool().pair_report("solver_certify", block, metrics)[1] == []


def test_the_pair_lines_count_wins_for_every_end_to_end_metric_in_its_better_direction():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    def side(*runs):
        return {"runs": [{"metrics": {"items_per_ref": r, "peak_rss_mb": mb}} for r, mb in runs]}

    block = {
        "seeds": [1, 2, 3],
        "sides": {
            "parent": side((200.0, 85.0), (210.0, 86.0), (205.0, 84.0)),
            "change": side((199.0, 76.0), (211.0, 86.0), (204.0, 75.0)),  # lower rss twice, one tie
        },
    }
    lines, warnings = _tool().pair_report("adam_wide_libsvm", block, declared)
    # items_per_ref 205 -> 204, parent IQR 5 of 205; peak_rss_mb 85 -> 76, parent IQR 1 of 85
    won = {
        "items_per_ref": "1/3 (median -0.5%, parent IQR 2.4%)",
        "peak_rss_mb": "2/3 (median -10.6%, parent IQR 1.2%)",
    }
    assert lines == [
        f"adam_wide_libsvm {m['name']} seeds won against parent: change {won.get(m['name'], 'n/a')}"
        for m in declared
    ]
    assert warnings == []


def test_the_record_tool_prints_seed_wins_and_warns_on_differing_objectives(monkeypatch, tmp_path, capsys):
    tool = _tool()
    rates = {"parent": iter([20.0, 21.0, 22.0]), "change": iter([25.0, 21.0, 26.0])}

    def run_once(checkout, workload, seed, seconds, trace):
        side = Path(checkout).name
        metrics = {"items_per_ref": next(rates[side]), "final_objective": 1.0 + (side == "change" and seed == 3)}
        return {"seed": seed, "attempted": 1, "failed": 0, "metrics": metrics,
                "units": {m: "1" for m in metrics}, "environment": {}, "counts": {"reference_s": 0.005}}

    def copy_side(spec, dest):
        name, _, _ = spec.partition("=")
        return name, tmp_path, tmp_path / name

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "_copy_side", copy_side)
    monkeypatch.setattr(tool, "describe_side", lambda checkout: {})
    monkeypatch.setattr(tool, "check_record", lambda record: None)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    declared = [{"name": "items_per_ref", "better": "higher"}, {"name": "final_objective", "better": "lower"}]
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "solver_certify"}], "end_to_end": declared})
    )
    tool.main(["--out", str(tmp_path / "BENCH_0.json"), "--side", "parent=.", "--side", "change=.", "--seeds", "1-3"])
    out, err = capsys.readouterr()
    # items_per_ref 21 -> 25, parent IQR 1 of 21; final_objective medians are both 1
    assert "solver_certify items_per_ref seeds won against parent: change 2/3 (median +19.0%, parent IQR 4.8%)" in out
    assert "solver_certify final_objective seeds won against parent: change 0/3 (median +0.0%, parent IQR 0.0%)" in out
    assert "warning: solver_certify: final_objective differs from parent's: change on seed 3" in err


def test_a_median_worse_than_the_first_sides_beyond_its_bound_is_warned_about():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert {m["name"]: m["bound"] for m in declared}["items_per_ref"] == 0.25

    def side(*runs):
        return {"runs": [{"metrics": {"items_per_ref": r, "peak_rss_mb": mb, "setup_s": s}} for r, mb, s in runs]}

    parent = side((200.0, 80.0, 1.0), (210.0, 81.0, 1.2), (205.0, 79.0, 1.1))
    # items_per_ref 205 -> 140 is 31.7% worse, past its 25% bound; peak_rss_mb
    # 80 -> 85 is 6.25% worse, inside its 10% bound; setup_s got better
    change = side((150.0, 85.0, 0.5), (140.0, 86.0, 0.6), (130.0, 84.0, 0.4))

    def warnings(change):
        block = {"seeds": [1, 2, 3], "sides": {"parent": parent, "change": change}}
        return _tool().pair_report("dfw_blobs", block, declared)[1]

    assert warnings(change) == [
        "warning: dfw_blobs: median worse than parent's beyond the metric's bound: "
        "change items_per_ref 205 -> 140 (-31.7%, bound 25%)"
    ]
    # 205 -> 160 is 22% worse, inside the bound
    inside = side((160.0, 85.0, 0.5), (150.0, 86.0, 0.6), (170.0, 84.0, 0.4))
    assert warnings(inside) == []
    assert warnings(parent) == []


def test_the_record_tool_prints_the_bound_warning_on_stderr(monkeypatch, tmp_path, capsys):
    tool = _tool()
    rss = {"parent": iter([80.0, 81.0, 79.0]), "change": iter([90.0, 91.0, 92.0])}

    def run_once(checkout, workload, seed, seconds, trace):
        side = Path(checkout).name
        return {"seed": seed, "attempted": 1, "failed": 0, "metrics": {"peak_rss_mb": next(rss[side])},
                "units": {"peak_rss_mb": "MB"}, "environment": {}, "counts": {"reference_s": 0.005}}

    def copy_side(spec, dest):
        name, _, _ = spec.partition("=")
        return name, tmp_path, tmp_path / name

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "_copy_side", copy_side)
    monkeypatch.setattr(tool, "describe_side", lambda checkout: {})
    monkeypatch.setattr(tool, "check_record", lambda record: None)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    declared = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "adam_wide_libsvm"}], "end_to_end": declared})
    )
    tool.main(["--out", str(tmp_path / "BENCH_0.json"), "--side", "parent=.", "--side", "change=.", "--seeds", "1-3"])
    _, err = capsys.readouterr()
    assert "change peak_rss_mb 80 -> 91 (+13.8%, bound 10%)" in err
