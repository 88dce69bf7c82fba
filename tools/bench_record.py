"""Record benchmark runs of one or more checkouts as ``BENCH_<n>.json``.

Runs ``perfbench/run.py`` once per (workload, seed, side) and writes what
the runs printed, summarized per metric as the median and the
interquartile range. Sides are named checkouts, for example the parent
of a change and the change itself; for every seed the sides run back to
back, and which side goes first alternates from seed to seed, so drift
in machine speed reaches all sides alike. The tool only reads what
perfbench prints; it changes no workload, metric or check.

    git clone --quiet . build/parent && git -C build/parent checkout --quiet 4dea27dd
    python3 tools/bench_record.py --out BENCH_6.json \\
        --side parent=build/parent --side change=. \\
        --seeds 700-709 --trace-seeds 710-712

A side is a directory holding a git checkout. Its tracked and untracked
(not ignored) files, as they are in the working tree, are copied to
``<tmp>/side<i>`` and every run of the side starts there, so all sides
are launched alike and from paths of the same length. The workloads and
the untraced run length are those of ``BENCHMARK.json``; traced runs
(``--trace-seeds``, for the per-layer metrics) last ``TRACE_SECONDS``.
The record also keeps, per run, perfbench's ``# environment`` and
``# counts`` lines, and per side the git revision, whether the checkout
had uncommitted changes, and a SHA-256 of its ``src/proxfw`` sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "proxfw-bench/1"
SUMMARY_KEYS = ("unit", "median", "q1", "q3", "iqr", "values")
# traced runs only feed the per-layer metrics, which settle well before
# the benchmark's own run length
TRACE_SECONDS = 15.0


def parse_seeds(text: str) -> list:
    """``"600-609"``, ``"1,4,7"`` or a mix of both, as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, sep, last = part.partition("-")
        seeds.extend(range(int(first), int(last) + 1) if sep else [int(first)])
    return seeds


def quartiles(values) -> tuple:
    """(q1, median, q3) with linear interpolation, as numpy's default."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def _git(checkout, *args) -> str:
    out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def source_digest(checkout) -> str:
    """SHA-256 over the relative paths and bytes of ``src/proxfw/*.py``."""
    h = hashlib.sha256()
    src = Path(checkout) / "src" / "proxfw"
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def describe_side(checkout) -> dict:
    return {
        "git_revision": _git(checkout, "rev-parse", "HEAD") or None,
        "uncommitted_changes": bool(_git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "src_sha256": source_digest(checkout),
    }


def run_once(checkout, workload, seed, seconds, trace) -> dict:
    """One perfbench run; its metrics, environment and counts lines."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    tagged = {}
    for line in lines:
        for tag in ("environment", "counts"):
            if line.startswith(f"# {tag} "):
                tagged[tag] = json.loads(line[len(tag) + 3 :])
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        **tagged,
    }


def summarize(runs) -> dict:
    """Per metric: unit, median, quartiles, IQR and the values in seed order."""
    out = {}
    for name, unit in runs[0]["units"].items():
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = quartiles(values)
        out[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}
    return out


def record_block(checkouts, workload, seeds, seconds, trace, log) -> dict:
    """Alternating runs of every side on every seed, with per-side summaries."""
    names = list(checkouts)
    runs = {name: [] for name in names}
    order = []
    for i, seed in enumerate(seeds):
        turn = names[i % len(names) :] + names[: i % len(names)]
        order.append(turn)
        for name in turn:
            run = run_once(checkouts[name], workload, seed, seconds, trace)
            log(f"{workload} trace={int(trace)} seed={seed} {name}: failed {run['failed']}/{run['attempted']}")
            runs[name].append(run)
    sides = {}
    for name in names:
        sides[name] = {
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "metrics": summarize(runs[name]),
            "runs": [{k: v for k, v in r.items() if k != "units"} for r in runs[name]],
        }
    return {"seconds": seconds, "seeds": list(seeds), "order": order, "sides": sides}


def check_record(record: dict) -> None:
    """Raise ValueError unless ``record`` has the layout this tool writes."""

    def need(cond, what):
        if not cond:
            raise ValueError(f"BENCH record: {what}")

    need(record.get("schema") == SCHEMA, f"schema must be {SCHEMA!r}")
    sides = record.get("sides")
    need(isinstance(sides, dict) and sides, "no sides")
    for name, side in sides.items():
        need({"git_revision", "uncommitted_changes", "src_sha256"} <= set(side), f"side {name} lacks its revision")
    need(isinstance(record.get("workloads"), dict) and record["workloads"], "no workloads")
    for workload, blocks in record["workloads"].items():
        need(blocks and set(blocks) <= {"untraced", "traced"}, f"{workload}: blocks must be untraced/traced")
        for kind, block in blocks.items():
            where = f"{workload}/{kind}"
            seeds = block.get("seeds")
            need(isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds), f"{where}: seeds")
            need(set(block.get("sides", {})) == set(sides), f"{where}: must cover every side")
            need(len(block.get("order", ())) == len(seeds), f"{where}: one run order per seed")
            for name, side in block["sides"].items():
                need(isinstance(side.get("attempted"), int) and isinstance(side.get("failed"), int),
                     f"{where}/{name}: attempted and failed counts")
                need(side.get("metrics"), f"{where}/{name}: no metrics")
                for metric, summary in side["metrics"].items():
                    need(set(SUMMARY_KEYS) <= set(summary), f"{where}/{name}/{metric}: summary keys")
                    need(len(summary["values"]) == len(seeds), f"{where}/{name}/{metric}: one value per seed")
                    need(summary["q1"] <= summary["median"] <= summary["q3"], f"{where}/{name}/{metric}: quartile order")
                runs = side.get("runs", [])
                need([r.get("seed") for r in runs] == seeds, f"{where}/{name}: one run per seed")
                for run in runs:
                    need("environment" in run and "counts" in run, f"{where}/{name}: environment and counts lines")


def _copy_side(spec: str, dest: Path):
    """``(name, source directory, copy)`` for a ``NAME=DIRECTORY`` spec."""
    name, sep, where = spec.partition("=")
    source = Path(where)
    if not sep or not name or not source.is_dir():
        raise SystemExit(f"error: bad --side {spec!r}; expected NAME=DIRECTORY of a checkout")
    listed = subprocess.run(
        ["git", "-C", str(source), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, text=True,
    )
    if listed.returncode != 0:
        raise SystemExit(f"error: side {name!r}: {source} is not a git checkout")
    for rel in set(listed.stdout.split("\0")) - {""}:
        path = source / rel
        if path.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / rel)
    return name, source.resolve(), dest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    parser.add_argument("--side", action="append", required=True, metavar="NAME=DIRECTORY")
    parser.add_argument("--seeds", type=parse_seeds, default=[], help="untraced seeds, e.g. 600-609")
    parser.add_argument("--trace-seeds", type=parse_seeds, default=[], help="traced seeds")
    args = parser.parse_args(argv)
    if not (args.seeds or args.trace_seeds):
        parser.error("give --seeds, --trace-seeds or both")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def log(message):
        print(message, file=sys.stderr, flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        sides = [_copy_side(spec, Path(tmp) / f"side{i}") for i, spec in enumerate(args.side)]
        checkouts = {name: copy for name, _, copy in sides}
        record = {
            "schema": SCHEMA,
            "command": "python3 tools/bench_record.py " + " ".join(argv if argv is not None else sys.argv[1:]),
            "sides": {name: describe_side(source) for name, source, _ in sides},
            "workloads": {},
        }
        for workload in (w["name"] for w in benchmark["workloads"]):
            blocks = {}
            if args.seeds:
                blocks["untraced"] = record_block(
                    checkouts, workload, args.seeds, benchmark["run_seconds"], False, log
                )
            if args.trace_seeds:
                blocks["traced"] = record_block(checkouts, workload, args.trace_seeds, TRACE_SECONDS, True, log)
            record["workloads"][workload] = blocks
    check_record(record)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
