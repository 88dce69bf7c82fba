"""proxfw benchmark entry point.

Run from the root of a proxfw checkout; the program is imported from
``src/`` of that checkout and nowhere else::

    python3 perfbench/run.py --workload dfw_blobs --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see ``workloads.py`` for what each one means). The
last line of standard output is the result as one JSON object; the lines
before it give each metric with its unit, the environment, the run's
sample counts and, untraced, its raw wall-time figures (``items_per_s``,
``round_s_p50``, ``round_s_p90``, ``reference_s``). A fuller record, and
in traced runs the spans, are
written under ``.perfbench_out/`` in the checkout.

Every workload, one process each (``peak_rss_mb`` is a per-process
high-water mark)::

    for w in dfw_blobs adam_wide_libsvm solver_certify; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def import_program():
    """Import proxfw from this checkout's ``src/``; fail if it is not there."""
    if not (SRC / "proxfw" / "__init__.py").is_file():
        raise SystemExit(f"error: no proxfw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxfw

    if Path(proxfw.__file__).resolve().parent != SRC / "proxfw":
        raise SystemExit(f"error: proxfw was imported from {proxfw.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    record = workloads.run(args.workload, args.seed, seconds, bool(args.trace), OUT_DIR)
    if set(record["metrics"]) != set(units):
        raise SystemExit(
            f"error: measured {sorted(record['metrics'])}, BENCHMARK.json declares {sorted(units)}"
        )
    for error in record["errors"]:
        print(error, file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, unit in units.items():
        print(f"# {name} = {record['metrics'][name]:.6g} {unit}")
    print("# environment " + json.dumps(record["environment"]))
    print("# counts " + json.dumps(record["extra"]))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": float(record["metrics"][name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
