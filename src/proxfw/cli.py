"""Command-line benchmark runner.

Two subcommands: ``train`` runs one seeded configuration and writes the
per-epoch metrics CSV; ``sweep`` repeats a configuration over a grid of
eta values and writes a summary table. Exit status is 0 on success and
1 on a diverged run, a rejected setting or data file, or a failed read or write.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import __version__, bench, data, models, optimizers
from .bench import RunConfig


def _parse_schedule(text: str):
    try:
        return bench.parse_schedule(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_hidden(text: str):
    if not text:
        return ()
    try:
        return tuple(int(h) for h in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}") from None


def _parse_grid(text: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eta grid {text!r}") from None


def _add_common(p: argparse.ArgumentParser):
    # flags that set a RunConfig field use the field name as dest and its default
    p.add_argument("--optimizer", default=RunConfig.optimizer, choices=bench.OPTIMIZERS)
    p.add_argument("--eta", "--lr", dest="eta", type=float, default=RunConfig.eta,
                   help="proximal weight for dfw; learning rate for baselines")
    p.add_argument("--momentum", type=float, default=RunConfig.momentum)
    p.add_argument("--l2", type=float, default=RunConfig.l2)
    p.add_argument("--batch-size", type=int, default=RunConfig.batch_size)
    p.add_argument("--epochs", type=int, default=RunConfig.epochs)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--model", default=RunConfig.model, choices=models.KINDS)
    p.add_argument("--hidden", dest="hidden_dims", metavar="HIDDEN", type=_parse_hidden,
                   default=RunConfig.hidden_dims,
                   help="comma-separated hidden layer widths (mlp only)")
    p.add_argument("--loss", default=RunConfig.loss, choices=optimizers.LOSSES)
    p.add_argument("--direction-mode", default=RunConfig.direction_mode,
                   choices=bench.DIRECTION_MODES)
    p.add_argument("--lr-schedule", type=_parse_schedule, default=RunConfig.lr_schedule,
                   help='"auto", "none", or "epoch:mult,epoch:mult,..."')
    p.add_argument("--dataset", default="blobs",
                   help=f"one of {', '.join(data.SYNTHETIC)}, or a path to a data file")
    p.add_argument("--data-format", default="csv", choices=data.FORMATS)
    p.add_argument("--n-train", type=int, default=5000)
    p.add_argument("--n-val", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--dim", type=int, default=20)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--val-fraction", type=float, default=0.15,
                   help="validation share when --dataset is a file")
    p.add_argument("--test-fraction", type=float, default=0.15,
                   help="test share when --dataset is a file")
    p.add_argument("--out", default=None, help="output CSV path")


def _resolve_dataset(args):
    if args.dataset in data.SYNTHETIC:
        return data.generate_synthetic(
            args.dataset,
            args.n_train,
            args.n_val,
            args.n_test,
            args.dim,
            args.classes,
            args.noise,
            args.seed,
        )
    flat = data.load_dataset(args.dataset, args.data_format)
    return data.split_dataset(flat, args.val_fraction, args.test_fraction, args.seed)


def _make_config(args) -> RunConfig:
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name != "dataset"}
    return RunConfig(dataset=_resolve_dataset(args), **settings)


def _cmd_train(args) -> int:
    config = _make_config(args)
    result = bench.run_training(config)
    out = args.out or "metrics.csv"
    bench.emit_metrics(result.metrics, out)
    if result.metrics:
        last = result.metrics[-1]
        print(
            f"{args.optimizer} eta={args.eta:g}: {len(result.metrics)} epochs, "
            f"train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f} -> {out}"
        )
    if result.diverged:
        print("run diverged: loss or parameters became non-finite", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    config = _make_config(args)
    rows = bench.sensitivity_sweep(config, args.eta_grid)
    out = args.out or "sweep.csv"
    bench.emit_sweep(rows, out)
    for row in rows:
        print(
            f"eta={row.eta:g}: best_val_acc={row.best_val_acc:.4f} "
            f"final_train_acc={row.final_train_acc:.4f} [{row.status}]"
        )
    print(f"-> {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxfw",
        description="Benchmark the proximal Frank-Wolfe trainer against baselines.",
    )
    parser.add_argument("--version", action="version", version=f"proxfw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_train = sub.add_parser("train", help="run one training configuration")
    _add_common(p_train)
    p_sweep = sub.add_parser("sweep", help="repeat a configuration over an eta grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--eta-grid", type=_parse_grid, default=(1e-3, 1e-2, 1e-1, 1.0),
                         help="comma-separated eta values")
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        return _cmd_sweep(args)
    except (OSError, ValueError) as exc:  # DatasetFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
