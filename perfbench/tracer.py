"""In-memory span tracing of proxfw's public functions.

``Tracer.installed()`` swaps each traced function for a wrapper that
records one span (name, start, end, parent span) and, for a few
functions, a behaviour count read off the call's arguments or result.
Module functions are replaced under every name any proxfw module binds
them to, because ``proximal`` and ``optimizers`` import functions by
name: wrapping ``losses.dual_direction_batch`` alone would miss the
calls ``proximal`` makes. Methods are replaced on their class. Leaving
the ``with`` block restores every original, so an untraced run never
sees a wrapper.

Spans stay in memory until ``write`` dumps them as tab-separated rows.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
from proxfw import autodiff, bench, data, losses, models, optimizers, proximal


def _count_direction(counts, args, result):
    counts["direction_rows"] += len(args[0])
    counts["direction_switched"] += result[1]


def _count_step_size(counts, args, result):
    counts["step_sizes"] += 1
    counts["step_size_is_1"] += result == 1.0
    counts["step_size_outside_01"] += not 0.0 <= result <= 1.0


def _count_backward(counts, args, result):
    counts["backward_visits"] += args[0].last_backward_visits


def _count_solve(counts, args, result):
    counts["solver_iterations"] += result[1].iterations


# span name, owner (module or class), attribute, behaviour counter.
# Tape.__init__ is an event: a span of zero length that only counts tapes.
TARGETS = [
    ("data.generate", data, "generate_synthetic", None),
    ("data.load", data, "load_dataset", None),
    ("data.split", data, "split_dataset", None),
    ("autodiff.tape_init", autodiff.Tape, "__init__", None),
    ("autodiff.forward", autodiff.Tape, "forward", None),
    ("autodiff.backward", autodiff.Tape, "backward", _count_backward),
    ("autodiff.jvp", autodiff.Tape, "jvp", None),
    ("models.batch_scores", models.ModelSpec, "batch_scores", None),
    ("models.weight_mask", models.ModelSpec, "weight_mask", None),
    ("losses.augment", losses, "augmented_scores_batch", None),
    ("losses.direction", losses, "dual_direction_batch", _count_direction),
    ("proximal.direction_terms", proximal, "_direction_terms", None),
    ("proximal.step_size", proximal, "single_step_size", _count_step_size),
    ("proximal.line_search", proximal, "optimal_step_size", None),
    ("proximal.solve", proximal, "proximal_fw_solve", _count_solve),
    ("optimizers.dfw_step", optimizers, "dfw_step", None),
    ("optimizers.objective_gradient", optimizers, "_objective_gradient", None),
    ("optimizers.adaptive_step", optimizers, "adaptive_baseline_step", None),
    ("bench.evaluate", bench, "evaluate", None),
    ("bench.run_training", bench, "run_training", None),
]
EVENTS = {"autodiff.tape_init"}


def _program_modules():
    return [m for name, m in sys.modules.items() if name == "proxfw" or name.startswith("proxfw.")]


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _, _ in TARGETS]
        self.spans = []  # (name index, start ns, end ns, parent span index or -1)
        self.counts = Counter()
        self._stack = []

    def _wrap(self, name_index, fn, observe):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter_ns, self.counts

        if self.names[name_index] in EVENTS:

            @functools.wraps(fn)
            def event(*args, **kwargs):
                t = clock()
                spans.append((name_index, t, t, stack[-1] if stack else -1))
                return fn(*args, **kwargs)

            return event

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name_index, t0, t1, parent)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every target inside the block; restore the originals after."""
        undo = []
        try:
            for i, (_, owner, attr, observe) in enumerate(TARGETS):
                original = getattr(owner, attr)
                wrapper = self._wrap(i, original, observe)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [m for m in _program_modules() if vars(m).get(attr) is original]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def summary(self):
        """Per span name: durations and self times in seconds, outside evaluation.

        Spans inside ``bench.evaluate`` are left out of every layer but
        ``bench.evaluate`` itself, so per-call layer times describe the
        training or solver step and evaluation is reported on its own.
        """
        n = len(self.spans)
        child = [0] * n
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        evaluate = self.names.index("bench.evaluate")
        in_eval = [False] * n
        out = {name: {"dur": [], "self": []} for name in self.names}
        for i, (k, t0, t1, parent) in enumerate(self.spans):
            in_eval[i] = parent >= 0 and (in_eval[parent] or self.spans[parent][0] == evaluate)
            if in_eval[i]:
                continue
            entry = out[self.names[k]]
            entry["dur"].append((t1 - t0) * 1e-9)
            entry["self"].append((t1 - t0 - child[i]) * 1e-9)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i, (k, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[k]}\t{t0}\t{t1}\t{parent}\n")


# the span each per-layer metric reads
SPAN_FOR_LAYER = {
    "models.build_us": "models.batch_scores",
    "models.tapes_per_step": "autodiff.tape_init",
    "models.weight_mask_us": "models.weight_mask",
    "losses.direction_us": "losses.direction",
    "losses.augment_us": "losses.augment",
    "losses.fallback_share": "losses.direction",
    "proximal.step_size_us": "proximal.step_size",
    "proximal.gamma_clip1_share": "proximal.step_size",
    "optimizers.dfw_update_us": "optimizers.dfw_step",
    "optimizers.adam_update_us": "optimizers.adaptive_step",
    "autodiff.forward_us": "autodiff.forward",
    "autodiff.backward_us": "autodiff.backward",
    "autodiff.backward_visits": "autodiff.backward",
    "autodiff.jvp_us": "autodiff.jvp",
    "proximal.solve_iter_us": "proximal.solve",
    "proximal.line_search_us": "proximal.line_search",
    "bench.evaluate_us": "bench.evaluate",
    "bench.eval_share": "bench.evaluate",
    "data.generate_s": "data.generate",
    "data.load_s": "data.load",
    "data.split_s": "data.split",
}


def _mean_us(values):
    return float(np.mean(values)) * 1e6 if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, work_items: int) -> dict:
    """Per-layer metrics of a traced run; a layer with no span reads 0.

    ``work_items`` is what one unit of progress is on the workload: an
    optimizer step on the training workloads, a solver iteration on the
    solver workload. Times are means per call unless stated otherwise.
    """
    s = tracer.summary()
    c = tracer.counts

    def self_us(name):
        return _mean_us(s[name]["self"])

    def dur_us(name):
        return _mean_us(s[name]["dur"])

    def median_s(name):
        return statistics.median(s[name]["dur"]) if s[name]["dur"] else 0.0

    run_total = sum(s["bench.run_training"]["dur"])
    eval_total = sum(s["bench.evaluate"]["dur"])
    backwards = len(s["autodiff.backward"]["dur"])
    return {
        "models.build_us": self_us("models.batch_scores"),
        "models.tapes_per_step": _ratio(len(s["autodiff.tape_init"]["dur"]), work_items),
        "models.weight_mask_us": dur_us("models.weight_mask"),
        "losses.direction_us": dur_us("losses.direction"),
        "losses.augment_us": dur_us("losses.augment"),
        "losses.fallback_share": _ratio(c["direction_switched"], c["direction_rows"]),
        "proximal.step_size_us": dur_us("proximal.step_size"),
        "proximal.gamma_clip1_share": _ratio(c["step_size_is_1"], c["step_sizes"]),
        "optimizers.dfw_update_us": self_us("optimizers.dfw_step"),
        "optimizers.adam_update_us": self_us("optimizers.adaptive_step"),
        "autodiff.forward_us": dur_us("autodiff.forward"),
        "autodiff.backward_us": dur_us("autodiff.backward"),
        "autodiff.backward_visits": _ratio(c["backward_visits"], backwards),
        "autodiff.jvp_us": dur_us("autodiff.jvp"),
        "proximal.solve_iter_us": _ratio(sum(s["proximal.solve"]["self"]) * 1e6, c["solver_iterations"]),
        "proximal.line_search_us": dur_us("proximal.line_search"),
        "bench.evaluate_us": dur_us("bench.evaluate"),
        "bench.eval_share": _ratio(eval_total, run_total),
        "data.generate_s": median_s("data.generate"),
        "data.load_s": median_s("data.load"),
        "data.split_s": median_s("data.split"),
    }


def span_counts(tracer: Tracer) -> dict:
    counts = Counter(tracer.names[k] for k, _, _, _ in tracer.spans)
    return {name: counts[name] for name in tracer.names}
