"""The proxfw benchmark's workloads, output checks and metrics.

Each workload drives the public API from one process and starts no
threads of its own. A run sets up several times, warms up for
``WARMUP_S`` outside the timed region, then repeats one operation until
the time is up: a ``run_training`` call on the training workloads, a
``proximal_fw_solve`` call on ``solver_certify``. Every operation's
outputs are checked; an operation that raises or fails a check counts
in ``failed``. Step sizes are checked one by one where the benchmark
sees them (the dfw floor-check steps, every solver step, every step of
a traced run) and as per-epoch means inside ``run_training``.

End-to-end timings are given in reference units (``ref``): wall time
divided by the time of a fixed numpy kernel (``reference_s``) run on
the same machine just before and just after each operation. The host
this was built on changes speed by up to 1.6x in phases of seconds, so
raw wall times of two runs of the same code differ by more than any
useful bound; the ratio to a kernel timed alongside does not. The wall
times themselves are in the run record and printed with the result.

End-to-end metrics share their names across workloads, so each name
reads as follows:

* ``items_per_ref``: training samples stepped per reference time in
  ``run_training``, or solver iterations per reference time in
  ``proximal_fw_solve``; the median over operations.
* ``round_ref.p50`` / ``round_ref.p90``: time of one epoch
  (``EpochMetrics.wall_time_s``, pooled over every timed call) or of one
  solve, in reference times. The sample count is in the run record.
* ``final_objective``: training loss after the last epoch, or the median
  over the batch pool of the certified upper bound on the proximal
  problem's optimum (dual objective plus Frank-Wolfe gap). Deterministic
  for a seed: a guard on quality, not a timing.
* ``setup_s``: median time to generate, or load and split, the data and
  to build the model and the optimizer state (or the solver's batch pool).
* ``peak_rss_mb``: ``ru_maxrss``, a process high-water mark, so one
  workload per process.

A traced run (``trace=True``) alternates untraced operations with the
same operations under ``tracer.Tracer`` and reports per-layer metrics,
plus the tracing overhead as the ratio of the two sides' median times.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import proxfw
from proxfw import bench, data, models, optimizers, proximal

import floor
import tracer

ROOT = Path(__file__).resolve().parent.parent

# set-up repeats: at least SETUP_MIN_REPS, then more while the total stays
# under SETUP_BUDGET_S, never more than SETUP_MAX_REPS
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 25
SETUP_BUDGET_S = 3.0

# untimed operations before timing starts (never longer than the timed
# part); the first two run_training calls in a process measured 1.3x to
# 2x slower than later ones
WARMUP_S = 2.0

# the floor comparison in a traced dfw_blobs run: rounds of one epoch of
# steps each, alternating dfw_step and the floor
FLOOR_ROUNDS = 6

# rounding slack when checking that a solve's dual objective never drops
DUAL_SLACK = 1e-12

# the reference kernel: REFERENCE_RUNS runs before and after every timed
# operation. One run is REFERENCE_LOOPS passes of small matmuls and
# elementwise ops (a training step's mix of numpy calls and Python
# dispatch) and one pass of a softmax loss over 4000 rows (an
# evaluation's larger, BLAS-threaded matmuls); about 4 ms on a 2-vCPU
# Xeon at 2.1 GHz. The small part alone did not follow adam_wide_libsvm's
# changes in speed; the two together follow all three workloads'.
REFERENCE_RUNS = 3
REFERENCE_LOOPS = 50
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((64, 20))
_REF_W1 = _REF_RNG.standard_normal((20, 64))
_REF_W2 = _REF_RNG.standard_normal((64, 10))
_REF_XL = _REF_RNG.standard_normal((4000, 20))
_REF_YL = _REF_RNG.integers(0, 10, size=4000)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "solve"
    why: str
    # per-layer metrics predicted to move this workload's end-to-end
    # metrics when they improve, and those predicted to stay flat here
    moves: tuple
    flat: tuple
    # per-layer metrics this workload exercises; the traced run fails if
    # any of them recorded no span
    uses: tuple
    params: dict
    tiny: dict = field(default_factory=dict)


_STEP_LAYERS = (
    "models.build_us",
    "models.tapes_per_step",
    "models.weight_mask_us",
    "losses.direction_us",
    "losses.augment_us",
    "proximal.step_size_us",
    "optimizers.dfw_update_us",
)
_SOLVER_LAYERS = ("autodiff.jvp_us", "proximal.solve_iter_us", "proximal.line_search_us")
_BLOBS = dict(n_train=5000, n_val=1000, n_test=1000, d=20, num_classes=10, noise=1.0)
_TINY_BLOBS = dict(n_train=256, n_val=64, n_test=64)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="dfw_blobs",
            kind="train",
            why=(
                "The paper's dfw step at the criterion-8 shape: blobs 5000/1000/1000, "
                "d=20, 10 classes, MLP(64), batch 64, eta 0.1, smoothed directions. "
                "About 80 steps of ~300 us per epoch, dominated by tape building, "
                "direction picking and Python dispatch, so tape-replay and per-step "
                "overhead changes show here."
            ),
            moves=_STEP_LAYERS
            + ("autodiff.forward_us", "autodiff.backward_us", "autodiff.backward_visits")
            + ("bench.evaluate_us", "bench.eval_share", "data.generate_s"),
            flat=_SOLVER_LAYERS + ("optimizers.adam_update_us", "data.load_s", "data.split_s"),
            uses=_STEP_LAYERS
            + ("losses.fallback_share", "proximal.gamma_clip1_share")
            + ("autodiff.forward_us", "autodiff.backward_us", "autodiff.backward_visits")
            + ("bench.evaluate_us", "bench.eval_share", "data.generate_s"),
            params=dict(
                source="blobs",
                **_BLOBS,
                optimizer="dfw",
                loss="svm",
                eta=0.1,
                hidden=(64,),
                batch_size=64,
                epochs=2,
            ),
            tiny=dict(_TINY_BLOBS, epochs=2),
        ),
        Workload(
            name="adam_wide_libsvm",
            kind="train",
            why=(
                "adam on ce with MLP(256,256) at batch 512, on a LIBSVM file of seeded "
                "spirals (20000 rows, d=32, 4 classes) loaded and split 0.15/0.15. Steps "
                "of ~18 ms are bound by matmuls, so per-node tape overhead is a small "
                "share: a tape-overhead change should show no gain here. Covers the "
                "CE/adaptive path and the LIBSVM parser."
            ),
            moves=(
                "autodiff.forward_us",
                "autodiff.backward_us",
                "autodiff.backward_visits",
                "optimizers.adam_update_us",
                "bench.evaluate_us",
                "bench.eval_share",
                "data.load_s",
                "data.split_s",
            ),
            flat=_STEP_LAYERS + _SOLVER_LAYERS,
            uses=(
                "models.build_us",
                "models.tapes_per_step",
                "models.weight_mask_us",
                "autodiff.forward_us",
                "autodiff.backward_us",
                "autodiff.backward_visits",
                "optimizers.adam_update_us",
                "bench.evaluate_us",
                "bench.eval_share",
                "data.load_s",
                "data.split_s",
            ),
            params=dict(
                source="libsvm",
                rows=20000,
                d=32,
                num_classes=4,
                noise=0.1,
                val_fraction=0.15,
                test_fraction=0.15,
                optimizer="adam",
                loss="ce",
                eta=3e-3,
                hidden=(256, 256),
                batch_size=512,
                epochs=1,
            ),
            tiny=dict(rows=600, hidden=(16, 16), batch_size=64, epochs=1),
        ),
        Workload(
            name="solver_certify",
            kind="solve",
            why=(
                "Repeated proximal_fw_solve on seeded 64-row batches of the dfw_blobs data "
                "at the init weights: conditional mode, 200 iterations, no early stop. The "
                "only workload that runs Tape.jvp and the line search, so a linearize-once "
                "change shows here and nowhere else."
            ),
            moves=_SOLVER_LAYERS
            + ("autodiff.backward_us", "losses.direction_us", "losses.augment_us"),
            flat=(
                "models.build_us",
                "models.tapes_per_step",
                "proximal.step_size_us",
                "optimizers.dfw_update_us",
                "optimizers.adam_update_us",
                "bench.evaluate_us",
            ),
            uses=_SOLVER_LAYERS
            + (
                "models.build_us",
                "models.tapes_per_step",
                "models.weight_mask_us",
                "losses.direction_us",
                "losses.augment_us",
                "autodiff.forward_us",
                "autodiff.backward_us",
                "autodiff.backward_visits",
                "data.generate_s",
            ),
            params=dict(
                source="blobs",
                **_BLOBS,
                hidden=(64,),
                eta=0.1,
                l2=1e-4,
                mode="conditional",
                iterations=200,
                pool=16,
                batch_size=64,
            ),
            tiny=dict(_TINY_BLOBS, iterations=5, pool=2),
        ),
    ]
}


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


class Tally:
    """Operations attempted and failed, with the first failures' tracebacks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the benchmark must keep counting
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
            return None


def _csv_without_wall_time(path) -> bytes:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    return b"\n".join(line.rsplit(b",", 1)[0] for line in lines)


class TrainDriver:
    """Repeated ``run_training`` calls on one seeded configuration."""

    def __init__(self, p, seed, out_dir, tally):
        self.p, self.seed, self.out_dir, self.tally = p, seed, Path(out_dir), tally
        self.csv_path = self.out_dir / f"metrics-{os.getpid()}.csv"
        self.libsvm_path = self.out_dir / f"spirals-{os.getpid()}.libsvm"
        self.reference = None

    def prepare(self):
        """Write the LIBSVM input file; the program only ever reads it."""
        p = self.p
        if p["source"] != "libsvm":
            return
        spirals = data.generate_synthetic(
            "spirals", p["rows"], 0, 0, p["d"], p["num_classes"], p["noise"], self.seed
        )
        self.written = spirals.train
        with open(self.libsvm_path, "w", encoding="utf-8") as fh:
            for row, label in zip(self.written.X.tolist(), self.written.y.tolist()):
                feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row))
                fh.write(f"{label} {feats}\n")

    def setup(self):
        """Load or generate the data, build the model and the optimizer state."""
        p = self.p
        t0 = time.perf_counter()
        if p["source"] == "blobs":
            split = data.generate_synthetic(
                "blobs", p["n_train"], p["n_val"], p["n_test"], p["d"], p["num_classes"],
                p["noise"], self.seed,
            )
        else:
            loaded = data.load_dataset(self.libsvm_path, "libsvm")
            split = data.split_dataset(loaded, p["val_fraction"], p["test_fraction"], self.seed)
        cfg = bench.RunConfig(
            dataset=split,
            optimizer=p["optimizer"],
            eta=p["eta"],
            batch_size=p["batch_size"],
            epochs=p["epochs"],
            seed=self.seed,
            hidden_dims=p["hidden"],
            loss=p["loss"],
        )
        model = models.ModelSpec("mlp", split.dim, split.num_classes, p["hidden"])
        w0 = model.init_params(self.seed)
        if p["optimizer"] == "dfw":
            state = optimizers.DFWState(
                w=w0, eta=cfg.eta, momentum=cfg.momentum, l2=cfg.l2,
                mode=cfg.resolved_mode(split.num_classes),
            )
        else:
            state = optimizers.BaselineState(
                kind=cfg.optimizer, w=w0, lr=cfg.eta, momentum=cfg.momentum, l2=cfg.l2
            )
        elapsed = time.perf_counter() - t0
        if p["source"] == "libsvm":
            self.tally.run(self._check_round_trip, loaded)
        self.cfg, self.model, self.state = cfg, model, state
        return elapsed

    def _check_round_trip(self, loaded):
        # labels come back remapped to 0..K-1 in order of first appearance
        written = self.written
        remap = {}
        for label in written.y.tolist():
            remap.setdefault(label, len(remap))
        expect(np.array_equal(loaded.X, written.X), "LIBSVM features did not load back as written")
        expect(
            np.array_equal(loaded.y, [remap[label] for label in written.y.tolist()]),
            "LIBSVM labels did not load back as written",
        )

    def operation(self):
        """One ``run_training`` call; returns (seconds, samples, epoch times)."""
        t0 = time.perf_counter()
        result = bench.run_training(self.cfg)
        elapsed = time.perf_counter() - t0
        expect(not result.diverged, "training diverged")
        expect(len(result.metrics) == self.cfg.epochs, "training stopped early")
        for m in result.metrics:
            expect(np.isfinite(m.train_loss), "non-finite training loss")
            if m.mean_gamma is not None:
                expect(0.0 <= m.mean_gamma <= 1.0, f"mean step size {m.mean_gamma} outside [0, 1]")
        bench.emit_metrics(result.metrics, self.csv_path)
        csv = _csv_without_wall_time(self.csv_path)
        if self.reference is None:
            self.reference = csv
            self.final_loss = result.metrics[-1].train_loss
            self.best_val_acc = max(m.val_acc for m in result.metrics)
        expect(csv == self.reference, "metrics CSV differs from the first run of this seed")
        samples = len(self.cfg.dataset.train) * self.cfg.epochs
        return elapsed, samples, [m.wall_time_s for m in result.metrics]

    def _floor_batches(self):
        n = len(self.cfg.dataset.train)
        order = np.random.default_rng([self.seed, 9]).permutation(n)
        X, y = self.cfg.dataset.train.X, self.cfg.dataset.train.y
        bs = self.cfg.batch_size
        return [(X[order[i : i + bs]], y[order[i : i + bs]]) for i in range(0, n, bs)]

    def _floor_args(self, state):
        return (self.model.layer_dims(), self.model.weight_mask(), state.eta, state.momentum, state.l2)

    def warm_up(self):
        """The first call is the reference; on dfw, check the floor one epoch."""
        self.tally.run(self.operation)
        if self.p["optimizer"] != "dfw":
            return
        expect(self.state.mode == "smoothed", "the floor implements smoothed directions only")
        state = self.state
        for batch in self._floor_batches():
            state = self.tally.run(self._floor_check, state, batch) or state

    def _floor_check(self, state, batch):
        # _direction_terms and single_step_size are what dfw_step calls
        r, delta, loss_term, _, _, _ = proximal._direction_terms(
            state.w, batch, self.model, state.l2, state.mode
        )
        gamma = proximal.single_step_size(r, delta, loss_term, state.eta)
        new_state, diag = optimizers.dfw_step(state, batch, self.model)
        expect(0.0 <= diag.step_size <= 1.0, f"step size {diag.step_size} outside [0, 1]")
        expect(diag.step_size == gamma, "dfw_step's step size differs from its own terms")
        got = floor.step(state.w, state.velocity, batch[0], batch[1], *self._floor_args(state))
        bad = floor.mismatches(got, delta, loss_term, diag.step_size, new_state.w, new_state.velocity)
        expect(not bad, f"floor and dfw_step disagree on {', '.join(bad)}")
        return new_state

    def floor_timing(self):
        """Median per-step seconds of dfw_step and of the floor, same batches."""
        batches = self._floor_batches()
        args = self._floor_args(self.state)
        tape_times, floor_times = [], []
        for _ in range(FLOOR_ROUNDS):
            state = self.state
            t0 = time.perf_counter()
            for batch in batches:
                state, _ = optimizers.dfw_step(state, batch, self.model)
            tape_times.append((time.perf_counter() - t0) / len(batches))
            w, v = self.state.w, self.state.velocity
            t0 = time.perf_counter()
            for X, y in batches:
                out = floor.step(w, v, X, y, *args)
                w, v = out.w, out.velocity
            floor_times.append((time.perf_counter() - t0) / len(batches))
        return statistics.median(tape_times), statistics.median(floor_times)

    def quality(self):
        return {"final_objective": self.final_loss}, {
            "best_val_acc": self.best_val_acc,
            "train_samples": len(self.cfg.dataset.train),
        }

    def cleanup(self):
        for path in (self.csv_path, self.libsvm_path):
            if path.exists():
                path.unlink()


class SolveDriver:
    """Repeated ``proximal_fw_solve`` calls cycling over a seeded batch pool."""

    def __init__(self, p, seed, out_dir, tally):
        self.p, self.seed, self.tally = p, seed, tally
        self.references = {}
        self.next_batch = 0

    def prepare(self):
        pass

    def setup(self):
        p = self.p
        t0 = time.perf_counter()
        split = data.generate_synthetic(
            "blobs", p["n_train"], p["n_val"], p["n_test"], p["d"], p["num_classes"],
            p["noise"], self.seed,
        )
        model = models.ModelSpec("mlp", split.dim, split.num_classes, p["hidden"])
        w0 = model.init_params(self.seed)
        rng = np.random.default_rng([self.seed, 5])
        X, y = split.train.X, split.train.y
        pool = []
        for _ in range(p["pool"]):
            idx = rng.choice(len(y), size=p["batch_size"], replace=False)
            pool.append((X[idx], y[idx]))
        elapsed = time.perf_counter() - t0
        self.model, self.w0, self.pool = model, w0, pool
        return elapsed

    def operation(self):
        """One solve on the next pool batch; returns (seconds, iterations, [seconds])."""
        p = self.p
        b = self.next_batch
        self.next_batch = (b + 1) % len(self.pool)
        t0 = time.perf_counter()
        w, diag = proximal.proximal_fw_solve(
            self.w0, self.pool[b], self.model, p["eta"], max_iters=p["iterations"],
            gap_tol=0.0, mode=p["mode"], l2=p["l2"],
        )
        elapsed = time.perf_counter() - t0
        duals = np.asarray(diag.dual_objectives)
        expect(diag.iterations >= 1 and len(diag.gaps) >= 1, "the solve made no iteration")
        expect(np.all(np.isfinite(duals)), "non-finite dual objective")
        expect(
            np.all(np.diff(duals) >= -DUAL_SLACK * np.maximum(1.0, np.abs(duals[:-1]))),
            "dual objective decreased",
        )
        expect(np.isfinite(diag.gaps[-1]), "non-finite final gap")
        expect(all(0.0 <= g <= 1.0 for g in diag.step_sizes), "line-search step outside [0, 1]")
        # gaps[i] is the certificate of the iterate whose objective is duals[i]
        bound = duals[len(diag.gaps) - 1] + diag.gaps[-1]
        outcome = (w, duals, diag.gaps[-1], bound)
        if b in self.references:
            ref = self.references[b]
            expect(
                np.array_equal(w, ref[0]) and np.array_equal(duals, ref[1]),
                "a repeated solve on the same batch gave a different result",
            )
        else:
            self.references[b] = outcome
        return elapsed, diag.iterations, [elapsed]

    def warm_up(self):
        """One pass over the pool: every batch's reference result."""
        for _ in self.pool:
            self.tally.run(self.operation)

    def quality(self):
        refs = self.references.values()
        return {"final_objective": float(np.median([r[3] for r in refs]))}, {
            "final_gap_p50": float(np.median([r[2] for r in refs])),
            "pool_batches": len(self.pool),
        }

    def cleanup(self):
        pass


def reference_runs() -> list:
    """Seconds of each of ``REFERENCE_RUNS`` runs of the reference kernel."""
    times = []
    for _ in range(REFERENCE_RUNS):
        t0 = time.perf_counter()
        for _ in range(REFERENCE_LOOPS):
            h = np.maximum(_REF_X @ _REF_W1, 0.0)
            s = h @ _REF_W2
            g = s - s.max(axis=1)[:, None]
            h.T @ g
            g @ _REF_W2.T
        h = np.maximum(_REF_XL @ _REF_W1, 0.0)
        s = h @ _REF_W2
        s -= s.max(axis=1)[:, None]
        e = np.exp(s)
        (np.log(e.sum(axis=1)) - s[np.arange(len(_REF_YL)), _REF_YL]).mean()
        h.T @ e
        times.append(time.perf_counter() - t0)
    return times


def _timed(driver, tally, seconds):
    """Repeat the operation until ``seconds`` pass; at least once.

    Returns (seconds, items, rounds, reference seconds) per operation that
    passed its checks; the reference is the median of the kernel runs just
    before and just after it.
    """
    done = []
    before = reference_runs()
    deadline = time.perf_counter() + seconds
    while True:
        out = tally.run(driver.operation)
        after = reference_runs()
        if out is not None:
            done.append((*out, statistics.median(before + after)))
        before = after
        if time.perf_counter() >= deadline:
            return done


def _setup_reps(driver, tally):
    times = []
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or sum(times) < SETUP_BUDGET_S
    ):
        elapsed = tally.run(driver.setup)
        if elapsed is None:
            # a failed set-up leaves nothing to measure
            raise RuntimeError("set-up failed:\n" + tally.errors[-1])
        times.append(elapsed)
    return times


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed) -> dict:
    """numpy, BLAS, thread settings, cores, Python and revision of this run."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "proxfw": proxfw.__version__,
        "git_revision": _git_revision(),
        "seed": seed,
    }


def run(name, seed, seconds, trace, out_dir, tiny=False) -> dict:
    """Run one workload; returns the result record."""
    workload = WORKLOADS[name]
    p = dict(workload.params, **(workload.tiny if tiny else {}))
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    tally = Tally()
    driver = (TrainDriver if workload.kind == "train" else SolveDriver)(p, seed, out_dir, tally)
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "why": workload.why,
        "predicted_to_move": list(workload.moves),
        "predicted_flat": list(workload.flat),
    }
    try:
        driver.prepare()
        run_mode = _traced if trace else _untraced
        metrics, extra = run_mode(workload, driver, tally, seconds, out_dir)
    finally:
        driver.cleanup()
    extra["failed_share"] = tally.failed / max(tally.attempted, 1)
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        metrics=metrics,
        extra=extra,
    )
    return record


def _untraced(workload, driver, tally, seconds, out_dir):
    setup_times = _setup_reps(driver, tally)
    driver.warm_up()
    _timed(driver, tally, min(WARMUP_S, seconds))
    ops = _timed(driver, tally, seconds)
    if not ops:
        raise RuntimeError("every timed operation failed:\n" + "\n".join(tally.errors))
    rounds = [r for _, _, rs, _ in ops for r in rs]
    rounds_ref = [r / ref for _, _, rs, ref in ops for r in rs]
    p50, p90 = (float(v) for v in np.percentile(rounds, [50, 90]))
    p50_ref, p90_ref = (float(v) for v in np.percentile(rounds_ref, [50, 90]))
    quality, extra = driver.quality()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_ref": statistics.median(items * ref / secs for secs, items, _, ref in ops),
        "round_ref.p50": p50_ref,
        "round_ref.p90": p90_ref,
        **quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra.update(
        reference_s=statistics.median(ref for *_, ref in ops),
        items_per_s=statistics.median(items / secs for secs, items, _, _ in ops),
        round_s_p50=p50,
        round_s_p90=p90,
        setup_reps=len(setup_times),
        timed_operations=len(ops),
        round_samples=len(rounds),
        rounds_beyond_p90=sum(r > p90_ref for r in rounds_ref),
    )
    return metrics, extra


def _traced(workload, driver, tally, seconds, out_dir):
    driver.setup()
    driver.warm_up()
    _timed(driver, tally, min(WARMUP_S, seconds))
    layer = {"floor.step_us": 0.0, "floor.ratio": 0.0, "proximal.final_gap": 0.0}
    if workload.name == "dfw_blobs":
        tape_s, floor_s = driver.floor_timing()
        layer["floor.step_us"] = floor_s * 1e6
        layer["floor.ratio"] = tape_s / floor_s
    t = tracer.Tracer()
    with t.installed():
        _setup_reps(driver, tally)
    # untraced and traced operations alternate, and so does which of the
    # two goes first, so drift in machine speed reaches both sides alike
    times = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        for traced in (pair % 2 == 1, pair % 2 == 0):
            if traced:
                with t.installed():
                    out = tally.run(driver.operation)
            else:
                out = tally.run(driver.operation)
            if out is not None:
                times[traced].append(out[0])
        pair += 1
    if not (times[False] and times[True]):
        raise RuntimeError("every timed operation failed:\n" + "\n".join(tally.errors))
    t.write(Path(out_dir) / f"spans-{workload.name}.tsv")
    if t.counts["step_size_outside_01"]:
        tally.failed += 1
        tally.errors.append(f"{t.counts['step_size_outside_01']} step sizes outside [0, 1]")

    spans = tracer.span_counts(t)
    missing = [m for m in workload.uses if spans[tracer.SPAN_FOR_LAYER[m]] == 0]
    if missing:
        raise RuntimeError(f"traced run recorded no span for {missing}")
    if workload.kind == "train":
        work_items = spans["optimizers.dfw_step"] + spans["optimizers.adaptive_step"]
    else:
        work_items = t.counts["solver_iterations"]
    layer.update(tracer.layer_metrics(t, work_items))
    layer["trace.overhead_share"] = (
        statistics.median(times[True]) / statistics.median(times[False]) - 1.0
    )
    _, extra = driver.quality()
    if workload.kind == "solve":
        layer["proximal.final_gap"] = extra["final_gap_p50"]
    extra.update(
        untraced_operations=len(times[False]),
        traced_operations=len(times[True]),
        spans=len(t.spans),
        span_counts=spans,
    )
    return layer, extra
