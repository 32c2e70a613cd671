"""Benchmark of the firl command line on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every measurement is one fresh child
process (child.py) running `firl.cli.cli_main` on a config file this
script writes, with BLAS pinned to one thread. Run directories go to a
temporary root inside the checkout that is deleted afterwards.

--trace 0 reports the end-to-end metrics, each a median over the
children of this run: setup_s (from just before `import firl` to the
first run_firl call), train_s (run_firl's wall time), peak_rss_mb
(ru_maxrss, 1 MB = 1e6 bytes). setup_s and train_s are given in
reference seconds: each child times a fixed kernel every 0.2 s, leaves
those samples out of its phase times, and scales each phase by REF_S
over the mean kernel time of the samples taken in it (see REF_S).

The workload's quality figure is a check, not a metric, because it is
defined on only some workloads: final_divergence (the exact
f-divergence in the last metrics.csv row) on gauss_exact and
grid_large, retrain_ratio (summary.json retrain.ratio) on irl_demos.
Its per-child values are in the samples line. After a set-up-only
warm-up child, training children run until the next would end after
--seconds; every one of them is a set-up sample as well as a training
sample.

--trace 1 alternates untraced, traced and memory-traced children and
reports per-layer metrics: calls and self time of the public firl
functions, peak tracemalloc bytes of the exact-gradient path, and the
tracing overhead on train_s. Workloads that never take the exact
gradient run no memory-traced children and report its peaks as 0.

Each child counts as one attempted operation. It fails when it exits
non-zero or never reaches run_firl; a training child also fails when
manifest.json is missing, metrics.csv holds a non-finite gradient
norm, or the workload's check fails; a traced child also fails when a
listed function recorded no calls or a firl binding escaped or doubled
the wrapping. A child still running at twice --seconds after the start
is killed and fails. The last stdout line is the JSON result; the line
before it records the software environment and every sample.
"""

import argparse
import csv
import glob
import itertools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# The shared host's speed drifts, within seconds and over minutes, by
# more than the 0.25 bound: on a 2-core VM, identical irl_demos runs a
# few minutes apart had median train_s 3.9 s and 6.0 s, and their set-up
# times moved with them. child.SpeedProbe times a fixed pure-Python
# kernel every 0.2 s inside the child, so it slows with the host while
# the program runs, and each phase's time is multiplied by REF_S over
# the mean kernel time in that phase: a reference second is a second on
# a machine that runs the kernel in REF_S. The kernel is benchmark code,
# so a change to firl moves the phase times and never the kernel's.
# Timing the kernel only before and after each child, or in this
# process, tracked the program less well. Over two sets of ten runs per
# workload, the spread (quartile distance over median) of train_s was
# 2-4% scaled against 7-15% unscaled.
REF_S = 0.008


def _gauss_config(grid, sigma, iterations, eval_every):
    return {"type": "density_matching", "shape": "gaussian", "grid": grid,
            "horizon": 40, "sigma": sigma,
            "train": {"kind": "fkl", "alpha": 1.0, "estimator": "exact",
                      "ratio_mode": "exact_table", "iterations": iterations,
                      "reward_lr": 0.1, "eval_every": eval_every}}


def _final_divergence(rows, run_dir):
    return rows[-1]["lf_exact"]


def _retrain_ratio(rows, run_dir):
    with open(os.path.join(run_dir, "summary.json")) as fh:
        return json.load(fh)["retrain"]["ratio"]


# Spans that must record calls on a workload for its traced run to count.
_COMMON_SPANS = ("mdp.build_gridworld", "soft_solver.soft_backward",
                 "soft_solver.forward_marginals", "soft_solver.step_kernel",
                 "kl_eval.knn_kl")
_EXACT_SPANS = _COMMON_SPANS + ("scenarios.density_matching",
                                "soft_solver.pairwise_marginals",
                                "grad_engine.analytic_grad_exact")

# Why each workload: gauss_exact is the paper's headline density-matching
# run, where the solver, the exact gradient and kNN evaluation share the
# time. irl_demos never calls the exact gradient, so it is the control for
# gradient work, and its 600 small solves expose per-call solver overhead.
# grid_large spends most of its time and memory in pairwise_marginals
# through a few large solves, loading the solver the opposite way.
# Iteration counts are pinned here so that changed scenario defaults do
# not change a workload. gauss_exact runs 100 iterations, not the 300 of
# scenarios/gaussian_fkl.json, and grid_large 4: the machine's speed
# varies from child to child, so shorter children, more of them per run,
# give a steadier median. At 100 iterations the divergence is already
# about 0.0015, far below the 0.05 check.
WORKLOADS = {
    "gauss_exact": {
        "command": "train",
        "config": _gauss_config([5, 5], 1.0, 100, 25),
        "quality": ("final_divergence", _final_divergence),
        "check": lambda value, rows: value < 0.05,
        "spans": _EXACT_SPANS,
    },
    "irl_demos": {
        "command": "scenario",
        "config": {"type": "irl_from_trajectories", "grid": [5, 5],
                   "horizon": 20, "n_expert_traj": 16, "pool_size": 200,
                   "expert_alpha": 0.3, "gt_reward": {"24": 1.0},
                   "train": {"kind": "fkl", "alpha": 0.5, "estimator": "mixture",
                             "ratio_mode": "discriminator", "iterations": 600,
                             "reward_lr": 0.05, "batch_size": 256,
                             "eval_every": 100}},
        "quality": ("retrain_ratio", _retrain_ratio),
        "check": lambda value, rows: value >= 0.9,
        "spans": _COMMON_SPANS + ("scenarios.irl_from_trajectories",
                                  "soft_solver.sample_trajectories",
                                  "density_ratio.discriminator_fit",
                                  "grad_engine.analytic_grad_mixture"),
    },
    "grid_large": {
        "command": "train",
        "config": _gauss_config([15, 15], 3.0, 4, 4),
        "quality": ("final_divergence", _final_divergence),
        "check": lambda value, rows: value < rows[0]["lf_exact"],
        "spans": _EXACT_SPANS,
    },
}

_UNITS = {"calls": "count", "self_s": "s", "peak_mb": "MB"}


def _span(span, field):
    return ("%s.%s" % (span, field), _UNITS[field], (field, span))


# Per-layer metrics: (name, unit, source). Sources are read by _layer_value.
LAYER_METRICS = [
    ("firl.import_s", "s", ("import_s",)),
    ("scenarios.build_s", "s", ("incl_s", "scenarios.density_matching",
                                "scenarios.irl_from_trajectories")),
    _span("mdp.build_gridworld", "self_s"),
    ("mdp.transitions_mb", "MB", ("transitions_mb",)),
    _span("soft_solver.soft_backward", "calls"),
    _span("soft_solver.soft_backward", "self_s"),
    _span("soft_solver.forward_marginals", "self_s"),
    _span("soft_solver.step_kernel", "calls"),
    _span("soft_solver.pairwise_marginals", "calls"),
    _span("soft_solver.pairwise_marginals", "self_s"),
    _span("soft_solver.pairwise_marginals", "peak_mb"),
    _span("grad_engine.analytic_grad_exact", "calls"),
    _span("grad_engine.analytic_grad_exact", "self_s"),
    _span("grad_engine.analytic_grad_exact", "peak_mb"),
    _span("soft_solver.sample_trajectories", "calls"),
    _span("soft_solver.sample_trajectories", "self_s"),
    _span("density_ratio.discriminator_fit", "calls"),
    _span("density_ratio.discriminator_fit", "self_s"),
    _span("grad_engine.analytic_grad_mixture", "self_s"),
    _span("kl_eval.knn_kl", "calls"),
    _span("kl_eval.knn_kl", "self_s"),
    ("divergence.self_s", "s", ("module_self", "divergence.")),
    ("reward_model.self_s", "s", ("module_self", "reward_model.")),
    ("trainer.self_s", "s", ("module_self", "trainer.")),
    ("run_io.self_s", "s", ("module_self", "run_io.")),
    ("trace.overhead_s", "s", ("overhead",)),
]


class Run:
    """The children of one benchmark run and their checked records."""

    def __init__(self, workload, seed, work):
        self.spec = WORKLOADS[workload]
        self.work = work
        self.config_path = os.path.join(work, "config.json")
        config = dict(self.spec["config"], schema_version=1, seed=seed,
                      name=workload)
        with open(self.config_path, "w") as fh:
            json.dump(config, fh, indent=2)
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.records = []
        self.attempted = 0
        self.failed = []

    def child(self, mode, deadline):
        """Run one child; returns its record, or None when it failed."""
        n = len(self.records) + len(self.failed)
        out = os.path.join(self.work, "out%d" % n)
        rec_path = os.path.join(self.work, "rec%d.json" % n)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
               "--record", rec_path, "--", self.spec["command"],
               "--config", self.config_path, "--out", out]
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return self._fail(mode, "timed out")
        if proc.returncode != 0 or not os.path.exists(rec_path):
            return self._fail(mode, "exit code %d" % proc.returncode)
        with open(rec_path) as fh:
            rec = json.load(fh)
        if "setup_s" not in rec:
            return self._fail(mode, "run_firl was never called")
        if mode != "setup":
            try:
                problem = self._check_outputs(out, rec)
            except (OSError, KeyError, ValueError) as exc:
                problem = "unreadable outputs: %r" % exc
            if problem:
                return self._fail(mode, problem)
        self.records.append(rec)
        return rec

    def _fail(self, mode, why):
        self.failed.append({"mode": mode, "why": why})
        print("perfbench: %s child failed: %s" % (mode, why), file=sys.stderr)
        return None

    def _check_outputs(self, out, rec):
        manifests = glob.glob(os.path.join(out, "*", "*", "manifest.json"))
        if len(manifests) != 1:
            return "manifest.json missing"
        run_dir = os.path.dirname(manifests[0])
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        if not rows or not all(math.isfinite(r["grad_norm"]) for r in rows):
            return "non-finite gradient norm in metrics.csv"
        name, read = self.spec["quality"]
        value = read(rows, run_dir)
        if not math.isfinite(value) or not self.spec["check"](value, rows):
            return "%s check failed at %r" % (name, value)
        rec["quality"] = value
        if "functions" in rec:
            return self._check_trace(rec)
        return None

    def _check_trace(self, rec):
        idle = [s for s in self.spec["spans"]
                if rec["functions"].get(s, {}).get("calls", 0) == 0]
        if idle:
            return "traced run recorded no calls of %s" % ", ".join(idle)
        if rec["coverage_problems"]:
            return "tracing incomplete: %s" % "; ".join(rec["coverage_problems"])
        return None

    def of(self, mode):
        return [r for r in self.records if r["mode"] == mode]


def _cycle(spec, trace):
    """Child modes in run order. Memory-traced children measure only the
    exact-gradient path, so a workload that never takes it runs none."""
    if not trace:
        return ("run",)
    if "grad_engine.analytic_grad_exact" in spec["spans"]:
        return ("run", "trace", "memory")
    return ("run", "trace")


def _median(values):
    return statistics.median(values) if values else float("nan")


def _measure(run, seconds, trace):
    """Run children in cycle order until the next would end after
    seconds; one full cycle always runs. Interleaving spreads each
    mode's samples over the whole run, so a slow spell of the machine
    moves a few samples rather than all of one kind."""
    start = time.monotonic()
    deadline = start + seconds
    hard = start + 2 * seconds
    warm = run.child("setup", hard)
    if warm:  # byte-compiles and fills the file cache; not a sample
        warm["mode"] = "warmup"
    cycle = _cycle(run.spec, trace)
    longest = {}
    for i in itertools.count():
        mode = cycle[i % len(cycle)]
        now = time.monotonic()
        if now > hard or (i >= len(cycle) and now + longest[mode] > deadline):
            break
        run.child(mode, hard)
        longest[mode] = max(longest.get(mode, 0.0), time.monotonic() - now)


def _ref_seconds(rec, phase):
    return rec[phase + "_s"] * REF_S / rec[phase + "_ref_s"]


def _end_to_end(run):
    recs = run.of("run")
    return {
        "setup_s": (_median([_ref_seconds(r, "setup") for r in recs]), "s"),
        "train_s": (_median([_ref_seconds(r, "train") for r in recs]), "s"),
        "peak_rss_mb": (_median([r["rss_mb"] for r in recs]), "MB"),
    }


def _layer_value(run, source):
    traced, memory = run.of("trace"), run.of("memory")

    def per_child(fn, recs):
        return _median([fn(r["functions"]) for r in recs])

    kind = source[0]
    if kind in ("import_s", "transitions_mb"):
        return _median([r[kind] for r in run.records if r["mode"] != "warmup"])
    if kind == "overhead":  # paired with the untraced child of the same cycle
        return _median([_ref_seconds(t, "train") - _ref_seconds(r, "train")
                        for r, t in zip(run.of("run"), traced)])
    if kind == "module_self":
        return per_child(lambda f: sum(v["self_s"] for k, v in f.items()
                                       if k.startswith(source[1])), traced)
    if kind == "peak_mb" and "memory" not in _cycle(run.spec, True):
        return 0.0
    recs = memory if kind == "peak_mb" else traced
    return per_child(lambda f: sum(f.get(s, {}).get(kind, 0)
                                   for s in source[1:]), recs)


def _per_layer(run):
    return {name: (_layer_value(run, source), unit)
            for name, unit, source in LAYER_METRICS}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "firl", "cli.py")):
        print("perfbench: no firl sources under %s" % SRC, file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(args.workload, args.seed, work)
        _measure(run, args.seconds, args.trace)
        metrics = _per_layer(run) if args.trace else _end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    versions = next((r["versions"] for r in run.records), None)
    print(json.dumps({
        "env": {"versions": versions, "nproc": len(os.sched_getaffinity(0)),
                "threads": THREAD_ENV, "ref_s": REF_S, "workload": args.workload,
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace},
        "failures": run.failed,
        "samples": [{k: v for k, v in r.items() if k != "functions"}
                    for r in run.records],
    }))
    values = {k: v for k, v in metrics.items() if math.isfinite(v[0])}
    failed = len(run.failed)
    print(json.dumps({
        "correct": failed == 0 and len(values) == len(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
