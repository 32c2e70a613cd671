"""One firl CLI invocation in a fresh process, timed around the CLI.

    python3 child.py --mode MODE --record PATH -- FIRL_ARGS...

The clock starts just before `import firl`. A hook on every binding of
`trainer.run_firl` marks set-up's end (its first call) and training's
end (its return). A SpeedProbe samples the machine's speed throughout;
the record gives each phase's time without the probe's samples and the
mean kernel time of the samples taken in that phase. Modes:

  setup   stop at the first run_firl call; only set-up is timed
  run     the whole command, untraced
  trace   the whole command with every public firl function wrapped;
          the record lists bindings the wrapping missed or doubled
  memory  as trace, with tracemalloc on inside PEAK_SPANS calls

The measurements go to PATH as JSON. The exit code is the CLI's.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402

MODES = ("setup", "run", "trace", "memory")
# Spans whose calls run under tracemalloc in memory mode.
PEAK_SPANS = ("grad_engine.analytic_grad_exact", "soft_solver.pairwise_marginals")
# Wall time between probe samples; each sample takes about 8 ms.
PROBE_PERIOD_S = 0.2


class SetupDone(BaseException):
    """Ends a setup-only child at run_firl. A BaseException, so the
    CLI's own error handlers let it through."""


def _firl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "firl" or name.startswith("firl.")]


def reference_kernel():
    """A fixed pure-Python workload. It imports nothing, so sampling it
    before `import firl` leaves set-up's imports in set-up."""
    total = 0
    for i in range(50000):
        total += i * i % 7
    acc = {}
    for i in range(17000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    return total, acc


class SpeedProbe:
    """Times a kernel on demand and, once started, every period_s of
    wall time from a SIGALRM handler, so that samples fall throughout
    the program's run in its own process.

    clock() is wall time less the time spent in samples: phases timed
    with it exclude the probe. speed(a, b) is the mean kernel time of
    the samples taken at clock() times in [a, b)."""

    def __init__(self, kernel=reference_kernel, period_s=PROBE_PERIOD_S):
        self.kernel = kernel
        self.period_s = period_s
        self.spent = 0.0
        self.samples = []   # (clock() at the sample, kernel wall time)
        self._busy = False

    def clock(self):
        return time.perf_counter() - self.spent

    def sample(self, *_):
        if self._busy:  # a signal that arrives during a sample
            return
        self._busy = True
        stamp = self.clock()
        start = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - start
        self.samples.append((stamp, took))
        self.spent += took
        self._busy = False

    def speed(self, a, b):
        return statistics.mean(t for at, t in self.samples if a <= at < b)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--record", required=True)
    p.add_argument("firl_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    firl_args = args.firl_args
    if firl_args[:1] == ["--"]:
        firl_args = firl_args[1:]

    # Each phase begins with a sample, so neither is left without one.
    # Memory children time nothing, and tracemalloc would slow the
    # kernel tenfold, so they take no periodic samples.
    probe = SpeedProbe()
    if args.mode != "memory":
        probe.start()
    t0 = probe.clock()
    probe.sample()
    import firl.cli
    import_s = probe.clock() - t0

    import numpy
    import scipy
    modules = _firl_modules()
    patches = tracing.Patches(modules)
    tracer = None
    if args.mode in ("trace", "memory"):
        peaks = PEAK_SPANS if args.mode == "memory" else ()
        tracer = tracing.Tracer(clock=probe.clock, peak_spans=peaks)
        tracing.install(tracer, patches, modules, "firl.")

    marks = {}
    inner = vars(sys.modules["firl.trainer"])["run_firl"]

    def timed_run_firl(mdp, *a, **k):
        if "start" not in marks:
            marks["start"] = probe.clock()
            probe.sample()
        marks["transitions_bytes"] = mdp.transitions.nbytes
        if args.mode == "setup":
            raise SetupDone
        try:
            return inner(mdp, *a, **k)
        finally:
            marks["end"] = probe.clock()

    patches.replace(inner, timed_run_firl)
    coverage = []
    try:
        try:
            rc = firl.cli.cli_main(firl_args)
        except SetupDone:
            rc = 0
        if tracer is not None:
            coverage = tracing.coverage_problems(_firl_modules())
    finally:
        probe.stop()
        patches.restore()

    record = {
        "mode": args.mode,
        "rc": rc,
        "import_s": import_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if "start" in marks:
        record["setup_s"] = marks["start"] - t0
        record["setup_ref_s"] = probe.speed(t0, marks["start"])
        record["transitions_mb"] = marks["transitions_bytes"] / 1e6
    if "end" in marks:
        record["train_s"] = marks["end"] - marks["start"]
        record["train_ref_s"] = probe.speed(marks["start"], marks["end"])
    if tracer is not None:
        record["coverage_problems"] = coverage
        record["functions"] = {
            name: {"calls": st.calls, "incl_s": st.incl_s, "self_s": st.self_s,
                   "peak_mb": st.peak_bytes / 1e6}
            for name, st in tracer.stats.items()}
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
