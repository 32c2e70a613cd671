"""Tests of the child's speed probe.

    python3 -m pytest perfbench/tests
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import child  # noqa: E402


def _fake_probe(monkeypatch, durations):
    """A probe whose kernel advances a fake wall clock by each duration."""
    now = [0.0]
    monkeypatch.setattr(child.time, "perf_counter", lambda: now[0])
    durations = iter(durations)

    def kernel():
        now[0] += next(durations)

    return child.SpeedProbe(kernel=kernel), now


def test_clock_leaves_out_samples_and_speed_is_per_window(monkeypatch):
    probe, now = _fake_probe(monkeypatch, [1.0, 3.0, 2.0])
    a = probe.clock()
    probe.sample()
    now[0] += 5.0          # program time
    b = probe.clock()
    probe.sample()
    now[0] += 1.0
    probe.sample()
    now[0] += 1.0
    c = probe.clock()
    assert (a, b, c) == (0.0, 5.0, 7.0)
    assert probe.speed(a, b) == 1.0
    assert probe.speed(b, c) == 2.5


def test_a_signal_during_a_sample_is_ignored(monkeypatch):
    probe, now = _fake_probe(monkeypatch, [1.0, 1.0])
    inner = probe.kernel

    def kernel():
        inner()
        probe.sample()     # as the handler would, were the timer to fire

    probe.kernel = kernel
    probe.sample()
    assert probe.samples == [(0.0, 1.0)]
    assert probe.clock() == 0.0
