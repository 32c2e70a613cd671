"""BENCHMARK.json and run.py must name the same workloads and metrics.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_match():
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert declared == {"setup_s": "s", "train_s": "s", "peak_rss_mb": "MB"}


def test_per_layer_metrics_match():
    assert ([(m["name"], m["unit"]) for m in BENCH["per_layer"]]
            == [(name, unit) for name, unit, _ in run.LAYER_METRICS])
