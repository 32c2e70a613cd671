"""Config checks, run artifacts, and the command-line surface.

CLI commands run in-process through cli_main so exit codes and stdout
are asserted directly; every run writes under tmp_path via --out.
"""

import collections
import csv
import functools
import glob
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import types
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firl.cli
import firl.grad_engine
import firl.kl_eval
import firl.run_io as run_io
from firl.cli import cli_main
from firl.divergence import KINDS
from firl.mdp import GRID_ACTIONS, build_gridworld
from firl.reward_model import tabular_reward
from firl.run_io import (ConfigError, default_out_root, emit_heatmap,
                         fmt_float, load_config, make_run_dir,
                         validate_config, write_manifest, write_metrics_csv)
from firl.trainer import ESTIMATORS, METRIC_COLUMNS, RATIO_MODES, TrainConfig


def _read_metrics(path):
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _minimal_cfg(**extra):
    cfg = {"schema_version": 1, "seed": 0, "type": "density_matching",
           "shape": "uniform"}
    cfg.update(extra)
    return cfg


def test_schema_accepts_a_minimal_density_config():
    assert validate_config(_minimal_cfg()) is not None


@pytest.mark.parametrize("breakage", [
    lambda c: c.pop("seed"),
    lambda c: c.update(schema_version=2),
    lambda c: c.update(type="banana"),
    lambda c: c.update(seed="zero"),
    lambda c: c.update(train={"learning_rate": 0.1}),
    lambda c: c.update(train={"eval_expert_samples": 2}),
    lambda c: c.pop("shape"),
    lambda c: c.update(horizn=10),
    lambda c: c.update(train={"iterations": 1.5}),
    lambda c: c.update(train={"iterations": True}),
    lambda c: c.update(train={"kind": "tv"}),
    lambda c: c.update(train={"optimizer": "sgd"}),
    lambda c: c.update(train={"iterations": 2.0}),
    lambda c: c.update(train={"grad_steps_per_iter": 1}),
    lambda c: c.update(train={"weight_decay": 0.0}),
    lambda c: c.update(schema_version=1.0),
])
def test_schema_rejects_malformed_configs(breakage):
    cfg = _minimal_cfg()
    breakage(cfg)
    with pytest.raises(ConfigError, match="config rejected"):
        validate_config(cfg)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_fmt_float_round_trips_doubles():
    for x in (1 / 3, 1e-17, -2.5, 6.02214076e23, 0.1 + 0.2):
        assert float(fmt_float(x)) == x
    assert fmt_float(float("nan")) == "nan"


def test_metrics_csv_round_trip_with_nan_holes(tmp_path):
    rows = []
    for i in range(3):
        row = {c: float(i) + 0.1 * j for j, c in enumerate(METRIC_COLUMNS)}
        row["iteration"] = i
        if i == 1:
            row["return"] = float("nan")
        rows.append(row)
    path = str(tmp_path / "m.csv")
    write_metrics_csv(path, rows)
    back = _read_metrics(path)
    assert len(back) == 3
    for orig, rec in zip(rows, back):
        for c in METRIC_COLUMNS:
            if math.isnan(orig[c]):
                assert math.isnan(rec[c])
            else:
                assert rec[c] == orig[c]


def test_heatmap_layout_and_determinism(tmp_path):
    mdp = build_gridworld(2, 2, horizon=2)
    model = tabular_reward(4)
    model.params[:] = [0.0, 1 / 3, -2.0, 7.0]
    path = str(tmp_path / "h.csv")
    emit_heatmap(model, mdp, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "state,x,y,reward_value"
    assert len(lines) == 5
    assert lines[1].startswith("0,0.5,0.5,")
    assert float(lines[2].split(",")[3]) == 1 / 3
    first = open(path, "rb").read()
    emit_heatmap(model, mdp, path)
    assert open(path, "rb").read() == first
    with pytest.raises(ValueError, match="covers 3 states"):
        emit_heatmap(np.zeros(3), mdp, path)


def _legacy_tables(values):
    """The four tables as each writer formatted its rows by hand before
    write_csv owned the format: (file, columns, rows, expected bytes)."""
    fmt = fmt_float
    metrics = [dict(zip(METRIC_COLUMNS, [i] + values[i:] + values[:i]))
               for i in range(len(METRIC_COLUMNS) - 1)]
    heat_cols = ("state", "x", "y", "reward_value")
    heat = [dict(zip(heat_cols, (s, v, -v, values[s - 1])))
            for s, v in enumerate(values)]
    grad_cols = ("instance", "n_states", "n_actions", "horizon", "kind",
                 "reward_kind", "rel_error")
    grad = [dict(zip(grad_cols, (i, np.int64(9), 5, 3, kind, "mlp", v)))
            for i, (kind, v) in enumerate(zip(("fkl", "rkl", "js", "fkl"), values))]
    prior_cols = ("lambda", "alpha", "return")
    prior = [dict(zip(prior_cols, (v, values[-1], -v))) for v in values]
    return [
        ("metrics.csv", METRIC_COLUMNS, metrics,
         [",".join(METRIC_COLUMNS)] + [",".join(["%d" % r["iteration"]] + [
             fmt(r[c]) for c in METRIC_COLUMNS[1:]]) for r in metrics]),
        ("heatmap.csv", heat_cols, heat, ["state,x,y,reward_value"] + [
            "%d,%s,%s,%s" % (r["state"], fmt(r["x"]), fmt(r["y"]),
                             fmt(r["reward_value"])) for r in heat]),
        ("gradcheck.csv", grad_cols, grad, [",".join(grad_cols)] + [
            "%d,%d,%d,%d,%s,%s,%s" % (r["instance"], r["n_states"], r["n_actions"],
                                      r["horizon"], r["kind"], r["reward_kind"],
                                      fmt(r["rel_error"])) for r in grad]),
        ("prior_heatmap.csv", prior_cols, prior, ["lambda,alpha,return"] + [
            "%s,%s,%s" % (fmt(r["lambda"]), fmt(r["alpha"]), fmt(r["return"]))
            for r in prior]),
    ]


def test_write_csv_keeps_the_hand_written_formats_byte_for_byte(tmp_path):
    values = [float("nan"), float("inf"), -0.0, 1 / 3, -float("inf"),
              np.float64(2.5e-300), 6.02214076e23]
    for name, columns, rows, lines in _legacy_tables(values):
        path = run_io.write_csv(str(tmp_path / name), columns, rows)
        assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode()


def test_manifest_contents_and_atomicity(tmp_path):
    run_dir = str(tmp_path)
    for name in ("b.csv", "a.json"):
        (tmp_path / name).write_text("x\n")
    write_manifest(run_dir, {"seed": 4},
                   "2026-01-01T00:00:00Z", "2026-01-01T00:00:05Z")
    payload = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert payload["schema_version"] == 1
    assert payload["seed"] == 4
    assert payload["outputs"] == ["a.json", "b.csv"]
    assert payload["config"] == {"seed": 4}
    assert "version" in payload and payload["started"] < payload["ended"]
    assert not os.path.exists(os.path.join(run_dir, "manifest.json.tmp"))


def test_out_root_env_override(monkeypatch):
    monkeypatch.delenv("FIRL_OUT_ROOT", raising=False)
    assert default_out_root() == "runs"
    monkeypatch.setenv("FIRL_OUT_ROOT", "/tmp/elsewhere")
    assert default_out_root() == "/tmp/elsewhere"


def test_run_dirs_never_collide(tmp_path, monkeypatch):
    monkeypatch.setattr(run_io.time, "strftime",
                        lambda fmt, t=None: "20260101T000000Z")
    a = make_run_dir("job", str(tmp_path))
    b = make_run_dir("job", str(tmp_path))
    c = make_run_dir("job", str(tmp_path))
    assert a.endswith("20260101T000000Z")
    assert b.endswith("-1") and c.endswith("-2")
    assert all(os.path.isdir(p) for p in (a, b, c))


def test_run_dir_creation_survives_a_race(tmp_path, monkeypatch):
    # another process creates the directory between the check and mkdir
    monkeypatch.setattr(run_io.time, "strftime",
                        lambda fmt, t=None: "20260101T000000Z")
    base = tmp_path / "job" / "20260101T000000Z"
    base.mkdir(parents=True)
    monkeypatch.setattr(run_io.os.path, "exists", lambda path: False)
    path = make_run_dir("job", str(tmp_path))
    assert path == str(base) + "-1"
    assert os.path.isdir(path)


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


_TINY_DENSITY = {
    "schema_version": 1, "seed": 0, "type": "density_matching",
    "name": "tiny", "shape": "uniform", "grid": [3, 3], "horizon": 5,
    "train": {"iterations": 2, "eval_every": 1},
}

_TINY_IRL = {
    "schema_version": 1, "seed": 0, "type": "irl_from_trajectories",
    "name": "tiny-irl", "grid": [3, 3], "horizon": 6,
    "n_expert_traj": 4, "pool_size": 20, "gt_reward": {"8": 1.0},
    "train": {"iterations": 3, "batch_size": 16, "eval_every": 3},
}


def _nested(payload):
    """payload as the scenario of a transfer or eval config, whose top
    level owns the seed, schema_version and run name."""
    return {k: v for k, v in payload.items()
            if k not in ("schema_version", "seed", "name")}


def test_cli_train_writes_a_complete_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    assert cli_main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    assert os.path.basename(os.path.dirname(run_dir)) == "tiny"
    for name in ("metrics.csv", "reward.json", "heatmap.csv", "manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    rows = _read_metrics(os.path.join(run_dir, "metrics.csv"))
    assert len(rows) == 2 and np.isfinite(rows[-1]["lf_exact"])
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["outputs"] == ["heatmap.csv", "metrics.csv", "reward.json"]
    assert manifest["status"] == "ok" and "error" not in manifest


def test_cli_a_failed_run_leaves_a_failed_manifest(tmp_path, monkeypatch, capsys):
    # a NaN pair contraction makes the exact gradient non-finite in
    # iteration 0, after the run directory exists
    monkeypatch.setattr(firl.grad_engine, "pairwise_marginals",
                        lambda mdp, sol, h: (np.full(mdp.n_states, np.nan),) * 2)
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "non-finite gradient" in capsys.readouterr().err
    [path] = glob.glob(str(out / "tiny" / "*" / "manifest.json"))
    manifest = json.load(open(path))
    assert manifest["status"] == "failed"
    assert manifest["error"] == "exact produced a non-finite gradient"
    assert manifest["outputs"] == [] and manifest["seed"] == 0


def test_cli_a_failed_manifest_lists_the_files_written_before_the_failure(
        tmp_path, monkeypatch, capsys):
    def broken_heatmap(model, mdp, path):
        open(path, "w").write("state")
        raise ValueError("the heatmap failed")
    monkeypatch.setattr(firl.cli, "emit_heatmap", broken_heatmap)
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "the heatmap failed" in capsys.readouterr().err
    [path] = glob.glob(str(out / "tiny" / "*" / "manifest.json"))
    manifest = json.load(open(path))
    assert manifest["status"] == "failed"
    assert manifest["outputs"] == ["heatmap.csv", "metrics.csv", "reward.json"]


def test_cli_fails_a_run_whose_gradient_squares_overflow(tmp_path, capsys):
    # at alpha = 1e-300 every gradient entry is finite, near 1 / alpha,
    # but its square is not: the run stops before the norm and Adam's step
    payload = dict(_TINY_DENSITY, train=dict(_TINY_DENSITY["train"], alpha=1e-300))
    cfg = _write_cfg(tmp_path, "d.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "iteration 0: a gradient entry of" in capsys.readouterr().err
    [path] = glob.glob(str(out / "tiny" / "*" / "manifest.json"))
    manifest = json.load(open(path))
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("iteration 0: a gradient entry of")


def test_cli_fails_a_run_whose_objective_goes_infinite(tmp_path, capsys):
    # every cell of the tiny grid is reachable, so fkl is finite until a
    # huge first step leaves the policy no mass on part of the target
    payload = dict(_TINY_DENSITY, train=dict(_TINY_DENSITY["train"],
                                             reward_lr=1e10))
    cfg = _write_cfg(tmp_path, "d.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "iteration 1: the policy puts no mass on state" in capsys.readouterr().err
    [path] = glob.glob(str(out / "tiny" / "*" / "manifest.json"))
    manifest = json.load(open(path))
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("iteration 1: the policy puts no mass on state")


def test_cli_a_run_that_fails_mid_loop_leaves_no_thread_behind(tmp_path, capsys,
                                                               monkeypatch):
    # the collapse above fails iteration 1 after a slowed cloud build;
    # the failed run leaves no thread running
    original = firl.kl_eval._kth_distance

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return original(*args, **kwargs)

    monkeypatch.setattr(firl.kl_eval, "_kth_distance", slow)
    payload = dict(_TINY_DENSITY, train=dict(_TINY_DENSITY["train"],
                                             reward_lr=1e10))
    cfg = _write_cfg(tmp_path, "d.json", payload)
    before = threading.active_count()
    assert cli_main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "iteration 1: the policy puts no mass on state" in capsys.readouterr().err
    assert threading.active_count() == before


def test_cli_a_failed_cloud_build_leaves_a_failed_manifest(tmp_path, monkeypatch):
    # check_cloud's set-up import of the tree passes; building the tree
    # fails inside run_firl, before iteration 0
    class TreeFailure(Exception):
        pass

    class FailingTree:
        def __init__(self, *args, **kwargs):
            raise TreeFailure("the cloud's tree failed")

    monkeypatch.setattr(firl.kl_eval, "_ckdtree", lambda: FailingTree)
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    out = tmp_path / "out"
    with pytest.raises(TreeFailure):
        cli_main(["train", "--config", cfg, "--out", str(out)])
    [path] = glob.glob(str(out / "tiny" / "*" / "manifest.json"))
    manifest = json.load(open(path))
    assert manifest["status"] == "failed"
    assert manifest["error"] == "the cloud's tree failed"
    assert manifest["outputs"] == []


def test_cli_trains_a_density_on_a_one_cell_grid(tmp_path):
    # the one centre has no other centre, so its cell gap reads inf
    payload = dict(_TINY_DENSITY, grid=[1, 1])
    cfg = _write_cfg(tmp_path, "d.json", payload)
    assert cli_main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("payload, it", [
    (dict(_TINY_DENSITY, train=dict(_TINY_DENSITY["train"], kind="js",
                                    reward_lr=1e10)), 1),
    (dict(_TINY_IRL, train=dict(_TINY_IRL["train"], reward_lr=1e10,
                                eval_every=1)), 1),
], ids=["js-on-a-density", "mixture-on-demos"])
def test_cli_fails_a_run_whose_policy_collapses(tmp_path, capsys, payload, it):
    # js stays finite and a run on demonstrations has no exact column, so
    # only the marginal on the expert's reachable states shows the collapse
    cfg = _write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    message = "iteration %d: the policy puts no mass on state" % it
    assert message in capsys.readouterr().err
    [path] = glob.glob(str(out / payload["name"] / "*" / "manifest.json"))
    manifest = json.load(open(path))
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith(message)


def test_cli_refuses_the_evaluation_rollout_count(tmp_path, capsys):
    # the agent side of the KL columns is exact, so no rollouts are drawn
    payload = dict(_TINY_DENSITY,
                   train=dict(_TINY_DENSITY["train"], eval_agent_trajectories=20))
    cfg = _write_cfg(tmp_path, "d.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "eval_agent_trajectories" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("train", [{"ratio_mode": "kde_pair"},
                                   {"kde_bandwidth": 0.2},
                                   {"eval_expert_samples": 10000}],
                         ids=["kde-pair-mode", "kde-bandwidth",
                              "eval-expert-samples"])
def test_cli_refuses_the_retired_kde_ratio_route(tmp_path, capsys, train):
    # the discriminator is the one sampled ratio route, and a density's
    # kNN cloud is a fixed 10,000 visits
    payload = dict(_TINY_IRL, train=dict(_TINY_IRL["train"], **train))
    cfg = _write_cfg(tmp_path, "i.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert next(iter(train)) in capsys.readouterr().err
    assert not out.exists()


_SHIPPED = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "scenarios", "*.json")))


@pytest.mark.parametrize("path", _SHIPPED, ids=os.path.basename)
def test_every_shipped_scenario_loads_and_builds(path):
    cfg = load_config(path)
    if cfg["type"] == "transfer":
        cfg = firl.cli._nested_scenario(cfg)
    if cfg["type"] != "prior_downstream":
        # the builders run every library check on the train block
        firl.cli._build_scenario(cfg)


def _run_fresh(code, args=()):
    """Run code in a fresh interpreter that imports firl from this tree:
    a pytest plugin may have imported a module here already."""
    src = os.path.dirname(os.path.dirname(firl.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", code] + list(args), env=env, check=True)


def test_loading_every_shipped_scenario_imports_no_schema_validator():
    code = ("import sys, firl.cli\n"
            "for path in sys.argv[1:]:\n"
            "    firl.cli.load_config(path)\n"
            "assert 'jsonschema' not in sys.modules\n")
    _run_fresh(code, _SHIPPED)


def test_importing_the_cli_loads_every_firl_module():
    # perfbench/child.py wraps the public functions of the firl modules
    # loaded by `import firl.cli`; a module imported later would escape
    # the tracing and leave its spans without calls
    src = os.path.dirname(os.path.dirname(firl.cli.__file__))
    modules = sorted("firl." + name[:-3]
                     for name in os.listdir(os.path.join(src, "firl"))
                     if name.endswith(".py") and name != "__init__.py")
    assert "firl.run_io" in modules and "firl.cli" in modules
    code = ("import sys, firl.cli\n"
            "missing = [m for m in sys.argv[1:] if m not in sys.modules]\n"
            "assert not missing, missing\n")
    _run_fresh(code, modules)


def test_a_run_on_demonstrations_imports_no_scipy(tmp_path):
    # the demos' cloud is small enough for the direct search
    cfg = _write_cfg(tmp_path, "irl.json", _TINY_IRL)
    code = ("import sys\n"
            "from firl.cli import cli_main\n"
            "assert cli_main(['train', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "loaded = [m for m in ('scipy.special', 'scipy.spatial') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    _run_fresh(code, [cfg, str(tmp_path / "out")])


def test_check_expert_fit_loads_the_tree_for_a_density_cloud():
    # the 10,000 visits drawn from a density take the tree, which loads
    # in the check, on the calling thread, before the cloud's worker starts
    code = ("import sys\n"
            "import numpy as np\n"
            "from firl.mdp import build_gridworld\n"
            "from firl.trainer import TrainConfig, check_expert_fit\n"
            "assert 'scipy.spatial' not in sys.modules\n"
            "check_expert_fit(build_gridworld(3, 3, horizon=4), np.full(9, 1 / 9),\n"
            "                 TrainConfig(seed=0))\n"
            "assert 'scipy.spatial' in sys.modules\n")
    _run_fresh(code)


def _benchmark_workloads():
    # perfbench/run.py, loaded by path, names the spans its traced children
    # require to record calls: module (without "firl.") and function
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


_WORKLOADS = _benchmark_workloads()
_IRL_DEMOS_SPANS = _WORKLOADS["irl_demos"]["spans"]
_DENSITY_SPANS = sorted(set(_WORKLOADS["gauss_exact"]["spans"])
                        | set(_WORKLOADS["grid_large"]["spans"]))


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_every_benchmark_config_validates_and_builds(workload):
    # the config as perfbench/run.py's Run writes it, and the transitions
    # perfbench/child.py reads off the built mdp: a key the benchmark still
    # sets, once retired, fails here rather than in every benchmark child
    cfg = validate_config(dict(_WORKLOADS[workload]["config"], schema_version=1,
                               seed=0, name=workload))
    mdp = firl.cli._build_scenario(cfg).mdp
    assert mdp.transitions.shape == (mdp.n_states, mdp.n_actions, mdp.n_states)


def _count_public_calls(monkeypatch):
    # a traced benchmark child fails when a required span records no call,
    # so these runs count every public firl function
    calls = collections.Counter()

    def counted(span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("firl.")]
    public = {id(fn): (fn, counted("%s.%s" % (m.__name__[5:], name), fn))
              for m in modules for name, fn in vars(m).items()
              if isinstance(fn, types.FunctionType) and not name.startswith("_")
              and fn.__module__ == m.__name__}
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in public and value is public[id(value)][0]:
                monkeypatch.setattr(module, name, public[id(value)][1])
    return calls


def test_an_irl_scenario_calls_every_span_the_traced_benchmark_requires(
        tmp_path, capsys, monkeypatch):
    calls = _count_public_calls(monkeypatch)
    cfg = _write_cfg(tmp_path, "irl.json", _TINY_IRL)
    assert cli_main(["scenario", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [span for span in _IRL_DEMOS_SPANS if calls[span] == 0] == []


def test_a_density_run_calls_every_span_the_traced_benchmark_requires(
        tmp_path, capsys, monkeypatch):
    # gauss_exact and grid_large train density_matching configs
    calls = _count_public_calls(monkeypatch)
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    assert cli_main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [span for span in _DENSITY_SPANS if calls[span] == 0] == []


def test_mixture_runs_that_differ_only_in_batch_size_write_one_metrics_csv(
        tmp_path, capsys):
    # mixture draws no rollouts, so batch_size reaches nothing it computes
    texts = []
    for batch_size in (16, 64):
        payload = dict(_TINY_IRL, train=dict(_TINY_IRL["train"],
                                             batch_size=batch_size))
        cfg = _write_cfg(tmp_path, "b%d.json" % batch_size, payload)
        out = tmp_path / str(batch_size)
        assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 0
        run_dir = capsys.readouterr().out.strip()
        with open(os.path.join(run_dir, "metrics.csv")) as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]


def test_cli_seed_flag_overrides_the_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    assert cli_main(["train", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "7"]) == 0
    run_dir = capsys.readouterr().out.strip()
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["seed"] == 7 and manifest["config"]["seed"] == 7


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_cli_rejects_a_negative_seed_before_any_run(tmp_path, capsys,
                                                    command):
    argv = [command, "--seed", "-1", "--out", str(tmp_path / "out")]
    if command == "train":
        argv += ["--config", _write_cfg(tmp_path, "d.json", _TINY_DENSITY)]
    assert cli_main(argv) == 1
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_builds_the_scenario_before_the_run_directory(tmp_path, capsys):
    payload = dict(_TINY_IRL, n_expert_traj=8, pool_size=4)
    cfg = _write_cfg(tmp_path, "i.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "pool_size must cover n_expert_traj" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    (dict(_TINY_DENSITY, train=dict(_TINY_DENSITY["train"], estimator="mixture")),
     "mixture estimator needs expert trajectories"),
    (dict(_TINY_DENSITY, train=dict(_TINY_DENSITY["train"],
                                    ratio_mode="discriminator")),
     "discriminator ratio mode needs expert state samples"),
    (dict(_TINY_IRL, train=dict(_TINY_IRL["train"], ratio_mode="exact_table")),
     "exact_table ratio mode needs an expert density"),
    (dict(_TINY_IRL, n_expert_traj=1, horizon=2), "expert cloud holds 2"),
    (dict(_TINY_IRL, train=dict(_TINY_IRL["train"], estimator="exact")),
     "exact estimator needs an expert density"),
], ids=["mixture-on-a-density", "discriminator-on-a-density", "exact-table-on-demos",
        "expert-cloud-below-k", "exact-on-demos"])
def test_cli_refuses_a_misfit_before_the_run_directory(tmp_path, capsys, payload,
                                                       message):
    cfg = _write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gt", [{"3": None}, {"3": [1]}, {"3": {"a": 1}},
                                {"x": 1}, [0.0] * 8 + [None]],
                         ids=["null", "array", "object", "not-a-state",
                              "null-entry"])
def test_cli_refuses_a_gt_reward_that_is_not_numbers(tmp_path, capsys, gt):
    cfg = _write_cfg(tmp_path, "i.json", dict(_TINY_IRL, gt_reward=gt))
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "firl: error:" in err and "gt_reward" in err
    assert not out.exists()


@pytest.mark.parametrize("gt", [{"8": 1.0, "08": -5.0}, {"\u0668": 1.0}, {"9": 1.0}],
                         ids=["leading-zero", "non-ascii-digit", "past-the-grid"])
def test_cli_refuses_a_gt_reward_key_that_is_not_a_canonical_state(tmp_path, capsys,
                                                                   gt):
    # "08" and "8" both named state 8, and the last of them won
    cfg = _write_cfg(tmp_path, "i.json", dict(_TINY_IRL, gt_reward=gt))
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "firl: error: gt_reward key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ('{"schema_version": 1, "seed": 0, "seed": 7, "type": "density_matching",'
     ' "name": "tiny", "shape": "uniform", "grid": [3, 3], "horizon": 5,'
     ' "train": {"iterations": 2, "eval_every": 1}}', "seed"),
    ('{"schema_version": 1, "seed": 0, "type": "density_matching",'
     ' "name": "tiny", "shape": "uniform", "grid": [3, 3], "horizon": 5,'
     ' "train": {"iterations": 2, "iterations": 3, "eval_every": 1}}', "iterations"),
], ids=["top-level", "train-block"])
def test_cli_refuses_a_key_that_appears_twice(tmp_path, capsys, text, key):
    # json keeps the last value, so this trained with seed 7 or for 3
    # iterations while the manifest recorded only that value
    cfg = tmp_path / "dup.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'%s' appears twice" % key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    # used to raise numpy's "Unable to allocate 2.88 PiB" uncaught
    (dict(_TINY_DENSITY, grid=[3000, 3000]), "dense transitions (S, A, S)"),
    # used to create the run directory, then loop in reachable_states
    (dict(_TINY_DENSITY, grid=[2, 2], horizon=10 ** 12), "step tables (T, S, A, K)"),
    # used to raise numpy's "Unable to allocate 94.6 TiB" uncaught
    (dict(_TINY_IRL, pool_size=10 ** 12), "rollout uniforms (2T+1, n)"),
    # used to create the run directory, then raise the same uncaught
    (dict(_TINY_IRL, train=dict(_TINY_IRL["train"], estimator="mc",
                                batch_size=10 ** 12)),
     "rollout uniforms (2T+1, n)"),
], ids=["grid", "horizon", "pool_size", "batch_size"])
def test_cli_refuses_a_table_past_the_byte_cap(tmp_path, capsys, payload, message):
    cfg = _write_cfg(tmp_path, "big.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("firl: error: " + message) and "past the cap" in err
    assert not out.exists()


def test_cli_refuses_a_prior_sweep_past_the_byte_cap(tmp_path, capsys):
    # used to exit 1 only after creating the run directory
    cfg = _write_cfg(tmp_path, "p.json", {
        "schema_version": 1, "seed": 0, "type": "prior_downstream",
        "prior": [0.0] * 36, "horizon": 10 ** 12,
    })
    out = tmp_path / "out"
    assert cli_main(["scenario", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("firl: error: step tables (T, S, A, K)")
    assert "past the cap" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["../esc", "TMP/abs", "a/b", "", ".", "..",
                                  "nul\0"])
def test_cli_refuses_a_name_that_is_not_one_directory(tmp_path, capsys, name):
    # the run directory is <out>/<name>/<stamp>, so each of these would
    # write outside <out>, or nest or drop the name level
    payload = dict(_TINY_DENSITY, name=name.replace("TMP", str(tmp_path)))
    cfg = _write_cfg(tmp_path, "d.json", payload)
    assert cli_main(["train", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
    assert "config rejected: name" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["d.json"]


@pytest.mark.parametrize("command, key", [("transfer", "seed"),
                                          ("transfer", "schema_version"),
                                          ("eval", "seed")])
def test_cli_refuses_a_seed_inside_the_nested_scenario(tmp_path, capsys,
                                                       command, key):
    # a nested seed once trained in place of the top-level seed and
    # --seed, while the manifest recorded the other
    payload = {"schema_version": 1, "seed": 0, "type": command,
               "scenario": dict(_nested(_TINY_IRL), **{key: 1})}
    if command == "eval":
        payload["reward_file"] = str(tmp_path / "reward.json")
    cfg = _write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert cli_main([command, "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == 1
    assert "without seed or schema_version" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gradcheck_emits_the_sweep_table(tmp_path, capsys):
    assert cli_main(["gradcheck", "--instances", "3",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "worst rel_error" in out
    run_dir = out.split()[0]
    lines = open(os.path.join(run_dir, "gradcheck.csv")).read().splitlines()
    assert lines[0] == ("instance,n_states,n_actions,horizon,kind,"
                        "reward_kind,rel_error")
    assert len(lines) == 4
    assert all(float(l.split(",")[-1]) < 1e-4 for l in lines[1:])


def test_cli_gradcheck_fails_loud_on_a_bad_gradient(tmp_path, capsys,
                                                    monkeypatch):
    fake = [{"instance": 0, "n_states": 3, "n_actions": 2, "horizon": 2,
             "kind": "fkl", "reward_kind": "tabular", "rel_error": 0.5}]
    monkeypatch.setattr(firl.cli, "gradcheck_suite",
                        lambda n_instances, seed: fake)
    assert cli_main(["gradcheck", "--instances", "1",
                     "--out", str(tmp_path)]) == 2
    assert "worst rel_error 0.5" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_gradcheck_rejects_an_empty_sweep(tmp_path, capsys, count):
    out = tmp_path / "out"
    assert cli_main(["gradcheck", "--instances", count, "--out", str(out)]) == 1
    assert "--instances must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_eval_scores_a_stored_reward(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    cli_main(["train", "--config", cfg, "--out", str(tmp_path)])
    run_dir = capsys.readouterr().out.strip()
    eval_cfg = {
        "schema_version": 1, "seed": 0, "type": "eval",
        "reward_file": os.path.join(run_dir, "reward.json"),
        "scenario": _nested(_TINY_DENSITY),
    }
    path = _write_cfg(tmp_path, "e.json", eval_cfg)
    assert cli_main(["eval", "--config", path, "--out", str(tmp_path)]) == 0
    eval_dir = capsys.readouterr().out.strip()
    report = json.load(open(os.path.join(eval_dir, "eval.json")))
    assert report["alpha"] == 1.0
    assert np.isfinite(report["exact_fkl"]) and np.isfinite(report["exact_rkl"])
    assert "return" not in report


def test_cli_eval_of_an_irl_scenario_writes_no_exact_divergence(tmp_path, capsys):
    # the scenario's soft-optimal expert marginal is not the demos the
    # reward was trained on, and the demos have no exact density
    cfg = _write_cfg(tmp_path, "i.json", _TINY_IRL)
    cli_main(["train", "--config", cfg, "--out", str(tmp_path)])
    run_dir = capsys.readouterr().out.strip()
    path = _write_cfg(tmp_path, "e.json", {
        "schema_version": 1, "seed": 0, "type": "eval",
        "reward_file": os.path.join(run_dir, "reward.json"),
        "scenario": _nested(_TINY_IRL),
    })
    assert cli_main(["eval", "--config", path, "--out", str(tmp_path)]) == 0
    eval_dir = capsys.readouterr().out.strip()
    report = json.load(open(os.path.join(eval_dir, "eval.json")))
    assert set(report) == {"alpha", "return"}
    assert np.isfinite(report["return"])


@pytest.mark.parametrize("content", [
    '{"params": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}',
    '{"kind": "tabular", "params": [0.0], "clamp": 5}',
    '{"kind": "tabular", "params": [0.0',
    '{"kind": "linear", "params": [0.0], "features": [[1.0]]}',
], ids=["missing-key", "wrong-type", "bad-json", "linear-kind"])
def test_cli_eval_rejects_a_malformed_reward_file(tmp_path, capsys, content):
    reward = tmp_path / "reward.json"
    reward.write_text(content)
    path = _write_cfg(tmp_path, "e.json", {
        "schema_version": 1, "seed": 0, "type": "eval",
        "reward_file": str(reward),
        "scenario": _nested(_TINY_DENSITY),
    })
    out = tmp_path / "out"
    assert cli_main(["eval", "--config", path, "--out", str(out)]) == 1
    assert ("firl: error: reward file %s is malformed" % reward
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_scenario_summarizes_an_irl_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "i.json", _TINY_IRL)
    assert cli_main(["scenario", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    summary = json.load(open(os.path.join(run_dir, "summary.json")))
    assert set(summary["final"]) == {"exact_fkl", "exact_rkl", "lf_exact",
                                     "return"}
    assert "ratio" in summary["retrain"]
    assert "offset" in summary["recovery_fit"]
    assert np.isfinite(summary["expert_demo_return"])


def _strict_json(path):
    """The file parsed by a reader that refuses NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError("non-standard JSON token %s in %s" % (token, path))
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def test_cli_writes_strict_json_with_null_for_non_finite_values(tmp_path, capsys):
    # an IRL run has no exact divergences, and from corner 0 in one step
    # a zero reward misses state 8, on which the uniform target has mass
    cfg = _write_cfg(tmp_path, "i.json", _TINY_IRL)
    assert cli_main(["scenario", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    final = _strict_json(os.path.join(run_dir, "summary.json"))["final"]
    assert final["exact_fkl"] is None and final["lf_exact"] is None
    assert np.isfinite(final["return"])
    reward = run_io.write_reward_json(str(tmp_path / "zero.json"), tabular_reward(9))
    path = _write_cfg(tmp_path, "e.json", {
        "schema_version": 1, "seed": 0, "type": "eval", "reward_file": reward,
        "scenario": _nested(dict(_TINY_DENSITY, horizon=1)),
    })
    assert cli_main(["eval", "--config", path, "--out", str(tmp_path)]) == 0
    eval_dir = capsys.readouterr().out.strip()
    report = _strict_json(os.path.join(eval_dir, "eval.json"))
    assert report["exact_fkl"] is None and np.isfinite(report["exact_rkl"])
    for name in ("summary.json", "manifest.json"):
        _strict_json(os.path.join(run_dir, name))


def test_cli_scenario_runs_the_prior_sweep(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "p.json", {
        "schema_version": 1, "seed": 0, "type": "prior_downstream",
        "prior": [0.0] * 36, "lambda_grid": [0.0, 0.5],
        "alpha_grid": [1.0], "horizon": 6,
    })
    assert cli_main(["scenario", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    lines = open(os.path.join(run_dir, "prior_heatmap.csv")).read().splitlines()
    assert lines[0] == "lambda,alpha,return" and len(lines) == 3
    summary = json.load(open(os.path.join(run_dir, "summary.json")))
    assert summary["improvement"] == pytest.approx(0.0, abs=1e-12)


def test_cli_refuses_a_non_finite_prior(tmp_path, capsys):
    # json reads NaN; a NaN prior once gave an all-NaN heatmap and exit 0
    prior = [0.0] * 36
    prior[3] = float("nan")
    cfg = _write_cfg(tmp_path, "p.json", {
        "schema_version": 1, "seed": 0, "type": "prior_downstream",
        "prior": prior, "lambda_grid": [0.0, 0.5], "alpha_grid": [1.0],
        "horizon": 6,
    })
    out = tmp_path / "out"
    assert cli_main(["scenario", "--config", cfg, "--out", str(out)]) == 1
    assert "firl: error: prior must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_a_prior_and_a_prior_file_together(tmp_path, capsys):
    # the run used to take 'prior' and ignore the file, even a missing one,
    # while the manifest recorded both
    cfg = _write_cfg(tmp_path, "p.json", {
        "schema_version": 1, "seed": 0, "type": "prior_downstream",
        "prior": [0.0] * 36, "prior_file": "does_not_exist.json",
        "lambda_grid": [0.0], "alpha_grid": [1.0], "horizon": 3,
    })
    out = tmp_path / "out"
    assert cli_main(["scenario", "--config", cfg, "--out", str(out)]) == 1
    assert ("firl: error: prior_downstream takes 'prior' or 'prior_file', "
            "not both") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block, key, token", [
    ("train", "alpha", "Infinity"),       # used to fail mid-run, dir left
    ("train", "reward_lr", "Infinity"),   # ditto, naming no iteration
    (None, "sigma", "Infinity"),          # used to exit 0, manifest not JSON
    (None, "sigma", "NaN"),
    ("train", "alpha", "1e400"),          # json reads it as inf
])
def test_cli_refuses_a_non_finite_config_number(tmp_path, capsys, block, key,
                                                token):
    shipped = dict(zip(map(os.path.basename, _SHIPPED), _SHIPPED))
    with open(shipped["gaussian_fkl.json"]) as fh:
        payload = json.load(fh)
    (payload[block] if block else payload)[key] = "@@"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload).replace('"@@"', token))
    out = tmp_path / "out"
    assert cli_main(["train", "--config", str(path), "--out", str(out)]) == 1
    assert ("firl: error: %s must be finite" % key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grids", [
    {"lambda_grid": [0.5, 1.0]},
    {"lambda_grid": []},
    {"alpha_grid": []},
])
def test_cli_prior_sweep_needs_a_control_and_a_temperature(tmp_path, capsys,
                                                           grids):
    payload = {"schema_version": 1, "seed": 0, "type": "prior_downstream",
               "prior": [0.0] * 36, "horizon": 6}
    payload.update(grids)
    cfg = _write_cfg(tmp_path, "p.json", payload)
    out = tmp_path / "out"
    assert cli_main(["scenario", "--config", cfg, "--out", str(out)]) == 1
    assert "firl: error: config rejected" in capsys.readouterr().err
    assert not out.exists()


def test_cli_transfer_scores_on_modified_dynamics(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "t.json", {
        "schema_version": 1, "seed": 0, "type": "transfer",
        "scenario": _nested(_TINY_IRL), "action_remap": {"down": "stay"},
        "slip_override": 0.1,
    })
    assert cli_main(["transfer", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    rec = json.load(open(os.path.join(run_dir, "transfer.json")))
    assert {"ratio", "return_learned", "return_gt"} <= set(rec)
    assert np.isfinite(rec["ratio"])


def test_cli_training_flags_reach_the_transfer_scenario(tmp_path, capsys):
    curves = []
    for train in ({}, {"kind": "js"}):
        scenario = dict(_TINY_IRL, train=dict(_TINY_IRL["train"], **train))
        cfg = _write_cfg(tmp_path, "t.json", {
            "schema_version": 1, "seed": 0, "type": "transfer",
            "scenario": _nested(scenario), "slip_override": 0.1,
        })
        assert cli_main(["transfer", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        run_dir = capsys.readouterr().out.strip()
        curves.append(open(os.path.join(run_dir, "metrics.csv")).read())
    assert curves[0] != curves[1]
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["config"]["scenario"]["train"]["kind"] == "js"


@pytest.mark.parametrize("payload, flags, message", [
    ({"type": "prior_downstream", "prior": [0.0] * 36}, ["--estimator", "mc"],
     "unrecognized arguments: --estimator mc"),
    ({"type": "prior_downstream", "prior": [0.0] * 36, "train": {}}, [],
     "'train' was unexpected"),
    ({"type": "transfer", "scenario": _nested(_TINY_IRL), "train": {"kind": "js"}}, [],
     "'train' was unexpected"),
], ids=["estimator-on-prior", "train-on-prior", "train-on-transfer"])
def test_cli_refuses_training_settings_where_nothing_trains(tmp_path, capsys,
                                                            payload, flags,
                                                            message):
    cfg = _write_cfg(tmp_path, "c.json", dict(payload, schema_version=1, seed=0))
    command = "transfer" if payload["type"] == "transfer" else "scenario"
    out = tmp_path / "out"
    assert cli_main([command, "--config", cfg, "--out", str(out)] + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    assert cli_main(["explode"]) == 1
    assert cli_main(["train"]) == 1
    assert cli_main(["train", "--config", "x.json", "--frobnicate"]) == 1
    assert cli_main(["train", "--config", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert "config file not found" in err


def test_cli_eval_rejects_a_train_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    assert cli_main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "type 'eval'" in capsys.readouterr().err


# ------------------------------------------------- property: no stray run dirs

_SMALL_GRID = st.lists(st.integers(1, 3), min_size=2, max_size=2)

_TRAIN_REQUIRED = {
    "iterations": st.integers(1, 2),
}
_TRAIN_OPTIONAL = {
    "kind": st.sampled_from(KINDS),
    "estimator": st.sampled_from(ESTIMATORS),
    "ratio_mode": st.sampled_from(RATIO_MODES),
    "alpha": st.floats(0.1, 3.0),
    "reward_lr": st.floats(1e-3, 1.0),
    "batch_size": st.integers(2, 16),
    "eval_every": st.integers(1, 2),
}
_TRAIN = st.fixed_dictionaries(_TRAIN_REQUIRED, optional=_TRAIN_OPTIONAL)


def test_the_run_property_draws_every_train_field():
    # the seed comes from the top level of the config
    drawn = set(_TRAIN_REQUIRED) | set(_TRAIN_OPTIONAL)
    assert drawn == {f.name for f in fields(TrainConfig)} - {"seed"}


_DENSITY = st.fixed_dictionaries({
    "type": st.just("density_matching"),
    "shape": st.sampled_from(["gaussian", "mixture2", "uniform"]),
    "grid": _SMALL_GRID, "horizon": st.integers(1, 4), "train": _TRAIN,
}, optional={"sigma": st.floats(0.1, 3.0)})

_IRL = st.fixed_dictionaries({
    "type": st.just("irl_from_trajectories"),
    "grid": _SMALL_GRID, "horizon": st.integers(1, 4),
    "n_expert_traj": st.integers(1, 6),
    "gt_reward": st.dictionaries(st.integers(0, 8).map(str),
                                 st.floats(-1.0, 1.0), max_size=3),
    "train": _TRAIN,
}, optional={"expert_alpha": st.floats(0.1, 2.0),
             "pool_size": st.integers(1, 30)})

_PRIOR = st.fixed_dictionaries({
    "type": st.just("prior_downstream"),
    # the task grid has 36 states, so 35 is refused
    "prior": st.integers(35, 36).flatmap(
        lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)),
    "lambda_grid": st.lists(st.floats(0.0, 2.0), max_size=2).map(
        lambda grid: [0.0] + grid),
    "alpha_grid": st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2),
    "horizon": st.integers(1, 4),
}, optional={"gamma": st.floats(0.5, 1.0)})

_ACTION = st.sampled_from(GRID_ACTIONS + ("jump",))

_TRANSFER = st.fixed_dictionaries({
    "type": st.just("transfer"), "scenario": _IRL,
}, optional={"slip_override": st.floats(0.0, 0.9),
             "action_remap": st.dictionaries(_ACTION, _ACTION, max_size=2),
             "alpha": st.floats(0.1, 2.0)})

_RUNS = st.one_of(
    st.tuples(st.just("train"), st.one_of(_DENSITY, _IRL)),
    st.tuples(st.just("scenario"), st.one_of(_DENSITY, _IRL, _PRIOR)),
    st.tuples(st.just("transfer"), _TRANSFER),
)


@settings(max_examples=60, deadline=None)
@given(run=_RUNS, seed=st.integers(0, 3))
def test_cli_either_completes_a_run_or_leaves_no_directory(run, seed):
    """A config the schema accepts either trains and writes a manifest
    (exit 0) or is refused with exit 1 before any run directory exists.
    Float fields are drawn from moderate ranges: overflow at extreme
    values is a separate concern."""
    command, payload = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(dict(payload, schema_version=1, seed=seed), fh)
        out = os.path.join(tmp, "out")
        code = cli_main([command, "--config", path, "--out", out])
        if code == 0:
            [manifest] = glob.glob(os.path.join(out, "*", "*", "manifest.json"))
            assert json.load(open(manifest))["outputs"]
        else:
            assert code == 1 and not os.path.exists(out)


def test_cli_refuses_an_rkl_target_with_empty_cells(tmp_path):
    payload = dict(_TINY_DENSITY, shape="gaussian", sigma=0.01,
                   train=dict(_TINY_DENSITY["train"], kind="rkl"))
    cfg = _write_cfg(tmp_path, "d.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)]) == 0 \
        or not out.exists()
