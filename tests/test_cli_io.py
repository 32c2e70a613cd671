"""Config schema, run artifacts, and the command-line surface.

CLI commands run in-process through cli_main so exit codes and stdout
are asserted directly; every run writes under tmp_path via --out.
"""

import glob
import json
import math
import os
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firl.cli
import firl.run_io as run_io
from firl.cli import cli_main
from firl.divergence import KINDS
from firl.mdp import GRID_ACTIONS, build_gridworld
from firl.reward_model import tabular_reward
from firl.run_io import (ConfigError, default_out_root, emit_heatmap,
                         fmt_float, load_config, make_run_dir,
                         read_metrics_csv, validate_config, write_manifest,
                         write_metrics_csv)
from firl.trainer import ESTIMATORS, METRIC_COLUMNS, OPTIMIZERS, RATIO_MODES


def _minimal_cfg(**extra):
    cfg = {"schema_version": 1, "seed": 0, "type": "density_matching",
           "shape": "uniform"}
    cfg.update(extra)
    return cfg


def test_schema_accepts_a_minimal_density_config():
    jsonschema.Draft202012Validator.check_schema(run_io.CONFIG_SCHEMA)
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
    back = read_metrics_csv(path)
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


def test_manifest_contents_and_atomicity(tmp_path):
    run_dir = str(tmp_path)
    write_manifest(run_dir, {"seed": 4}, 4, ["b.csv", "a.json"],
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
    "train": {"iterations": 2, "eval_every": 1, "eval_expert_samples": 100,
              "eval_agent_trajectories": 20},
}

_TINY_IRL = {
    "schema_version": 1, "seed": 0, "type": "irl_from_trajectories",
    "name": "tiny-irl", "grid": [3, 3], "horizon": 6,
    "n_expert_traj": 4, "pool_size": 20, "gt_reward": {"8": 1.0},
    "train": {"iterations": 3, "batch_size": 16, "eval_every": 3,
              "eval_expert_samples": 100, "eval_agent_trajectories": 20},
}


def test_cli_train_writes_a_complete_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d.json", _TINY_DENSITY)
    assert cli_main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    assert os.path.basename(os.path.dirname(run_dir)) == "tiny"
    for name in ("metrics.csv", "reward.json", "heatmap.csv", "manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name))
    rows = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
    assert len(rows) == 2 and np.isfinite(rows[-1]["lf_exact"])
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["outputs"] == ["heatmap.csv", "metrics.csv", "reward.json"]


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


@pytest.mark.parametrize("payload, flags, message", [
    (_TINY_DENSITY, ["--estimator", "mixture"],
     "mixture estimator needs expert trajectories"),
    (dict(_TINY_DENSITY, train=dict(_TINY_DENSITY["train"], ratio_mode="kde_pair")),
     [], "kde_pair ratio mode needs expert state samples"),
    (dict(_TINY_IRL, train=dict(_TINY_IRL["train"], ratio_mode="exact_table")),
     [], "exact_table ratio mode needs an expert density"),
    (dict(_TINY_IRL, n_expert_traj=1, horizon=2), [], "expert cloud holds 2"),
], ids=["mixture-on-a-density", "kde-pair-on-a-density", "exact-table-on-demos",
        "expert-cloud-below-k"])
def test_cli_refuses_a_misfit_before_the_run_directory(tmp_path, capsys, payload,
                                                       flags, message):
    cfg = _write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert cli_main(["train", "--config", cfg, "--out", str(out)] + flags) == 1
    assert message in capsys.readouterr().err
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
        "scenario": {k: v for k, v in _TINY_DENSITY.items()
                     if k not in ("name",)},
    }
    path = _write_cfg(tmp_path, "e.json", eval_cfg)
    assert cli_main(["eval", "--config", path, "--out", str(tmp_path)]) == 0
    eval_dir = capsys.readouterr().out.strip()
    report = json.load(open(os.path.join(eval_dir, "eval.json")))
    assert report["alpha"] == 1.0
    assert np.isfinite(report["exact_fkl"]) and np.isfinite(report["exact_rkl"])
    assert "return" not in report


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
        "scenario": {k: v for k, v in _TINY_DENSITY.items() if k != "name"},
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
        "scenario": _TINY_IRL, "action_remap": {"down": "stay"},
        "slip_override": 0.1,
    })
    assert cli_main(["transfer", "--config", cfg, "--out", str(tmp_path)]) == 0
    run_dir = capsys.readouterr().out.strip()
    rec = json.load(open(os.path.join(run_dir, "transfer.json")))
    assert {"ratio", "return_learned", "return_gt"} <= set(rec)
    assert np.isfinite(rec["ratio"])


def test_cli_training_flags_reach_the_transfer_scenario(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "t.json", {
        "schema_version": 1, "seed": 0, "type": "transfer",
        "scenario": _TINY_IRL, "slip_override": 0.1,
    })
    curves = []
    for flags in ([], ["--divergence", "js"]):
        assert cli_main(["transfer", "--config", cfg,
                         "--out", str(tmp_path / "out")] + flags) == 0
        run_dir = capsys.readouterr().out.strip()
        curves.append(open(os.path.join(run_dir, "metrics.csv")).read())
    assert curves[0] != curves[1]
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    assert manifest["config"]["scenario"]["train"]["kind"] == "js"


@pytest.mark.parametrize("payload, flags, message", [
    ({"type": "prior_downstream", "prior": [0.0] * 36}, ["--estimator", "mc"],
     "do not apply to a prior_downstream config"),
    ({"type": "prior_downstream", "prior": [0.0] * 36}, ["--divergence", "js"],
     "do not apply to a prior_downstream config"),
    ({"type": "prior_downstream", "prior": [0.0] * 36, "train": {}}, [],
     "'train' was unexpected"),
    ({"type": "transfer", "scenario": _TINY_IRL, "train": {"kind": "js"}}, [],
     "'train' was unexpected"),
], ids=["estimator-on-prior", "divergence-on-prior", "train-on-prior",
        "train-on-transfer"])
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

_TRAIN = st.fixed_dictionaries({
    "iterations": st.integers(1, 2),
    "eval_expert_samples": st.integers(4, 40),
    "eval_agent_trajectories": st.integers(1, 6),
}, optional={
    "kind": st.sampled_from(KINDS),
    "estimator": st.sampled_from(ESTIMATORS),
    "ratio_mode": st.sampled_from(RATIO_MODES),
    "optimizer": st.sampled_from(OPTIMIZERS),
    "alpha": st.floats(0.1, 3.0),
    "reward_lr": st.floats(1e-3, 1.0),
    "grad_steps_per_iter": st.integers(1, 2),
    "batch_size": st.integers(2, 16),
    "weight_decay": st.floats(0.0, 1.0),
    "kde_bandwidth": st.floats(0.1, 2.0),
    "eval_every": st.integers(1, 2),
})

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
_FLAGS = st.one_of(st.just([]),
                   st.sampled_from(ESTIMATORS).map(lambda e: ["--estimator", e]),
                   st.sampled_from(KINDS).map(lambda k: ["--divergence", k]))


@settings(max_examples=60, deadline=None)
@given(run=_RUNS, flags=_FLAGS, seed=st.integers(0, 3))
def test_cli_either_completes_a_run_or_leaves_no_directory(run, flags, seed):
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
        code = cli_main([command, "--config", path, "--out", out] + flags)
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
