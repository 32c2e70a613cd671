"""Command-line entry point.

Subcommands: train, gradcheck, eval, scenario, transfer. Exit codes:
0 success, 1 config or usage error, 2 numerical-acceptance failure
(gradcheck only). Every run writes into its own timestamped directory
under the --out root (or FIRL_OUT_ROOT, or ./runs) and finishes with
an atomic manifest.
"""

import argparse
import os
import sys

import numpy as np

from .divergence import KINDS, divergence_exact
from .grad_engine import gradcheck_suite
from .kl_eval import policy_return
from .mdp import GRID_ACTIONS, build_gridworld, modify_dynamics
from .reward_model import reward_vector
from .run_io import (SCHEMA_VERSION, ConfigError, emit_heatmap, fmt_float,
                     load_config, make_run_dir, read_reward_json, utc_now,
                     validate_config, write_json, write_lines,
                     write_manifest, write_metrics_csv, write_reward_json)
from .scenarios import (density_matching, dynamics_transfer,
                        irl_from_trajectories, percentile_weights,
                        prior_reward_downstream, reward_recovery_check,
                        run_scenario)
from .soft_solver import forward_marginals, soft_backward
from .trainer import ESTIMATORS

GRADCHECK_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_common(p, training=True):
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", default=None, help="output root directory")
    if training:
        p.add_argument("--estimator", choices=ESTIMATORS)
        p.add_argument("--divergence", choices=KINDS)


def _build_parser():
    parser = _Parser(prog="firl",
                     description="f-divergence inverse RL on tabular MDPs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training scenario")
    _add_common(p)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--instances", type=int, default=20)

    p = sub.add_parser("eval", help="evaluate a stored reward on a scenario")
    _add_common(p, training=False)

    p = sub.add_parser("scenario", help="run a scenario with its evaluation suite")
    _add_common(p)

    p = sub.add_parser("transfer", help="train on source dynamics, score on target")
    _add_common(p)
    return parser


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "estimator", None):
        cfg.setdefault("train", {})["estimator"] = args.estimator
    if getattr(args, "divergence", None):
        cfg.setdefault("train", {})["kind"] = args.divergence
    return cfg


def _resolve(path, config_path):
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), path)


def _gt_from_config(g, n_states):
    if isinstance(g, list):
        vec = np.asarray(g, dtype=float)
        if vec.shape != (n_states,):
            raise ConfigError("gt_reward has %d entries, the grid has %d states"
                              % (vec.size, n_states))
        return vec
    vec = np.zeros(n_states)
    for key, val in g.items():
        s = int(key)
        if not 0 <= s < n_states:
            raise ConfigError("gt_reward names state %d outside 0..%d"
                              % (s, n_states - 1))
        vec[s] = float(val)
    return vec


def _build_scenario(cfg):
    """Instantiate the Scenario a validated config describes."""
    train = dict(cfg.get("train", {}))
    seed = cfg["seed"]
    if cfg["type"] == "density_matching":
        kind = train.pop("kind", "fkl")
        return density_matching(cfg["shape"], grid=tuple(cfg.get("grid", [5, 5])),
                                kind=kind, seed=seed,
                                horizon=cfg.get("horizon", 40),
                                sigma=cfg.get("sigma"), **train)
    if cfg["type"] == "irl_from_trajectories":
        w, h = cfg.get("grid", [5, 5])
        horizon = cfg.get("horizon", 20)
        mdp = build_gridworld(w, h, slip_prob=0.0, init_state=0, horizon=horizon)
        gt = _gt_from_config(cfg["gt_reward"], mdp.n_states)
        return irl_from_trajectories(mdp, cfg["n_expert_traj"], gt, seed=seed,
                                     expert_alpha=cfg.get("expert_alpha", 0.3),
                                     pool_size=cfg.get("pool_size", 200), **train)
    raise ConfigError("config type %r does not describe a training scenario"
                      % cfg["type"])


def _nested_scenario(cfg, key="scenario"):
    sub = dict(cfg[key])
    sub.setdefault("schema_version", SCHEMA_VERSION)
    sub.setdefault("seed", cfg["seed"])
    validate_config(sub)
    return sub


def _train_and_emit(sc, run_dir):
    result = run_scenario(sc)
    outputs = []
    path = os.path.join(run_dir, "metrics.csv")
    write_metrics_csv(path, result.metrics)
    outputs.append("metrics.csv")
    write_reward_json(os.path.join(run_dir, "reward.json"), result.model)
    outputs.append("reward.json")
    emit_heatmap(result.model, sc.mdp, os.path.join(run_dir, "heatmap.csv"))
    outputs.append("heatmap.csv")
    return result, outputs


def _cmd_train(args):
    cfg = _apply_overrides(load_config(args.config), args)
    started = utc_now()
    sc = _build_scenario(cfg)
    run_dir = make_run_dir(cfg.get("name", cfg["type"]), args.out)
    result, outputs = _train_and_emit(sc, run_dir)
    write_manifest(run_dir, cfg, cfg["seed"], outputs, started, utc_now())
    print(run_dir)
    return 0


def _cmd_gradcheck(args):
    if args.instances < 1:
        raise ConfigError("--instances must be at least 1, got %d" % args.instances)
    started = utc_now()
    records = gradcheck_suite(n_instances=args.instances, seed=args.seed)
    run_dir = make_run_dir("gradcheck", args.out)
    cols = ("instance", "n_states", "n_actions", "horizon", "kind",
            "reward_kind", "rel_error")
    lines = [",".join(cols)]
    for r in records:
        lines.append("%d,%d,%d,%d,%s,%s,%s"
                     % (r["instance"], r["n_states"], r["n_actions"],
                        r["horizon"], r["kind"], r["reward_kind"],
                        fmt_float(r["rel_error"])))
    write_lines(os.path.join(run_dir, "gradcheck.csv"), lines)
    write_manifest(run_dir, {"seed": args.seed, "instances": args.instances},
                   args.seed, ["gradcheck.csv"], started, utc_now())
    worst = max(r["rel_error"] for r in records)
    print("%s worst rel_error %s (tolerance %s)"
          % (run_dir, fmt_float(worst), fmt_float(GRADCHECK_TOL)))
    return 0 if worst < GRADCHECK_TOL else 2


def _cmd_eval(args):
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg["type"] != "eval":
        raise ConfigError("eval needs a config of type 'eval'")
    model = read_reward_json(_resolve(cfg["reward_file"], args.config))
    sc = _build_scenario(_nested_scenario(cfg))
    started = utc_now()
    sol = forward_marginals(sc.mdp, soft_backward(sc.mdp, reward_vector(model),
                                                  sc.cfg.alpha))
    rho_e = sc.expert if isinstance(sc.expert, np.ndarray) \
        else sc.notes.get("expert_marginal")
    report = {"alpha": sc.cfg.alpha}
    if rho_e is not None:
        report["exact_fkl"] = divergence_exact("fkl", rho_e, sol.marginal_avg)
        report["exact_rkl"] = divergence_exact("rkl", rho_e, sol.marginal_avg)
    if sc.gt_reward is not None:
        report["return"] = policy_return(sc.mdp, sol, sc.gt_reward)
    run_dir = make_run_dir(cfg.get("name", "eval"), args.out)
    write_json(os.path.join(run_dir, "eval.json"), report)
    write_manifest(run_dir, cfg, cfg["seed"], ["eval.json"], started, utc_now())
    print(run_dir)
    return 0


def _cmd_scenario(args):
    cfg = _apply_overrides(load_config(args.config), args)
    started = utc_now()
    if cfg["type"] == "prior_downstream":
        return _run_prior(cfg, args, started)
    sc = _build_scenario(cfg)
    run_dir = make_run_dir(cfg.get("name", cfg["type"]), args.out)
    result, outputs = _train_and_emit(sc, run_dir)
    summary = {"name": sc.name, "wall_clock": result.wall_clock}
    last = result.metrics[-1]
    summary["final"] = {k: last[k] for k in ("exact_fkl", "exact_rkl",
                                             "lf_exact", "return")}
    if sc.gt_reward is not None:
        rec = dynamics_transfer(result.model, sc.mdp, sc.mdp, sc.gt_reward,
                                alpha=sc.cfg.alpha)
        weights = percentile_weights(sc.notes["expert_marginal"])
        fit = reward_recovery_check(result.model, sc.gt_reward, weights)
        summary["retrain"] = rec
        summary["recovery_fit"] = fit
        summary["expert_demo_return"] = sc.notes.get("expert_demo_return")
    write_json(os.path.join(run_dir, "summary.json"), summary)
    outputs.append("summary.json")
    write_manifest(run_dir, cfg, cfg["seed"], outputs, started, utc_now())
    print(run_dir)
    return 0


def _run_prior(cfg, args, started):
    if "prior" in cfg:
        prior = np.asarray(cfg["prior"], dtype=float)
    elif "prior_file" in cfg:
        prior = reward_vector(read_reward_json(_resolve(cfg["prior_file"],
                                                        args.config)))
    else:
        raise ConfigError("prior_downstream needs 'prior' or 'prior_file'")
    rows = prior_reward_downstream(
        prior,
        lambda_grid=tuple(cfg.get("lambda_grid", (0.0, 0.1, 0.3, 1.0, 3.0))),
        alpha_grid=tuple(cfg.get("alpha_grid", (0.1, 0.3, 1.0))),
        horizon=cfg.get("horizon", 30),
        gamma=cfg.get("gamma", 0.99))
    run_dir = make_run_dir(cfg.get("name", "prior_downstream"), args.out)
    lines = ["lambda,alpha,return"]
    for r in rows:
        lines.append("%s,%s,%s" % (fmt_float(r["lambda"]), fmt_float(r["alpha"]),
                                   fmt_float(r["return"])))
    write_lines(os.path.join(run_dir, "prior_heatmap.csv"), lines)
    controls = {r["alpha"]: r["return"] for r in rows if r["lambda"] == 0.0}
    best = max(rows, key=lambda r: r["return"] - controls[r["alpha"]])
    summary = {"best": best, "control_return": controls[best["alpha"]],
               "improvement": best["return"] - controls[best["alpha"]]}
    write_json(os.path.join(run_dir, "summary.json"), summary)
    write_manifest(run_dir, cfg, cfg["seed"],
                   ["prior_heatmap.csv", "summary.json"], started, utc_now())
    print(run_dir)
    return 0


def _remap_from_names(remap):
    out = {}
    for src, dst in remap.items():
        try:
            out[GRID_ACTIONS.index(src)] = GRID_ACTIONS.index(dst)
        except ValueError:
            raise ConfigError("unknown grid action in remap: %r -> %r"
                              % (src, dst))
    return out


def _cmd_transfer(args):
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg["type"] != "transfer":
        raise ConfigError("transfer needs a config of type 'transfer'")
    nested = _nested_scenario(cfg)
    if nested["type"] != "irl_from_trajectories":
        raise ConfigError("transfer needs an irl_from_trajectories scenario "
                          "(a ground-truth reward scores the target)")
    started = utc_now()
    sc = _build_scenario(nested)
    target = modify_dynamics(sc.mdp,
                             action_remap=_remap_from_names(cfg.get("action_remap", {})),
                             slip_override=cfg.get("slip_override"))
    run_dir = make_run_dir(cfg.get("name", "transfer"), args.out)
    result, outputs = _train_and_emit(sc, run_dir)
    rec = dynamics_transfer(result.model, sc.mdp, target, sc.gt_reward,
                            alpha=cfg.get("alpha", sc.cfg.alpha))
    write_json(os.path.join(run_dir, "transfer.json"), rec)
    outputs.append("transfer.json")
    write_manifest(run_dir, cfg, cfg["seed"], outputs, started, utc_now())
    print(run_dir)
    return 0


_HANDLERS = {"train": _cmd_train, "gradcheck": _cmd_gradcheck,
             "eval": _cmd_eval, "scenario": _cmd_scenario,
             "transfer": _cmd_transfer}


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be non-negative, got %d" % args.seed)
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print("firl: error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("firl: error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
