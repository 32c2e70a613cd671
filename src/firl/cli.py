"""Command-line entry point.

Subcommands: train, gradcheck, eval, scenario, transfer. Exit codes:
0 success, 1 config or usage error, 2 numerical-acceptance failure
(gradcheck only). Every run writes into its own timestamped directory
under the --out root (or FIRL_OUT_ROOT, or ./runs) and finishes with
an atomic manifest. Each command loads its config, builds the scenario
(every library check runs here) and only then creates that directory.
"""

import argparse
import os
import sys
from contextlib import contextmanager

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
                        run_scenario, task_prior)
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


def _load(args, config_type=None):
    """Read and check the config, apply the overrides, check its type."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    overrides = {k: v for k, v in (("estimator", getattr(args, "estimator", None)),
                                   ("kind", getattr(args, "divergence", None))) if v}
    if overrides:
        if cfg["type"] == "prior_downstream":
            raise ConfigError("--estimator and --divergence do not apply to "
                              "a prior_downstream config")
        # a transfer config trains its nested scenario
        trained = cfg["scenario"] if cfg["type"] == "transfer" else cfg
        trained.setdefault("train", {}).update(overrides)
    if config_type is not None and cfg["type"] != config_type:
        raise ConfigError("%s needs a config of type %r"
                          % (args.command, config_type))
    return cfg


@contextmanager
def _emit(args, cfg, name=None):
    """make_run_dir, the body's run and outputs, then the manifest."""
    started = utc_now()
    run_dir = make_run_dir(name or cfg.get("name", cfg["type"]), args.out)
    outputs = []
    yield run_dir, outputs
    write_manifest(run_dir, cfg, cfg["seed"], outputs, started, utc_now())


def _resolve(path, config_path):
    if os.path.isabs(path):
        return path
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), path)


def _gt_from_config(g, n_states):
    if isinstance(g, list):
        return g
    vec = np.zeros(n_states)
    for key, val in g.items():
        s = int(key)
        if not 0 <= s < n_states:
            raise ConfigError("gt_reward names state %d outside 0..%d"
                              % (s, n_states - 1))
        vec[s] = float(val)
    return vec


def _given(cfg, keys):
    """The keys the config sets; the builders own the other defaults."""
    return {k: cfg[k] for k in keys if k in cfg}


def _build_scenario(cfg):
    """Instantiate the Scenario a validated config describes."""
    train, seed = cfg.get("train", {}), cfg["seed"]
    if cfg["type"] == "density_matching":
        return density_matching(cfg["shape"], seed=seed,
                                **_given(cfg, ("grid", "horizon", "sigma")), **train)
    if cfg["type"] == "irl_from_trajectories":
        w, h = cfg.get("grid", [5, 5])
        mdp = build_gridworld(w, h, horizon=cfg.get("horizon", 20))
        gt = _gt_from_config(cfg["gt_reward"], mdp.n_states)
        return irl_from_trajectories(mdp, cfg["n_expert_traj"], gt, seed=seed,
                                     **_given(cfg, ("expert_alpha", "pool_size")),
                                     **train)
    raise ConfigError("config type %r does not describe a training scenario"
                      % cfg["type"])


def _nested_scenario(cfg):
    return validate_config({"schema_version": SCHEMA_VERSION, "seed": cfg["seed"],
                            **cfg["scenario"]})


def _train(sc, run_dir, outputs):
    result = run_scenario(sc)
    write_metrics_csv(os.path.join(run_dir, "metrics.csv"), result.metrics)
    write_reward_json(os.path.join(run_dir, "reward.json"), result.model)
    emit_heatmap(result.model, sc.mdp, os.path.join(run_dir, "heatmap.csv"))
    outputs += ["metrics.csv", "reward.json", "heatmap.csv"]
    return result


def _cmd_train(args):
    cfg = _load(args)
    sc = _build_scenario(cfg)
    with _emit(args, cfg) as (run_dir, outputs):
        _train(sc, run_dir, outputs)
    print(run_dir)
    return 0


def _cmd_gradcheck(args):
    if args.instances < 1:
        raise ConfigError("--instances must be at least 1, got %d" % args.instances)
    cfg = {"seed": args.seed, "instances": args.instances}
    with _emit(args, cfg, "gradcheck") as (run_dir, outputs):
        records = gradcheck_suite(n_instances=args.instances, seed=args.seed)
        cols = ("instance", "n_states", "n_actions", "horizon", "kind",
                "reward_kind", "rel_error")
        lines = [",".join(cols)]
        for r in records:
            lines.append("%d,%d,%d,%d,%s,%s,%s"
                         % (r["instance"], r["n_states"], r["n_actions"],
                            r["horizon"], r["kind"], r["reward_kind"],
                            fmt_float(r["rel_error"])))
        write_lines(os.path.join(run_dir, "gradcheck.csv"), lines)
        outputs.append("gradcheck.csv")
    worst = max(r["rel_error"] for r in records)
    print("%s worst rel_error %s (tolerance %s)"
          % (run_dir, fmt_float(worst), fmt_float(GRADCHECK_TOL)))
    return 0 if worst < GRADCHECK_TOL else 2


def _cmd_eval(args):
    cfg = _load(args, "eval")
    model = read_reward_json(_resolve(cfg["reward_file"], args.config))
    sc = _build_scenario(_nested_scenario(cfg))
    # the solve is the check that the stored reward fits the scenario's grid
    sol = forward_marginals(sc.mdp, soft_backward(sc.mdp, reward_vector(model),
                                                  sc.cfg.alpha))
    with _emit(args, cfg) as (run_dir, outputs):
        rho_e = sc.expert if isinstance(sc.expert, np.ndarray) \
            else sc.notes.get("expert_marginal")
        report = {"alpha": sc.cfg.alpha}
        if rho_e is not None:
            report["exact_fkl"] = divergence_exact("fkl", rho_e, sol.marginal_avg)
            report["exact_rkl"] = divergence_exact("rkl", rho_e, sol.marginal_avg)
        if sc.gt_reward is not None:
            report["return"] = policy_return(sc.mdp, sol, sc.gt_reward)
        write_json(os.path.join(run_dir, "eval.json"), report)
        outputs.append("eval.json")
    print(run_dir)
    return 0


def _cmd_scenario(args):
    cfg = _load(args)
    if cfg["type"] == "prior_downstream":
        return _run_prior(cfg, args)
    sc = _build_scenario(cfg)
    with _emit(args, cfg) as (run_dir, outputs):
        result = _train(sc, run_dir, outputs)
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
    print(run_dir)
    return 0


def _run_prior(cfg, args):
    if "prior" not in cfg and "prior_file" not in cfg:
        raise ConfigError("prior_downstream needs 'prior' or 'prior_file'")
    prior = task_prior(cfg["prior"] if "prior" in cfg else
                       read_reward_json(_resolve(cfg["prior_file"], args.config)))
    sweep = _given(cfg, ("lambda_grid", "alpha_grid", "horizon", "gamma"))
    with _emit(args, cfg) as (run_dir, outputs):
        rows = prior_reward_downstream(prior, **sweep)
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
        outputs += ["prior_heatmap.csv", "summary.json"]
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
    cfg = _load(args, "transfer")
    nested = _nested_scenario(cfg)
    if nested["type"] != "irl_from_trajectories":
        raise ConfigError("transfer needs an irl_from_trajectories scenario "
                          "(a ground-truth reward scores the target)")
    sc = _build_scenario(nested)
    target = modify_dynamics(sc.mdp,
                             action_remap=_remap_from_names(cfg.get("action_remap", {})),
                             slip_override=cfg.get("slip_override"))
    with _emit(args, cfg) as (run_dir, outputs):
        result = _train(sc, run_dir, outputs)
        rec = dynamics_transfer(result.model, sc.mdp, target, sc.gt_reward,
                                alpha=cfg.get("alpha", sc.cfg.alpha))
        write_json(os.path.join(run_dir, "transfer.json"), rec)
        outputs.append("transfer.json")
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
    except (ConfigError, ValueError, OSError) as exc:
        print("firl: error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
