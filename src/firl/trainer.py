"""Reward learning loop: solve the soft MDP for the current reward,
estimate the density ratio, take covariance gradient steps, repeat.

Also home to the two reward-shaping constructions (potential shaping
and a potential-shaped prior bonus) and the optimizer.
"""

import time
from dataclasses import dataclass

import numpy as np

from .density_ratio import (discriminator_fit, discriminator_ratio, exact_ratio,
                            kde_pair_ratio, sample_states)
from .divergence import KINDS, ExpertDensity, divergence_exact
from .grad_engine import (analytic_grad_exact, analytic_grad_mc,
                          analytic_grad_mixture)
from .kl_eval import KNN_K, knn_kl, policy_return, states_to_points
from .mdp import reachable_states
from .reward_model import apply_update, reward_vector, tabular_reward
from .soft_solver import (TimedReward, TrajectoryBatch, forward_marginals,
                          sample_trajectories, soft_backward)

ESTIMATORS = ("exact", "mc", "mixture")
RATIO_MODES = ("exact_table", "kde_pair", "discriminator")
OPTIMIZERS = ("adam", "plain")

METRIC_COLUMNS = ("iteration", "fkl_estimate", "rkl_estimate", "exact_fkl",
                  "exact_rkl", "return", "lf_exact", "grad_norm")


@dataclass
class TrainConfig:
    seed: int
    kind: str = "fkl"
    alpha: float = 1.0
    iterations: int = 100
    reward_lr: float = 1e-3
    grad_steps_per_iter: int = 1
    estimator: str = "exact"
    batch_size: int = 64
    ratio_mode: str = "exact_table"
    optimizer: str = "adam"
    weight_decay: float = 0.0
    kde_bandwidth: float = 0.2
    eval_every: int = 1
    eval_expert_samples: int = 10000
    eval_agent_trajectories: int = 1000

    def validate(self):
        for name, choices in (("kind", KINDS), ("estimator", ESTIMATORS),
                              ("ratio_mode", RATIO_MODES), ("optimizer", OPTIMIZERS)):
            if getattr(self, name) not in choices:
                raise ValueError("%s must be one of %r" % (name, choices))
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.reward_lr > 0:
            raise ValueError("reward_lr must be positive")
        if self.grad_steps_per_iter < 1:
            raise ValueError("grad_steps_per_iter must be at least 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if not self.kde_bandwidth > 0:
            raise ValueError("kde_bandwidth must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        if self.eval_expert_samples <= KNN_K:
            raise ValueError("eval_expert_samples must exceed the knn k of %d" % KNN_K)
        if self.eval_agent_trajectories < 1:
            raise ValueError("eval_agent_trajectories must be at least 1")
        return self


class OptimizerState:
    def __init__(self, kind):
        if kind not in OPTIMIZERS:
            raise ValueError("optimizer must be one of %r" % (OPTIMIZERS,))
        self.kind = kind
        self.step = 0
        self.m = None
        self.v = None


def optimizer_step(state, params, grad, lr):
    """One descent update; returns (state, delta) with params + delta
    the new point. adam uses bias-corrected moments, plain is -lr g."""
    grad = np.asarray(grad, dtype=float)
    if state.kind == "plain":
        return state, -lr * grad
    b1, b2, eps = 0.9, 0.999, 1e-8
    if state.m is None:
        state.m = np.zeros_like(grad)
        state.v = np.zeros_like(grad)
    state.step += 1
    state.m = b1 * state.m + (1 - b1) * grad
    state.v = b2 * state.v + (1 - b2) * grad * grad
    m_hat = state.m / (1 - b1 ** state.step)
    v_hat = state.v / (1 - b2 ** state.step)
    return state, -lr * m_hat / (np.sqrt(v_hat) + eps)


def potential_shape(reward, phi, gamma=1.0, horizon=None, terminal_convention=True):
    """Potential-shaped reward r(s') + gamma phi(s') - phi(s) as a timed table.

    With gamma = 1 and the terminal convention (no phi credit on the
    final arrival) the soft-optimal policy is exactly unchanged: every
    Q_t shifts by -phi(s), which the per-state softmax cannot see. This
    is the prior bonus below at weight 1.
    """
    return shaped_prior_reward(reward, phi, 1.0, gamma, horizon, terminal_convention)


def shaped_prior_reward(r_task, r_prior, lam, gamma=1.0, horizon=None,
                        terminal_convention=False):
    """Task reward plus a potential-shaped prior bonus with weight lam.

    r_task(s') + lam (gamma r_prior(s') - r_prior(s)). At gamma < 1
    without the terminal convention the bonus is not policy-neutral,
    which is the point: a good prior can steer exploration.
    """
    r_task = np.asarray(r_task, dtype=float)
    r_prior = np.asarray(r_prior, dtype=float)
    if horizon is None:
        raise ValueError("prior shaping needs the horizon")
    if r_task.shape != r_prior.shape:
        raise ValueError("task and prior rewards must share a shape")
    arrival = np.tile(r_task + lam * gamma * r_prior, (horizon, 1))
    if terminal_convention:
        arrival[horizon - 1] = r_task
    departure = np.tile(-lam * r_prior, (horizon, 1))
    return TimedReward(arrival, departure)


class TrainResult:
    def __init__(self, model, metrics, wall_clock):
        self.model = model
        self.metrics = metrics
        self.wall_clock = wall_clock


def _expert_form(expert):
    """Classify the expert input: ('density', ExpertDensity; a float vector
    is taken as normalized), ('trajectories', batch) or ('states', ints)."""
    if isinstance(expert, ExpertDensity):
        return "density", expert
    if isinstance(expert, TrajectoryBatch):
        return "trajectories", expert
    arr = np.asarray(expert)
    if arr.dtype.kind in "iu":
        if arr.ndim == 2:
            return "trajectories", TrajectoryBatch(arr)
        return "states", arr.ravel().astype(np.int64)
    return "density", ExpertDensity(arr)


def _seed_int(rng):
    return int(rng.integers(0, 2 ** 63 - 1))


def check_expert_fit(mdp, expert, cfg):
    """Validate cfg and its fit to the expert input and the mdp: ratio
    mode against expert form, mixture against (n, horizon + 1)
    trajectories, density length, normalization (only rkl accepts an
    unnormalized energy), an rkl target's support, expert state indices,
    and more than KNN_K points in each kNN evaluation cloud. Returns
    (rho_e, expert_flat, expert_data): the ExpertDensity or None, the
    visits after s_0 or None, the classified input."""
    cfg.validate()
    form, expert_data = _expert_form(expert)
    if cfg.ratio_mode == "exact_table" and form != "density":
        raise ValueError("exact_table ratio mode needs an expert density")
    if cfg.ratio_mode in ("kde_pair", "discriminator") and form == "density":
        raise ValueError("%s ratio mode needs expert state samples" % cfg.ratio_mode)
    if cfg.estimator == "mixture":
        if form != "trajectories":
            raise ValueError("mixture estimator needs expert trajectories "
                             "shaped (n, horizon + 1)")
        if expert_data.states.shape[1] != mdp.horizon + 1:
            raise ValueError("expert trajectories have horizon %d, mdp has %d"
                             % (expert_data.states.shape[1] - 1, mdp.horizon))
    rho_e = expert_flat = None
    if form == "density":
        rho_e = expert_data
        if len(rho_e) != mdp.n_states:
            raise ValueError("expert density covers %d states, mdp has %d"
                             % (len(rho_e), mdp.n_states))
        if cfg.kind != "rkl" and not rho_e.normalized:
            raise ValueError("%s needs a normalized expert density" % cfg.kind)
        if cfg.kind == "rkl":
            # a soft policy visits every reachable state, so D_rkl is infinite
            empty = np.nonzero(reachable_states(mdp) & (rho_e.values == 0))[0]
            if empty.size:
                raise ValueError("rkl needs expert density on every reachable "
                                 "state: state %d is reachable in 1..%d steps "
                                 "but has zero density" % (empty[0], mdp.horizon))
    else:
        states = expert_data.states if form == "trajectories" else expert_data
        outside = states[(states < 0) | (states >= mdp.n_states)]
        if outside.size:
            raise ValueError("expert state index %d is outside 0..%d"
                             % (outside[0], mdp.n_states - 1))
        expert_flat = states[:, 1:].ravel() if form == "trajectories" else states
    n_expert = cfg.eval_expert_samples if rho_e is not None else expert_flat.size
    n_agent = cfg.eval_agent_trajectories * mdp.horizon
    if min(n_expert, n_agent) <= KNN_K:
        raise ValueError("knn_kl needs more than %d points per cloud: the expert "
                         "cloud holds %d, eval_agent_trajectories x horizon is %d"
                         % (KNN_K, n_expert, n_agent))
    return rho_e, expert_flat, expert_data


def run_firl(mdp, expert, cfg, model=None, gt_reward=None):
    """Minimize the chosen f-divergence to the expert state density.

    expert is a state density (exact_table ratio mode) or expert state
    samples: a flat int array of visits, or trajectories shaped
    (n, horizon + 1) for the mixture estimator. Returns a TrainResult
    whose metrics rows follow METRIC_COLUMNS; sample-based KL columns
    are filled every eval_every iterations and NaN between.
    """
    t0 = time.perf_counter()
    rho_e, expert_flat, expert_data = check_expert_fit(mdp, expert, cfg)

    if model is None:
        model = tabular_reward(mdp.n_states)
    if gt_reward is not None:
        gt_reward = np.asarray(gt_reward, dtype=float)

    ss = np.random.SeedSequence(cfg.seed)
    rng_batch, rng_expert, rng_eval, rng_mix = [
        np.random.default_rng(c) for c in ss.spawn(4)]

    # fixed expert point cloud for the sample-based KL columns
    if rho_e is not None:
        eval_expert_states = sample_states(rho_e.values, cfg.eval_expert_samples,
                                           rng_expert)
    else:
        eval_expert_states = expert_flat
    eval_expert_points = states_to_points(mdp, eval_expert_states, seed=rng_expert)

    opt = OptimizerState(cfg.optimizer)
    metrics = []
    needs_batch = (cfg.estimator in ("mc", "mixture")
                   or cfg.ratio_mode in ("kde_pair", "discriminator"))

    for it in range(cfg.iterations):
        sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(model), cfg.alpha))
        batch = None
        if needs_batch:
            batch = sample_trajectories(mdp, sol, cfg.batch_size, _seed_int(rng_batch))

        if cfg.ratio_mode == "exact_table":
            ratio = exact_ratio(rho_e, sol.marginal_avg)
        elif cfg.ratio_mode == "kde_pair":
            ratio = kde_pair_ratio(mdp, expert_flat, batch.states[:, 1:].ravel(),
                                   bandwidth=cfg.kde_bandwidth,
                                   seed=_seed_int(rng_batch))
        else:
            ratio = discriminator_ratio(discriminator_fit(
                expert_flat, batch.states[:, 1:].ravel(), mdp.n_states))

        def gradient(m):
            if cfg.estimator == "exact":
                if cfg.ratio_mode == "exact_table":
                    return analytic_grad_exact(mdp, m, cfg.alpha, cfg.kind,
                                               rho_e=rho_e, sol=sol)
                return analytic_grad_exact(mdp, m, cfg.alpha, cfg.kind,
                                           ratio=ratio, sol=sol)
            if cfg.estimator == "mc":
                return analytic_grad_mc(batch, m, cfg.alpha, cfg.kind, ratio)
            return analytic_grad_mixture(batch, expert_data, m, cfg.alpha,
                                         cfg.kind, ratio, seed=_seed_int(rng_mix))

        report = gradient(model)
        metrics.append(_metric_row(it, mdp, sol, rho_e, cfg, gt_reward, report,
                                   eval_expert_points, rng_eval))
        for k in range(cfg.grad_steps_per_iter):
            if k > 0:
                report = gradient(model)
            grad = report.grad
            if cfg.weight_decay > 0:
                grad = grad + cfg.weight_decay * model.params
            opt, delta = optimizer_step(opt, model.params, grad, cfg.reward_lr)
            model = apply_update(model, delta)

    return TrainResult(model, metrics, time.perf_counter() - t0)


def _metric_row(it, mdp, sol, rho_e, cfg, gt_reward, report, expert_points, rng_eval):
    row = {c: float("nan") for c in METRIC_COLUMNS}
    row["iteration"] = it
    row["grad_norm"] = float(np.linalg.norm(report.grad))
    if rho_e is not None and rho_e.normalized:
        row["exact_fkl"] = divergence_exact("fkl", rho_e, sol.marginal_avg)
        row["exact_rkl"] = divergence_exact("rkl", rho_e, sol.marginal_avg)
        row["lf_exact"] = divergence_exact(cfg.kind, rho_e, sol.marginal_avg)
    if gt_reward is not None:
        row["return"] = policy_return(mdp, sol, gt_reward)
    if it % cfg.eval_every == 0:
        eval_batch = sample_trajectories(mdp, sol, cfg.eval_agent_trajectories,
                                         _seed_int(rng_eval))
        agent_points = states_to_points(mdp, eval_batch.states[:, 1:],
                                        seed=rng_eval)
        row["fkl_estimate"] = knn_kl(expert_points, agent_points,
                                     seed=_seed_int(rng_eval)).value
        row["rkl_estimate"] = knn_kl(agent_points, expert_points,
                                     seed=_seed_int(rng_eval)).value
    return row
