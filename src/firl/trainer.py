"""Reward learning loop: solve the soft MDP for the current reward,
estimate the density ratio, take one Adam step on the covariance
gradient, repeat.

Also home to the two reward-shaping constructions (potential shaping
and a potential-shaped prior bonus) and the optimizer.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .density_ratio import discriminator_fit, sample_states, state_frequencies
from .divergence import KINDS, ExpertDensity, divergence_exact, h_f, h_table
from .grad_engine import (analytic_grad_exact, analytic_grad_mc,
                          analytic_grad_mixture, check_mc_batch)
from .kl_eval import CellCloud, check_cloud, knn_kl, policy_return
from .mdp import reachable_states
from .reward_model import apply_update, reward_vector, tabular_reward
from .soft_solver import (TimedReward, forward_marginals, sample_trajectories,
                          soft_backward)

ESTIMATORS = ("exact", "mc", "mixture")
RATIO_MODES = ("exact_table", "discriminator")

METRIC_COLUMNS = ("iteration", "fkl_estimate", "rkl_estimate", "exact_fkl",
                  "exact_rkl", "return", "lf_exact", "grad_norm")

# jittered expert visits drawn from a density for the kNN columns
EVAL_EXPERT_SAMPLES = 10000


@dataclass
class TrainConfig:
    seed: int
    kind: str = "fkl"
    alpha: float = 1.0
    iterations: int = 100
    reward_lr: float = 1e-3
    estimator: str = "exact"
    batch_size: int = 64
    ratio_mode: str = "exact_table"
    eval_every: int = 1

    def validate(self):
        for name, choices in (("kind", KINDS), ("estimator", ESTIMATORS),
                              ("ratio_mode", RATIO_MODES)):
            if getattr(self, name) not in choices:
                raise ValueError("%s must be one of %r" % (name, choices))
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.reward_lr > 0:
            raise ValueError("reward_lr must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        return self


class OptimizerState:
    """Adam's step count and first and second moments."""

    def __init__(self):
        self.step = 0
        self.m = None
        self.v = None


def optimizer_step(state, grad, lr):
    """One Adam update with bias-corrected moments; returns (state, delta)
    with params + delta the new point."""
    grad = np.asarray(grad, dtype=float)
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


def expert_form(expert):
    """Classify the expert input: ('density', ExpertDensity; a float vector
    is taken as normalized) or ('trajectories', int64 rows; an int array
    must be 2-d, (n, horizon + 1) state rows)."""
    if isinstance(expert, ExpertDensity):
        return "density", expert
    arr = np.asarray(expert)
    if arr.dtype.kind in "iu":
        if arr.ndim != 2:
            raise ValueError("trajectory batch must be 2-d, shaped "
                             "(n, horizon + 1)")
        return "trajectories", arr.astype(np.int64, copy=False)
    return "density", ExpertDensity(arr)


def check_expert_fit(mdp, expert, cfg):
    """Validate cfg and its fit to the expert input and the mdp: ratio
    mode and estimator against expert form (the exact estimator needs a
    density), mixture against (n, horizon + 1) trajectories, density
    length, normalization (only rkl accepts an unnormalized energy), an
    rkl target's support and expert state indices. The modules that own
    the run's other limits check them here, before a run directory
    exists: grad_engine.check_mc_batch mc's batch, and kl_eval.check_cloud
    the kNN expert cloud, on the calling thread. Returns (rho_e,
    expert_flat, expert_data): the ExpertDensity or None, the visits
    after s_0 or None, the classified input."""
    cfg.validate()
    form, expert_data = expert_form(expert)
    if cfg.ratio_mode == "exact_table" and form != "density":
        raise ValueError("exact_table ratio mode needs an expert density")
    if cfg.ratio_mode == "discriminator" and form == "density":
        raise ValueError("discriminator ratio mode needs expert state samples")
    if cfg.estimator == "exact" and form != "density":
        raise ValueError("exact estimator needs an expert density: expert "
                         "trajectories train mc or mixture")
    if cfg.estimator == "mc":
        check_mc_batch(mdp, cfg.batch_size)
    if cfg.estimator == "mixture":
        if form != "trajectories":
            raise ValueError("mixture estimator needs expert trajectories "
                             "shaped (n, horizon + 1)")
        if expert_data.shape[1] != mdp.horizon + 1:
            raise ValueError("expert trajectories have horizon %d, mdp has %d"
                             % (expert_data.shape[1] - 1, mdp.horizon))
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
        outside = expert_data[(expert_data < 0) | (expert_data >= mdp.n_states)]
        if outside.size:
            raise ValueError("expert state index %d is outside 0..%d"
                             % (outside[0], mdp.n_states - 1))
        expert_flat = expert_data[:, 1:].ravel()
    check_cloud(mdp, EVAL_EXPERT_SAMPLES if rho_e is not None else expert_flat.size)
    return rho_e, expert_flat, expert_data


def run_firl(mdp, expert, cfg, gt_reward=None):
    """Minimize the chosen f-divergence to the expert state density,
    starting from a zero tabular reward.

    expert is a state density, which trains the exact estimator or mc,
    each weighing the states by divergence.h_table, or expert
    trajectories shaped (n, horizon + 1), which train mc or mixture (no
    rollouts) on h_f of the discriminator's ratio; the expert's form,
    not ratio_mode, picks the rule. Returns a TrainResult whose metrics
    rows follow METRIC_COLUMNS; the kNN KL columns are filled every eval_every
    iterations and NaN between. Their expert cloud is built on one
    worker thread while the loop trains, so the loop keeps each eval
    iteration's marginal and the columns are filled after the last
    iteration; a failed build raises there, and the worker has ended by
    the time run_firl returns or raises. The run fails at the
    first gradient entry that is not finite or whose square can
    overflow, and at the first solve that leaves no mass on a state the
    expert occupies and the walk can reach.
    """
    t0 = time.perf_counter()
    rho_e, expert_flat, expert_data = check_expert_fit(mdp, expert, cfg)
    if rho_e is not None:
        occupied = rho_e.values > 0
    else:
        occupied = np.bincount(expert_flat, minlength=mdp.n_states) > 0
    occupied &= reachable_states(mdp)

    model = tabular_reward(mdp.n_states)
    if gt_reward is not None:
        gt_reward = np.asarray(gt_reward, dtype=float)

    ss = np.random.SeedSequence(cfg.seed)
    rng_batch, rng_expert = [np.random.default_rng(c) for c in ss.spawn(2)]

    # fixed expert cloud for the sample-based KL columns: the states are
    # drawn here, the cloud is built on a worker while the loop trains
    if rho_e is not None:
        eval_expert_states = sample_states(rho_e.values, EVAL_EXPERT_SAMPLES,
                                           rng_expert)
    else:
        eval_expert_states = expert_flat

    opt = OptimizerState()
    metrics = []
    evaluated = []   # (row, marginal) of each eval iteration
    grad_cap = np.sqrt(np.finfo(float).max / model.n_params)
    with ThreadPoolExecutor(max_workers=1) as pool:
        cloud = pool.submit(CellCloud, mdp, eval_expert_states, rng_expert)
        for it in range(cfg.iterations):
            sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(model),
                                                       cfg.alpha))
            _check_collapse(it, mdp, sol, occupied)
            if cfg.estimator == "exact":
                grad = analytic_grad_exact(mdp, model, cfg.alpha, cfg.kind, rho_e,
                                           sol)
            elif cfg.estimator == "mixture":
                h = h_f(cfg.kind, np.exp(discriminator_fit(expert_flat,
                                                           sol.marginal_avg)))
                grad = analytic_grad_mixture(mdp, model, cfg.alpha, h,
                                             expert_data, sol)
            else:
                batch = sample_trajectories(mdp, sol, cfg.batch_size,
                                            int(rng_batch.integers(2 ** 63 - 1)))
                if rho_e is None:
                    h = h_f(cfg.kind, np.exp(discriminator_fit(
                        expert_flat, state_frequencies(batch[:, 1:],
                                                       mdp.n_states))))
                else:
                    h = h_table(cfg.kind, rho_e, sol.marginal_avg)
                grad = analytic_grad_mc(batch, model, cfg.alpha, h)
            _check_grad_scale(it, grad, grad_cap)
            row = _metric_row(it, mdp, sol, rho_e, cfg, gt_reward, grad)
            metrics.append(row)
            if it % cfg.eval_every == 0:
                evaluated.append((row, sol.marginal_avg))
            opt, delta = optimizer_step(opt, grad, cfg.reward_lr)
            model = apply_update(model, delta)
        expert_cloud = cloud.result()
    for row, marginal in evaluated:
        row["fkl_estimate"] = knn_kl(expert_cloud, marginal)
        row["rkl_estimate"] = knn_kl(marginal, expert_cloud)

    return TrainResult(model, metrics, time.perf_counter() - t0)


def _check_grad_scale(it, grad, cap):
    """Refuse a finite gradient whose squares overflow: with every entry
    at most cap = sqrt(float max / n), the n squares summed by the
    gradient norm and by Adam's second moment stay finite."""
    big = float(np.abs(grad).max())
    if big > cap:
        raise ValueError("iteration %d: a gradient entry of %.3g exceeds %.3g, "
                         "past which the squares summed by the gradient norm "
                         "and Adam's second moment overflow" % (it, big, cap))


def _check_collapse(it, mdp, sol, occupied):
    """Refuse a solve whose marginal is 0 on a state the expert occupies
    and the walk can reach: the policy has collapsed off part of the
    target, where a gradient that weighs each state by the policy's mass
    cannot pull it back."""
    lost = np.nonzero(occupied & (sol.marginal_avg == 0))[0]
    if lost.size:
        raise ValueError("iteration %d: the policy puts no mass on state %d, "
                         "which the expert occupies and the walk can reach in "
                         "1..%d steps: the policy has collapsed off part of "
                         "the target" % (it, lost[0], mdp.horizon))


def _metric_row(it, mdp, sol, rho_e, cfg, gt_reward, grad):
    row = {c: float("nan") for c in METRIC_COLUMNS}
    row["iteration"] = it
    # what np.linalg.norm computes for a 1-d float vector
    row["grad_norm"] = float(np.sqrt(grad @ grad))
    if rho_e is not None and rho_e.normalized:
        exact = {kind: divergence_exact(kind, rho_e, sol.marginal_avg)
                 for kind in {"fkl", "rkl", cfg.kind}}
        row["exact_fkl"], row["exact_rkl"] = exact["fkl"], exact["rkl"]
        row["lf_exact"] = exact[cfg.kind]
    if gt_reward is not None:
        row["return"] = policy_return(mdp, sol, gt_reward)
    return row
