"""Desk-scale experiment suites: density matching, IRL from expert
trajectories, a learned-prior downstream task, dynamics transfer, and
the reward-recovery fit.

Every scenario is a plain data object (mdp + expert + TrainConfig) so
a run is reproducible from its JSON description and seed alone.
"""

from dataclasses import replace

import numpy as np

from .kl_eval import policy_return
from .mdp import build_gridworld
from .reward_model import reward_vector
from .soft_solver import (TrajectoryBatch, forward_marginals,
                          sample_trajectories, soft_backward)
from .trainer import (TrainConfig, check_expert_fit, run_firl,
                      shaped_prior_reward)


class Scenario:
    """name, mdp, expert input, training config, optional gt reward.

    notes carries evaluation context (expert marginal, expert alpha)
    that the runners and tests want back without recomputing."""

    def __init__(self, name, mdp, expert, cfg, gt_reward=None, notes=None):
        check_expert_fit(mdp, expert, cfg)
        self.name = name
        self.mdp = mdp
        self.expert = expert
        self.cfg = cfg
        self.gt_reward = gt_reward
        self.notes = notes or {}


def run_scenario(sc, model=None):
    return run_firl(sc.mdp, sc.expert, sc.cfg, model=model, gt_reward=sc.gt_reward)


def _grid_hull(mdp):
    lo = mdp.coords.min(axis=0) - 0.5
    hi = mdp.coords.max(axis=0) + 0.5
    return lo, hi


def gaussian_density(mdp, mean, sigma):
    """Isotropic Gaussian discretized onto cell centers and normalized."""
    mean = np.asarray(mean, dtype=float)
    lo, hi = _grid_hull(mdp)
    if np.any(mean < lo) or np.any(mean > hi):
        raise ValueError("gaussian mean %r lies outside the grid hull" % (mean,))
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    d2 = ((mdp.coords - mean) ** 2).sum(axis=1)
    vals = np.exp(-d2 / (2.0 * sigma * sigma))
    return vals / vals.sum()


def mixture2_density(mdp, mean_a, mean_b, sigma):
    """Equal-weight two-Gaussian mixture on the grid cells."""
    return 0.5 * gaussian_density(mdp, mean_a, sigma) \
        + 0.5 * gaussian_density(mdp, mean_b, sigma)


def uniform_density(mdp):
    return np.full(mdp.n_states, 1.0 / mdp.n_states)


def density_matching(shape, grid=(5, 5), kind="fkl", seed=0, horizon=40,
                     sigma=None, **overrides):
    """Match a synthetic expert density on a gridworld, exact pipeline.

    shape is 'gaussian' (blob at the grid center), 'mixture2' (two
    symmetric blobs), or 'uniform'. Training defaults: tabular reward,
    adam, exact estimator on the exact ratio table; overrides are
    TrainConfig fields. The sample-based KL columns are throttled to
    every 25 iterations by default since they exist for curves, not
    for the optimization.
    """
    w, h = grid
    mdp = build_gridworld(w, h, slip_prob=0.0, init_state=0, horizon=horizon)
    if shape == "gaussian":
        rho_e = gaussian_density(mdp, (w / 2.0, h / 2.0),
                                 1.0 if sigma is None else sigma)
    elif shape == "mixture2":
        rho_e = mixture2_density(mdp, (1.5, 1.5), (w - 1.5, h - 1.5),
                                 0.6 if sigma is None else sigma)
    elif shape == "uniform":
        rho_e = uniform_density(mdp)
    else:
        raise ValueError("unknown density shape %r" % (shape,))
    cfg = TrainConfig(seed=seed, kind=kind, alpha=1.0, iterations=300,
                      reward_lr=0.1, estimator="exact",
                      ratio_mode="exact_table", eval_every=25)
    cfg = replace(cfg, **overrides)
    return Scenario("density_%s_%s" % (shape, kind), mdp, rho_e, cfg,
                    notes={"shape": shape, "grid": tuple(grid)})


def irl_from_trajectories(mdp, n_expert_traj, gt_reward, seed=0,
                          expert_alpha=0.3, pool_size=200, **overrides):
    """IRL from demonstrations: discriminator ratio + mixture gradient.

    Demonstrations are the top-return rollouts of the soft-optimal
    policy under the ground-truth reward, picked from a larger pool,
    so small n means best trajectories rather than typical ones. That
    selection sharpens the demo state distribution below expert_alpha,
    which is why the default training temperature sits above it: the
    recovered reward scale tracks the ratio of training temperature to
    the demos' effective temperature.
    """
    gt_reward = np.asarray(gt_reward, dtype=float)
    if gt_reward.shape != (mdp.n_states,):
        raise ValueError("gt_reward has %d entries, the grid has %d states"
                         % (gt_reward.size, mdp.n_states))
    if not np.all(np.isfinite(gt_reward)):
        raise ValueError("ground-truth reward must be finite")
    if pool_size < n_expert_traj:
        raise ValueError("pool_size must cover n_expert_traj")
    sol_e = forward_marginals(mdp, soft_backward(mdp, gt_reward, expert_alpha))
    pool = sample_trajectories(mdp, sol_e, pool_size, seed)
    returns = gt_reward[pool.states[:, 1:]].sum(axis=1)
    top = np.argsort(-returns, kind="stable")[:n_expert_traj]
    expert = TrajectoryBatch(pool.states[top], seed=seed)
    cfg = TrainConfig(seed=seed, kind="fkl", alpha=0.5,
                      iterations=600, reward_lr=0.05, estimator="mixture",
                      batch_size=256, ratio_mode="discriminator",
                      eval_every=100)
    cfg = replace(cfg, **overrides)
    notes = {"expert_alpha": expert_alpha,
             "expert_marginal": sol_e.marginal_avg,
             "expert_demo_return": float(returns[top].mean())}
    return Scenario("irl_traj%d" % n_expert_traj, mdp, expert, cfg,
                    gt_reward=gt_reward, notes=notes)


def hard_exploration_task(horizon=30):
    """6x6 grid, start in one corner, reward 1 at the far corner and
    0.1 at each of the two distraction corners."""
    mdp = build_gridworld(6, 6, slip_prob=0.0, init_state=0, horizon=horizon)
    gt = np.zeros(mdp.n_states)
    gt[35] = 1.0
    gt[5] = 0.1
    gt[30] = 0.1
    return mdp, gt


def task_prior(prior):
    """The prior as one reward value per state of the hard-exploration grid."""
    prior = reward_vector(prior)
    n_states = hard_exploration_task()[0].n_states
    if prior.shape != (n_states,):
        raise ValueError("prior covers %d states, the task grid has %d"
                         % (prior.size, n_states))
    return prior


def prior_reward_downstream(prior, lambda_grid=(0.0, 0.1, 0.3, 1.0, 3.0),
                            alpha_grid=(0.1, 0.3, 1.0), horizon=30, gamma=0.99):
    """Task return on the hard-exploration grid with a shaped prior bonus.

    For every (lambda, alpha) cell the task is solved exactly with
    r_task + lambda-weighted potential shaping by the prior, and the
    expected return in task reward is recorded. lambda = 0 rows are
    the unaugmented control.
    """
    prior = task_prior(prior)
    mdp, gt = hard_exploration_task(horizon)
    rows = []
    for alpha in alpha_grid:
        for lam in lambda_grid:
            timed = shaped_prior_reward(gt, prior, lam, gamma, horizon=horizon)
            sol = forward_marginals(mdp, soft_backward(mdp, timed, alpha))
            rows.append({"lambda": float(lam), "alpha": float(alpha),
                         "return": policy_return(mdp, sol, gt)})
    return rows


def dynamics_transfer(learned_reward, mdp_source, mdp_target, gt_reward,
                      alpha=1.0):
    """Solve the target dynamics with the learned and the gt reward.

    The ratio of expected gt returns is the transfer score; with
    target = source it doubles as the in-domain recovery score.
    """
    if mdp_source.n_states != mdp_target.n_states:
        raise ValueError("source has %d states, target has %d"
                         % (mdp_source.n_states, mdp_target.n_states))
    vec = reward_vector(learned_reward)
    gt_reward = np.asarray(gt_reward, dtype=float)
    sol_l = forward_marginals(mdp_target, soft_backward(mdp_target, vec, alpha))
    sol_g = forward_marginals(mdp_target, soft_backward(mdp_target, gt_reward, alpha))
    ret_l = policy_return(mdp_target, sol_l, gt_reward)
    ret_g = policy_return(mdp_target, sol_g, gt_reward)
    ratio = ret_l / ret_g if ret_g != 0 else float("nan")
    return {"return_learned": ret_l, "return_gt": ret_g, "ratio": ratio}


def percentile_weights(marginal, percentile=10.0):
    """Expert-density fit weights with the bottom tail zeroed out.

    Rewards at states the expert all but never visits are unconstrained
    by the matching objective, so the recovery fit drops them.
    """
    m = np.asarray(marginal, dtype=float).copy()
    m[m < np.percentile(m, percentile)] = 0.0
    return m


def reward_recovery_check(learned, gt, support_weights):
    """Weighted fit of learned ~ gt + c over the expert support.

    offset_r2 scores the slope-1 offset-only fit (1 minus the weighted
    variance of learned - gt over the weighted variance of learned);
    the free-slope affine fit is reported alongside for honesty, since
    a scaled reward fits affinely with r2 1 yet is not an offset.
    degenerate flags a weighted variance too small to fit against.
    """
    vec = reward_vector(learned)
    gt = np.asarray(gt, dtype=float)
    w = np.asarray(support_weights, dtype=float)
    if vec.shape != gt.shape or w.shape != gt.shape:
        raise ValueError("learned, gt and weights must share a shape")
    if np.any(w < 0) or not w.sum() > 0:
        raise ValueError("support weights must be nonnegative with positive mass")
    w = w / w.sum()

    def wmean(x):
        return float(w @ x)

    def wvar(x):
        return float(w @ (x - wmean(x)) ** 2)

    offset = wmean(vec - gt)
    residual = vec - gt - offset
    support = w > 0
    max_residual = float(np.abs(residual[support]).max())
    var_gt, var_learned = wvar(gt), wvar(vec)
    degenerate = var_gt < 1e-18 or var_learned < 1e-18
    if degenerate:
        offset_r2 = float("nan")
        slope = float("nan")
        affine_r2 = float("nan")
        slope_is_one = False
    else:
        offset_r2 = 1.0 - wvar(vec - gt) / var_learned
        cov = wmean((gt - wmean(gt)) * (vec - wmean(vec)))
        slope = cov / var_gt
        affine_r2 = cov * cov / (var_gt * var_learned)
        slope_is_one = bool(abs(slope - 1.0) <= 0.05)
    return {"offset": offset, "offset_r2": offset_r2,
            "max_residual": max_residual, "slope": slope,
            "affine_r2": affine_r2, "slope_is_one": slope_is_one,
            "degenerate": degenerate}
