"""Analytic gradient of the f-divergence between the expert state
density and the learned policy's state marginal.

The gradient is (1 / (alpha T)) times the trajectory covariance between
the summed ratio statistic h_f(u(s_t)) and the summed reward gradient,
both over t = 1..T (the start state carries no reward). Four
evaluation routes live here:

  exact      pair occupancies contracted in two O(T S A K) sweeps over P's
             successor tables (K successors per state-action), no sampling
  mc         sample covariance over policy rollouts
  mixture    sample covariance over pooled agent + resampled expert rollouts
  enumerate  brute-force expectation over every trajectory

plus a central-difference oracle used only for verification.
"""

import numpy as np

from .divergence import KINDS, density_values, divergence_exact, h_f
from .mdp import FiniteMdp, reachable_states
from .reward_model import (apply_update, default_features, mlp_reward,
                           reward_jacobian, reward_vector, tabular_reward)
from .soft_solver import (enumerate_trajectories, forward_marginals,
                          pairwise_marginals, soft_backward)

FD_PARAM_CAP = 256


class GradReport:
    """grad (n_params,) and diagnostics; estimator names the route in the
    error a non-finite gradient raises."""

    def __init__(self, grad, estimator, diagnostics=None):
        self.grad = np.asarray(grad, dtype=float)
        if not np.all(np.isfinite(self.grad)):
            raise ValueError("%s produced a non-finite gradient" % estimator)
        self.diagnostics = diagnostics or {}


def _h_table(kind, rho_e, marginal_avg):
    """h_f(u) per state, with zero weight where the policy never goes."""
    p = density_values(rho_e, require_normalized=kind != "rkl")
    q = np.asarray(marginal_avg, dtype=float)
    visited = q > 0
    u = p / np.where(visited, q, 1.0)
    with np.errstate(divide="ignore"):
        h = h_f(kind, u)
    h = np.where(visited, h, 0.0)
    if not np.all(np.isfinite(h)):
        bad = int(np.nonzero(~np.isfinite(h))[0][0])
        raise ValueError("h_%s is not finite at state %d: the policy visits a "
                         "state with zero expert density" % (kind, bad))
    return h


def _ensure_solution(mdp, model, alpha, sol):
    if sol is None:
        sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(model), alpha))
    return sol


def analytic_grad_exact(mdp, model, alpha, kind, rho_e=None, sol=None, ratio=None):
    """Sampling-free covariance from the diagonal t = t' plus the two
    pair contractions (t < t' and t > t') of pairwise_marginals.

    Supply either the expert density rho_e (the ratio is formed exactly
    against the solved marginal) or a precomputed (S,) ratio table from
    density_ratio; exactly one of the two.
    """
    if (rho_e is None) == (ratio is None):
        raise ValueError("pass exactly one of rho_e and ratio")
    sol = _ensure_solution(mdp, model, alpha, sol)
    if ratio is not None:
        h = h_f(kind, ratio)
    else:
        h = _h_table(kind, rho_e, sol.marginal_avg)
    g = reward_jacobian(model)
    fwd, bwd = pairwise_marginals(mdp, sol, h)
    t_hor = mdp.horizon
    w = t_hor * h * sol.marginal_avg + fwd + bwd
    sum_h = float(t_hor * (sol.marginal_avg @ h))
    sum_g = t_hor * (sol.marginal_avg @ g)
    grad = (w @ g - sum_h * sum_g) / (alpha * t_hor)
    diag = {"mean_h": float(sol.marginal_avg @ h),
            "h_min": float(h.min()), "h_max": float(h.max())}
    return GradReport(grad, "exact", diagnostics=diag)


def _cov_grad(estimator, states, model, alpha, kind, ratio):
    """Sample covariance of the per-trajectory sums of h and of the
    reward jacobian over (n, T+1) state rows, skipping s_0. The
    diagnostics give the spread of the h sums; a wide spread means the
    batch mixes states with very different expert/agent density ratios."""
    body = states[:, 1:]
    n, t_hor = body.shape
    if n < 2:
        raise ValueError("covariance needs at least 2 trajectories, got %d" % n)
    g = reward_jacobian(model)
    n_states = g.shape[0]
    a = h_f(kind, ratio)[body].sum(axis=1)
    flat = (body + np.arange(n)[:, None] * n_states).ravel()
    b = np.bincount(flat, minlength=n * n_states).reshape(n, n_states) @ g
    grad = (a - a.mean()) @ (b - b.mean(axis=0)) / (n - 1) / (alpha * t_hor)
    diag = {"mean_h": float(a.mean() / t_hor),
            "sum_h_min": float(a.min()), "sum_h_max": float(a.max())}
    return GradReport(grad, estimator, diagnostics=diag)


def analytic_grad_mc(batch, model, alpha, kind, ratio):
    """Unbiased sample covariance over a batch of policy rollouts.

    ratio is a per-state table from density_ratio, clipped there so a
    stray state with vanishing estimated density cannot blow up a term.
    """
    return _cov_grad("mc", batch.states, model, alpha, kind, ratio)


def analytic_grad_mixture(agent, expert, model, alpha, kind, ratio, seed=0):
    """Covariance over agent rollouts pooled with resampled expert ones.

    The expert batch is bootstrap-resampled to the agent batch size so
    both sides enter the pool with equal weight.
    """
    if agent.states.shape[1] != expert.states.shape[1]:
        raise ValueError("agent and expert horizons differ")
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, expert.n, size=agent.n)
    pooled = np.vstack([agent.states, expert.states[pick]])
    return _cov_grad("mixture", pooled, model, alpha, kind, ratio)


def fd_grad_oracle(mdp, model, alpha, kind, rho_e, eps=1e-5):
    """Central differences through solve -> marginal -> exact divergence.

    Independent of every analytic path above; refuses models beyond
    FD_PARAM_CAP parameters since the cost is two solves per parameter.
    """
    if model.n_params > FD_PARAM_CAP:
        raise ValueError("finite differencing %d params exceeds the cap of %d"
                         % (model.n_params, FD_PARAM_CAP))

    def loss(m):
        sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(m), alpha))
        return divergence_exact(kind, rho_e, sol.marginal_avg)

    grad = np.zeros(model.n_params)
    for i in range(model.n_params):
        step = np.zeros(model.n_params)
        step[i] = eps
        grad[i] = (loss(apply_update(model, step))
                   - loss(apply_update(model, -step))) / (2 * eps)
    return GradReport(grad, "fd_oracle")


def enumeration_grad(mdp, model, alpha, kind, rho_e, sol=None):
    """Exact covariance by summing over every trajectory explicitly."""
    sol = _ensure_solution(mdp, model, alpha, sol)
    h = _h_table(kind, rho_e, sol.marginal_avg)
    g = reward_jacobian(model)
    paths, probs = enumerate_trajectories(mdp, sol)
    body = paths[:, 1:]
    a = h[body].sum(axis=1)
    b = g[body].sum(axis=1) if body.size else np.zeros((len(paths), g.shape[1]))
    e_ab = (probs * a) @ b
    e_a = probs @ a
    e_b = probs @ b
    grad = (e_ab - e_a * e_b) / (alpha * mdp.horizon)
    return GradReport(grad, "enumerate")


def _random_instance(rng, index):
    """Deterministic-transition MDP with a point-mass start state.

    On this family the trajectory covariance is exactly the gradient of
    the divergence, because the policy is the only source of
    randomness, so the score of a trajectory telescopes into the sum
    of per-step policy scores with no transition terms.
    """
    n_s = int(rng.integers(2, 7))
    n_a = int(rng.integers(2, 4))
    horizon = int(rng.integers(2, 6))
    dest = rng.integers(0, n_s, size=(n_s, n_a))
    transitions = np.zeros((n_s, n_a, n_s))
    for s in range(n_s):
        for a in range(n_a):
            transitions[s, a, dest[s, a]] = 1.0
    s0 = int(rng.integers(0, n_s))
    init = np.zeros(n_s)
    init[s0] = 1.0
    coords = rng.random((n_s, 2)) * 3.0
    mdp = FiniteMdp(transitions, init, horizon, coords=coords)
    # expert mass only where the policy can ever go, so the exact
    # divergence stays finite for every theta along the FD stencil
    reach = reachable_states(mdp)
    rho_e = np.zeros(n_s)
    rho_e[reach] = rng.dirichlet(np.full(int(reach.sum()), 2.0))
    if index % 2 == 0:
        model = tabular_reward(n_s)
        model = apply_update(model, rng.normal(0.0, 0.3, size=n_s))
    else:
        model = mlp_reward(default_features(mdp), hidden=(8, 8),
                           seed=int(rng.integers(0, 2 ** 31)))
        model = apply_update(model, rng.normal(0.0, 0.3, size=model.n_params))
    alpha = float(rng.uniform(0.5, 2.0))
    return mdp, rho_e, model, alpha


def gradcheck_suite(n_instances=20, seed=0, eps=1e-5):
    """Analytic-vs-finite-difference sweep over random instances.

    Returns one record per instance with the relative L2 error between
    the exact covariance gradient and the central-difference oracle.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_instances):
        mdp, rho_e, model, alpha = _random_instance(rng, i)
        kind = KINDS[i % len(KINDS)]
        ga = analytic_grad_exact(mdp, model, alpha, kind, rho_e=rho_e).grad
        gf = fd_grad_oracle(mdp, model, alpha, kind, rho_e, eps=eps).grad
        rel = float(np.linalg.norm(ga - gf) / max(np.linalg.norm(gf), 1e-12))
        records.append({
            "instance": i,
            "n_states": mdp.n_states,
            "n_actions": mdp.n_actions,
            "horizon": mdp.horizon,
            "kind": kind,
            "reward_kind": model.kind,
            "rel_error": rel,
        })
    return records
