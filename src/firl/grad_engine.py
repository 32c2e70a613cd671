"""Analytic gradient of the f-divergence between the expert state
density and the learned policy's state marginal.

The gradient is (1 / (alpha T)) times the trajectory covariance between
the summed ratio statistic h_f(u(s_t)) and the summed reward gradient,
both over t = 1..T (the start state carries no reward). Four
evaluation routes live here:

  exact      pair occupancies contracted in two O(T S A K) sweeps over P's
             successor tables (K successors per state-action), no sampling
  mc         sample covariance over policy rollouts
  mixture    covariance over an equal-weight pool of agent and demos; its
             agent half is the exact route's moments, no sampling
  enumerate  brute-force expectation over every trajectory, its moments
             the path-weighted visit counts

plus a central-difference oracle used only for verification. exact and
mixture share the agent's moments; exact, mixture and enumerate share
the final contraction. exact and enumerate weigh the states by
divergence.h_table against the solve's marginal; mc and mixture take
that (S,) weight h from the caller. Every route works in state space,
makes one reward_vjp call on an (S,) vector at the end and returns the
(n_params,) float gradient, refusing one with a non-finite entry.
"""

import numpy as np

from .divergence import KINDS, divergence_exact, h_table
from .mdp import FiniteMdp, check_table_bytes, reachable_states
from .reward_model import (apply_update, default_features, mlp_reward,
                           reward_vector, reward_vjp, tabular_reward)
from .soft_solver import (check_rollouts, enumerate_trajectories,
                          forward_marginals, pairwise_marginals, soft_backward)

FD_PARAM_CAP = 256


def _finite(grad, route):
    """grad, refused when an entry is not finite; route names the
    estimator in the error."""
    if not np.isfinite(grad).all():
        raise ValueError("%s produced a non-finite gradient" % route)
    return grad


def _agent_moments(mdp, sol, h):
    """The agent's (E[a b], E[a], E[b]) under sol, with a = sum_{t>=1}
    h(s_t) and b the visit counts over 1..T: E[a b] is the diagonal
    t = t' plus the two pair contractions of pairwise_marginals."""
    fwd, bwd = pairwise_marginals(mdp, sol, h)
    t_hor, rho = mdp.horizon, sol.marginal_avg
    return t_hor * h * rho + fwd + bwd, t_hor * (rho @ h), t_hor * rho


def _covariance_grad(model, alpha, t_hor, moments, route):
    """grad = reward_vjp(E[a b] - E[a] E[b]) / (alpha T) from moments
    (E[a b], E[a], E[b])."""
    e_ab, e_a, e_b = moments
    return _finite(reward_vjp(model, e_ab - e_a * e_b) / (alpha * t_hor), route)


def analytic_grad_exact(mdp, model, alpha, kind, rho_e, sol):
    """Sampling-free covariance from the agent's exact moments under
    sol (_agent_moments).

    The covariance is exact, but it is the derivative of the divergence
    only when the transitions are deterministic and the start state is
    a point mass (see _random_instance); under slip or a spread start
    it is not.

    h is formed from the expert density rho_e against the marginal of
    sol, the forward solve for model at alpha.
    """
    h = h_table(kind, rho_e, sol.marginal_avg)
    return _covariance_grad(model, alpha, mdp.horizon,
                            _agent_moments(mdp, sol, h), "exact")


def _check_visit_counts(n, n_states):
    check_table_bytes("visit counts (n, S)", (n, n_states))


def check_mc_batch(mdp, n):
    """ValueError if mc's n rollouts on mdp would pass mdp.TABLE_BYTES_CAP
    in the sampler (check_rollouts) or in analytic_grad_mc's counts."""
    check_rollouts(mdp, n)
    _check_visit_counts(n, mdp.n_states)


def analytic_grad_mc(batch, model, alpha, h):
    """Unbiased sample covariance over a batch of policy rollouts, (n, T+1)
    state rows whose s_0 is skipped, weighed per state by the (S,) h:
    divergence.h_table on a density expert, h_f of the discriminator's
    ratio on demonstrations. The centred h sums are contracted with the
    centred (n, S) visit counts first, and reward_vjp maps the (S,)
    result. Counts past mdp.TABLE_BYTES_CAP are refused before they
    form, and the flat visit index dies inside bincount's call, so at
    most two (n, S)-sized tables are alive at once."""
    body = batch[:, 1:]
    n, t_hor = body.shape
    if n < 2:
        raise ValueError("covariance needs at least 2 trajectories, got %d" % n)
    n_states = len(h)
    _check_visit_counts(n, n_states)
    a = h.take(body).sum(axis=1)
    offsets = np.arange(0, n * n_states, n_states)[:, None]
    b = np.bincount((body + offsets).ravel(),
                    minlength=n * n_states).reshape(n, n_states)
    a_mean = a.sum() / n   # ndarray.mean's arithmetic, without its wrapper
    cov = (a - a_mean) @ (b - b.sum(axis=0) / n)
    return _finite(reward_vjp(model, cov) / (n - 1) / (alpha * t_hor), "mc")


def analytic_grad_mixture(mdp, model, alpha, h, expert, sol):
    """Covariance over a pool weighing the agent and the demos equally,
    E = (E_A + E_E) / 2, with a = sum_{t>=1} h(s_t) for the (S,) weight h
    (h_f of the discriminator's ratio) and b the visit counts over 1..T:
    grad = reward_vjp(E[a b] - E[a] E[b]) / (alpha T).
    The agent half is exact under sol (_agent_moments, no rollouts);
    the demo half is plain means over their (n, T+1) rows, which a
    bootstrap of them averages to. Like analytic_grad_exact, it is the
    derivative only without slip and from a point start."""
    body = expert[:, 1:]
    n_e, t_hor = body.shape
    if t_hor != mdp.horizon:
        raise ValueError("expert horizon %d differs from the mdp's %d"
                         % (t_hor, mdp.horizon))
    visits = body.ravel()
    a_e = h.take(body).sum(axis=1)
    demo = (np.bincount(visits, a_e.repeat(t_hor), minlength=len(h)) / n_e,
            a_e.sum() / n_e, np.bincount(visits, minlength=len(h)) / n_e)
    pool = [(x + y) / 2 for x, y in zip(_agent_moments(mdp, sol, h), demo)]
    return _covariance_grad(model, alpha, t_hor, pool, "mixture")


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
    return _finite(grad, "fd_oracle")


def enumeration_grad(mdp, model, alpha, kind, rho_e, sol):
    """Exact covariance by summing over every trajectory explicitly,
    under sol, the forward solve for model at alpha. E[a b] and E[b]
    are the path-weighted visit counts, independent of the pair sweeps
    that _agent_moments runs, and finish as the exact route does."""
    h = h_table(kind, rho_e, sol.marginal_avg)
    paths, probs = enumerate_trajectories(mdp, sol)
    body = paths[:, 1:]
    t_hor = body.shape[1]
    a = h.take(body).sum(axis=1)
    visits = body.ravel()
    moments = (np.bincount(visits, (probs * a).repeat(t_hor), minlength=len(h)),
               probs @ a,
               np.bincount(visits, probs.repeat(t_hor), minlength=len(h)))
    return _covariance_grad(model, alpha, t_hor, moments, "enumerate")


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
    transitions = np.eye(n_s)[rng.integers(0, n_s, size=(n_s, n_a))]
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
        sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(model), alpha))
        ga = analytic_grad_exact(mdp, model, alpha, kind, rho_e, sol)
        gf = fd_grad_oracle(mdp, model, alpha, kind, rho_e, eps=eps)
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
