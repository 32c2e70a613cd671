"""Exact finite-horizon soft (maximum-entropy) planning.

Backward recursion gives the soft Q/V tables and the Boltzmann policy;
forward propagation gives the step kernels and the state marginals.
Reward is credited on the arrival state, so the initial state never
earns reward and the time average runs over t = 1..T.

pairwise_marginals contracts the exact gradient's pair occupancies in
two O(T S^2) sweeps over the kernels, never building the dense
tables; enumerate_trajectories, its brute-force cross-check, refuses
beyond a hard cap.
"""

import numpy as np
from scipy.special import logsumexp

ENUMERATION_CAP = 2_000_000


class TimedReward:
    """Time-indexed reward: arrival[t][s'] paid on reaching s' at step t+1,
    optional departure[t][s] paid on leaving s at step t."""

    def __init__(self, arrival, departure=None):
        self.arrival = np.asarray(arrival, dtype=float)
        if self.arrival.ndim != 2:
            raise ValueError("arrival table must be (horizon, n_states)")
        self.departure = None if departure is None else np.asarray(departure, dtype=float)
        if self.departure is not None and self.departure.shape != self.arrival.shape:
            raise ValueError("departure table must match arrival shape")


def _as_timed(reward, horizon, n_states):
    if isinstance(reward, TimedReward):
        if reward.arrival.shape != (horizon, n_states):
            raise ValueError("timed reward is %r, mdp needs %r"
                             % (reward.arrival.shape, (horizon, n_states)))
        return reward
    reward = np.asarray(reward, dtype=float)
    if reward.shape != (n_states,):
        raise ValueError("stationary reward must have one value per state")
    return TimedReward(np.tile(reward, (horizon, 1)))


class SoftSolution:
    """policy (T, S, A) and soft_v (T+1, S); the step kernels (T, S, S) and
    the marginals stay None until forward_marginals, their only filler."""

    def __init__(self, policy, soft_v):
        self.policy = policy
        self.soft_v = soft_v
        self.marginals_t = None
        self.marginal_avg = None
        self.kernels = None


def soft_backward(mdp, reward, alpha=1.0):
    """Solve V_T = 0, Q_t = E[r(s') + V_{t+1}(s')], V_t = alpha * lse(Q_t / alpha)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    n_s, n_a = mdp.n_states, mdp.n_actions
    timed = _as_timed(reward, mdp.horizon, n_s)
    soft_v = np.zeros((mdp.horizon + 1, n_s))
    policy = np.zeros((mdp.horizon, n_s, n_a))
    for t in range(mdp.horizon - 1, -1, -1):
        target = timed.arrival[t] + soft_v[t + 1]
        q = mdp.transitions @ target
        if timed.departure is not None:
            q = q + timed.departure[t][:, None]
        soft_v[t] = alpha * logsumexp(q / alpha, axis=1)
        pi = np.exp((q - soft_v[t][:, None]) / alpha)
        policy[t] = pi / pi.sum(axis=1, keepdims=True)
    return SoftSolution(policy, soft_v)


def step_kernel(mdp, sol, t):
    """State-to-state transition under the step-t policy, shape (S, S)."""
    return np.einsum("ia,iaj->ij", sol.policy[t], mdp.transitions)


def forward_marginals(mdp, sol):
    """Fill sol.kernels (T, S, S), sol.marginals_t (T+1, S) with
    rho_0..rho_T and sol.marginal_avg with mean rho_1..rho_T; returns sol."""
    rho = np.zeros((mdp.horizon + 1, mdp.n_states))
    rho[0] = mdp.init_dist
    kernels = np.empty((mdp.horizon, mdp.n_states, mdp.n_states))
    for t in range(mdp.horizon):
        kernels[t] = step_kernel(mdp, sol, t)
        rho[t + 1] = rho[t] @ kernels[t]
    sol.marginals_t = rho
    sol.kernels = kernels
    sol.marginal_avg = rho[1:].mean(axis=0)
    return sol


def pairwise_marginals(mdp, sol, h):
    """h-contractions of the pair occupancies P_{t,t'}(i, j) = P(s_t = i,
    s_t' = j) over 1 <= t < t' <= T: returns fwd = sum h^T P_{t,t'} and
    bwd = sum P_{t,t'} h, each (S,), from a forward and a backward sweep.
    """
    rho, kernels = sol.marginals_t, sol.kernels
    c, b, fwd, bwd = np.zeros((4, mdp.n_states))
    for t in range(1, mdp.horizon):
        c = (c + h * rho[t]) @ kernels[t]
        fwd += c
    for t in range(mdp.horizon - 1, 0, -1):
        b = kernels[t] @ (h + b)
        bwd += rho[t] * b
    return fwd, bwd


class TrajectoryBatch:
    """states (n, T+1) int64 rows s_0..s_T; seed records provenance."""

    def __init__(self, states, seed=None):
        self.states = np.asarray(states, dtype=np.int64)
        if self.states.ndim != 2:
            raise ValueError("trajectory batch must be 2-d")
        self.seed = seed

    @property
    def n(self):
        return self.states.shape[0]


def _sample_rows(probs, rng):
    """One categorical draw per row of a (n, k) probability matrix."""
    c = np.cumsum(probs, axis=1)
    u = rng.random((probs.shape[0], 1)) * c[:, -1:]
    return (c <= u).sum(axis=1)


def sample_trajectories(mdp, sol, n, seed):
    """n rollouts of the solved policy; deterministic in seed."""
    if n < 1:
        raise ValueError("need at least one trajectory")
    rng = np.random.default_rng(seed)
    states = np.zeros((n, mdp.horizon + 1), dtype=np.int64)
    states[:, 0] = _sample_rows(np.tile(mdp.init_dist, (n, 1)), rng)
    for t in range(mdp.horizon):
        s = states[:, t]
        a = _sample_rows(sol.policy[t][s], rng)
        states[:, t + 1] = _sample_rows(mdp.transitions[s, a], rng)
    return TrajectoryBatch(states, seed=seed)


def enumerate_trajectories(mdp, sol):
    """Every positive-probability state path with its exact probability.

    Returns (paths (m, T+1) int64, probs (m,)). Zero-probability
    branches are pruned as they appear. Refuses when the unpruned
    path count would exceed ENUMERATION_CAP.
    """
    total = mdp.n_states ** (mdp.horizon + 1)
    if total > ENUMERATION_CAP:
        raise ValueError("enumeration of %d sequences exceeds the cap of %d"
                         % (total, ENUMERATION_CAP))
    keep = mdp.init_dist > 0
    paths = np.nonzero(keep)[0][:, None].astype(np.int64)
    probs = mdp.init_dist[keep]
    for t in range(mdp.horizon):
        step = sol.kernels[t][paths[:, -1]]         # (m, S)
        m, n_s = step.shape
        flat = (probs[:, None] * step).ravel()
        keep = flat > 0
        idx = np.nonzero(keep)[0]
        paths = np.column_stack([paths[idx // n_s],
                                 (idx % n_s).astype(np.int64)])
        probs = flat[keep]
    return paths, probs
