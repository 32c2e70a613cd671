"""Exact finite-horizon soft (maximum-entropy) planning.

Backward recursion gives the soft values and the Boltzmann policy, one
max-shifted numpy log-sum-exp per step. Everything after the solve runs
over P's successor tables (mdp.succ, mdp.probs; K successors per
state-action pair): the step kernels are the weights pi_t(a|s) P(s'|s, a)
in successor form, forward propagation pushes the state marginals
through them, and sampling draws from CDF tables over each row's
successors, built once per call. Reward, finite or refused, is credited
on the arrival state, so t = 0 earns none and time averages run over
1..T.

pairwise_marginals contracts the exact gradient's pair occupancies in
two O(T S A K) sweeps over the kernels, never building the dense
tables; enumerate_trajectories, its brute-force cross-check, refuses
beyond a hard cap. No (S, S) array is formed per step.
"""

import numpy as np

ENUMERATION_CAP = 2_000_000


class TimedReward:
    """Time-indexed reward: arrival[t][s'] paid on reaching s' at step t+1,
    departure[t][s] paid on leaving s at step t, zero if not given."""

    def __init__(self, arrival, departure=None):
        self.arrival = np.asarray(arrival, dtype=float)
        if self.arrival.ndim != 2:
            raise ValueError("arrival table must be (horizon, n_states)")
        self.departure = np.zeros_like(self.arrival) if departure is None \
            else np.asarray(departure, dtype=float)
        if self.departure.shape != self.arrival.shape:
            raise ValueError("departure table must match arrival shape")
        if not (np.isfinite(self.arrival).all() and np.isfinite(self.departure).all()):
            raise ValueError("reward must be finite")


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
    """policy (T, S, A) and soft_v (T+1, S); the step kernels (T, S, A K)
    in successor form and the marginals stay None until
    forward_marginals, their only filler."""

    def __init__(self, policy, soft_v):
        self.policy = policy
        self.soft_v = soft_v
        self.marginals_t = None
        self.marginal_avg = None
        self.kernels = None


def soft_backward(mdp, reward, alpha=1.0):
    """Solve V_T = 0, Q_t = E[r(s') + V_{t+1}(s')], V_t = alpha * lse(Q_t / alpha).
    The lse is shifted by each row's max; its exponentials give the policy."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    timed = _as_timed(reward, mdp.horizon, mdp.n_states)
    soft_v = np.zeros((mdp.horizon + 1, mdp.n_states))
    policy = np.empty((mdp.horizon, mdp.n_states, mdp.n_actions))
    totals = np.empty((mdp.horizon, mdp.n_states))
    for t in range(mdp.horizon - 1, -1, -1):
        q = mdp.transitions @ (timed.arrival[t] + soft_v[t + 1])
        z = (q + timed.departure[t][:, None]) / alpha
        top = z.max(axis=1)
        e = np.exp(z - top[:, None], out=policy[t])
        totals[t] = e.sum(axis=1)
        soft_v[t] = alpha * (top + np.log(totals[t]))
    policy /= totals[..., None]
    return SoftSolution(policy, soft_v)


def step_kernel(mdp, sol):
    """Every step's state-to-state kernel in successor form, (T, S, A K):
    entry [t, s, a K + k] is pi_t(a|s) P(succ[s, a, k] | s, a), so the
    dense K_t[s, s'] is the sum of row s's weights at successor s'. A
    dense P has K = S, and the weights then take T A S^2 floats."""
    weights = sol.policy[..., None] * mdp.probs
    return weights.reshape(mdp.horizon, mdp.n_states, -1)


def _push(succ, x, weights):
    """Row vector x (S,) times one step's kernel, given as (S, A K)
    successors and weights: the sums of x[s] times row s's weights at
    their successors."""
    return np.bincount(succ.ravel(), x.repeat(succ.shape[1]) * weights.ravel(),
                       minlength=len(x))


def forward_marginals(mdp, sol):
    """Fill sol.kernels (T, S, A K), sol.marginals_t (T+1, S) with
    rho_0..rho_T and sol.marginal_avg with mean rho_1..rho_T; returns sol."""
    succ = mdp.succ.reshape(mdp.n_states, -1)
    kernels = step_kernel(mdp, sol)
    rho = np.zeros((mdp.horizon + 1, mdp.n_states))
    rho[0] = mdp.init_dist
    for t in range(mdp.horizon):
        rho[t + 1] = _push(succ, rho[t], kernels[t])
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
    succ = mdp.succ.reshape(mdp.n_states, -1)
    c, b, fwd, bwd = np.zeros((4, mdp.n_states))
    for t in range(1, mdp.horizon):
        c = _push(succ, c + h * rho[t], kernels[t])
        fwd += c
    # a matvec with ones sums the rows with less per-call overhead than
    # .sum(axis=1) at small S
    ones = np.ones(succ.shape[1])
    for t in range(mdp.horizon - 1, 0, -1):
        b = (kernels[t] * (h + b)[succ]) @ ones
        bwd += rho[t] * b
    return fwd, bwd


class TrajectoryBatch:
    """states (n, T+1) int64 rows s_0..s_T."""

    def __init__(self, states):
        self.states = np.asarray(states, dtype=np.int64)
        if self.states.ndim != 2:
            raise ValueError("trajectory batch must be 2-d")

    @property
    def n(self):
        return self.states.shape[0]


def _draw(cdf, u):
    """One categorical draw per row of a (n, k) table of cumulative sums,
    given (n, 1) uniforms: the first entry above u times the row's last
    entry, which a row has because u < 1."""
    return (cdf > u * cdf[:, -1:]).argmax(axis=1)


def sample_trajectories(mdp, sol, n, seed):
    """n rollouts of the solved policy, deterministic in seed. np.cumsum adds
    in row order and adding 0.0 is exact, so CDFs built once over each
    row's successors draw as a per-step cumsum over the dense row would,
    and the 2T+1 uniform blocks come from one call in the same stream."""
    if n < 1:
        raise ValueError("need at least one trajectory")
    u = np.random.default_rng(seed).random((2 * mdp.horizon + 1, n, 1))
    policy_cdf = np.cumsum(sol.policy, axis=2)
    step_cdf = np.cumsum(mdp.probs, axis=2)
    states = np.zeros((n, mdp.horizon + 1), dtype=np.int64)
    states[:, 0] = _draw(np.cumsum(mdp.init_dist)[None], u[0])
    for t in range(mdp.horizon):
        s = states[:, t]
        a = _draw(policy_cdf[t, s], u[2 * t + 1])
        states[:, t + 1] = mdp.succ[s, a, _draw(step_cdf[s, a], u[2 * t + 2])]
    return TrajectoryBatch(states)


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
    n_s = mdp.n_states
    succ = mdp.succ.reshape(n_s, -1)
    keep = mdp.init_dist > 0
    paths = np.nonzero(keep)[0][:, None].astype(np.int64)
    probs = mdp.init_dist[keep]
    for t in range(mdp.horizon):
        ends = paths[:, -1]
        m = len(ends)
        cells = (np.arange(m)[:, None] * n_s + succ[ends]).ravel()
        step = np.bincount(cells, sol.kernels[t][ends].ravel(), minlength=m * n_s)
        flat = probs.repeat(n_s) * step
        keep = flat > 0
        idx = np.nonzero(keep)[0]
        paths = np.column_stack([paths[idx // n_s],
                                 (idx % n_s).astype(np.int64)])
        probs = flat[keep]
    return paths, probs
