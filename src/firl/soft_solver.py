"""Exact finite-horizon soft (maximum-entropy) planning.

Backward recursion gives the soft values and the Boltzmann policy, one
max-shifted numpy log-sum-exp per step over action-major (A, S) rows,
with no scaling by alpha at alpha = 1.
Every step reads P's successor tables (mdp.succ, mdp.probs; K per
state-action pair), never the dense P: the solve gathers Q_t at the
successors, the kernels pi_t(a|s) P(s'|s, a) push the state marginals,
and sampling draws from action-major CDF tables of the policy and of
each row's successors, built once per call: a draw counts a row's cuts
at or below u times its total, which in a never-decreasing row is the
first entry above it, so it is the per-step cumsum draw. Reward,
finite or refused, is credited on the arrival state, so t = 0 earns
none and time averages run over 1..T.

pairwise_marginals contracts the exact gradient's pair occupancies in
two O(T S A K) sweeps over the kernels, each a running sum over time,
never building the dense tables; enumerate_trajectories, its
brute-force cross-check, refuses beyond a hard cap. No (S, S) array is
formed per step.
"""

import numpy as np

from .mdp import check_table_bytes

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


def _reward_tables(reward, horizon, n_states):
    """(arrival, departure) as the solve reads them: a stationary reward
    is its (S,) vector, read at every step with no (T, S) copy, and a
    departure table of zeros is None, since adding 0.0 changes nothing."""
    if isinstance(reward, TimedReward):
        if reward.arrival.shape != (horizon, n_states):
            raise ValueError("timed reward is %r, mdp needs %r"
                             % (reward.arrival.shape, (horizon, n_states)))
        return reward.arrival, reward.departure if reward.departure.any() else None
    reward = np.asarray(reward, dtype=float)
    if reward.shape != (n_states,):
        raise ValueError("stationary reward must have one value per state")
    if not np.isfinite(reward).all():
        raise ValueError("reward must be finite")
    return reward, None


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
    """Solve V_T = 0, Q_t = E[r(s') + V_{t+1}(s')] over succ/probs, V_t =
    alpha * lse(Q_t / alpha), max-shifted per state; exponentials give the
    policy.

    Each step works action-major on (A, S) tables, so the max and the sum
    over the actions run as A - 1 vector operations over contiguous rows;
    for fewer than 8 actions numpy adds them in the same order as a
    reduction along a state's row, so the results are bit for bit those
    of the state-major solve. With one successor per row (no slip) Q_t is
    a plain gather, as probs is 1 there. At alpha = 1 the division by
    alpha and the product with it are skipped, which moves no bit. The
    policy is returned state-major, (T, S, A) and C-contiguous."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    arrival, departure = _reward_tables(reward, mdp.horizon, mdp.n_states)
    n_t, n_s, n_a = mdp.horizon, mdp.n_states, mdp.n_actions
    stationary = arrival.ndim == 1
    one_succ = mdp.succ.shape[2] == 1
    if one_succ:
        succ_t = np.ascontiguousarray(mdp.succ[..., 0].T)
    scaled = alpha != 1
    soft_v = np.zeros((n_t + 1, n_s))
    pol = np.empty((n_t, n_a, n_s))
    totals = np.empty((n_t, n_s))
    for t in range(n_t - 1, -1, -1):
        x = (arrival if stationary else arrival[t]) + soft_v[t + 1]
        if one_succ:
            z = x.take(succ_t)
        else:
            z = np.einsum("sak,sak->sa", mdp.probs, x[mdp.succ]).T
        if departure is not None:
            z += departure[t]
        if scaled:
            z /= alpha
        top = np.maximum.reduce(z, axis=0)
        z -= top
        np.exp(z, out=pol[t])
        np.add.reduce(pol[t], axis=0, out=totals[t])
        v = np.log(totals[t], out=soft_v[t])
        v += top
        if scaled:
            v *= alpha
    pol /= totals[:, None, :]
    return SoftSolution(np.ascontiguousarray(pol.transpose(0, 2, 1)), soft_v)


def step_kernel(mdp, sol):
    """Every step's state-to-state kernel in successor form, (T, S, A K):
    entry [t, s, a K + k] is pi_t(a|s) P(succ[s, a, k] | s, a), so the
    dense K_t[s, s'] is the sum of row s's weights at successor s'. A
    dense P has K = S, and the weights then take T A S^2 floats."""
    weights = sol.policy[..., None] * mdp.probs
    return weights.reshape(mdp.horizon, mdp.n_states, -1)


def forward_marginals(mdp, sol):
    """Fill sol.kernels (T, S, A K), sol.marginals_t (T+1, S) with
    rho_0..rho_T and sol.marginal_avg with mean rho_1..rho_T; returns sol.
    A step pushes rho_t through K_t: one bincount over flat views of
    succ and of the kernels."""
    n_t, n_s = mdp.horizon, mdp.n_states
    succ = mdp.succ.ravel()
    width = len(succ) // n_s
    kernels = step_kernel(mdp, sol)
    flat = kernels.reshape(n_t, -1)
    rho = np.zeros((n_t + 1, n_s))
    rho[0] = mdp.init_dist
    for t in range(n_t):
        rho[t + 1] = np.bincount(succ, rho[t].repeat(width) * flat[t],
                                 minlength=n_s)
    sol.marginals_t = rho
    sol.kernels = kernels
    sol.marginal_avg = rho[1:].sum(axis=0) / n_t
    return sol


def pairwise_marginals(mdp, sol, h):
    """h-contractions of the pair occupancies P_{t,t'}(i, j) = P(s_t = i,
    s_t' = j) over 1 <= t < t' <= T: returns fwd = sum h^T P_{t,t'} and
    bwd = sum P_{t,t'} h, each (S,), from a forward and a backward sweep.

    The forward sweep pushes c <- (c + h rho_t) K_t for t = 1..T-1 and
    the backward one gathers b <- K_t (h + b) for t = T-1..1; fwd and bwd
    are running sums of c and of rho_t b. Beside the (T+1, S) table
    h rho, a sweep holds O(S A K) floats.
    """
    rho, n_t, n_s = sol.marginals_t, mdp.horizon, mdp.n_states
    succ = mdp.succ.reshape(n_s, -1)
    flat_succ, width = succ.ravel(), succ.shape[1]
    flat = sol.kernels.reshape(n_t, -1)
    hr = h * rho
    c, b, fwd, bwd = np.zeros((4, n_s))
    for t in range(1, n_t):
        c = np.bincount(flat_succ, (c + hr[t]).repeat(width) * flat[t],
                        minlength=n_s)
        fwd += c
    # a matvec with ones sums the rows with less per-call overhead than
    # .sum(axis=1) at small S
    ones = np.ones(width)
    for t in range(n_t - 1, 0, -1):
        b = (sol.kernels[t] * (h + b)[succ]) @ ones
        bwd += rho[t] * b
    return fwd, bwd


def check_rollouts(mdp, n):
    """ValueError if the uniforms or a per-step CDF gather of n rollouts,
    as labelled below, would pass mdp.TABLE_BYTES_CAP."""
    check_table_bytes("rollout uniforms (2T+1, n)", (2 * mdp.horizon + 1, n))
    check_table_bytes("policy CDF gather (A, n)", (mdp.n_actions, n))
    if mdp.succ.shape[2] > 1:
        check_table_bytes("step CDF gather (K, n)", (mdp.succ.shape[2], n))


def sample_trajectories(mdp, sol, n, seed):
    """n rollouts of the solved policy, deterministic in seed; the 2T+1
    uniform blocks come from one call in the same stream. The CDFs are
    built once per call, action-major: (T, A, S) over the policy and
    (K, S A) over each row's successors, which draw as a per-step cumsum
    over the dense row would, since np.cumsum adds in row order and
    adding 0.0 is exact. A draw from a CDF row c is the count of the
    entries of c[:-1] at or below u c[-1]: c never decreases and u c[-1]
    < c[-1] for every u < 1 the generator gives, so the count is the
    index of the first entry above u c[-1], and an action of probability
    0, whose entry repeats its left neighbour's, is never drawn. With one
    successor per row (no slip) that draw always picks it and is skipped,
    its uniforms still generated. The walk fills time-major (T+1, n)
    rows, transposed once at the end into the returned (n, T+1) int64
    C-contiguous rows s_0..s_T. check_rollouts refuses n before any draw."""
    if n < 1:
        raise ValueError("need at least one trajectory")
    check_rollouts(mdp, n)
    n_a, n_k = mdp.n_actions, mdp.succ.shape[2]
    u = np.random.default_rng(seed).random((2 * mdp.horizon + 1, n))
    policy_cdf = np.ascontiguousarray(
        np.cumsum(sol.policy, axis=2).transpose(0, 2, 1))
    succ = mdp.succ.reshape(-1)   # entry (s A + a) K + k
    if n_k > 1:
        step_cdf = np.ascontiguousarray(
            np.cumsum(mdp.probs, axis=2).reshape(-1, n_k).T)
    init_cdf = np.cumsum(mdp.init_dist)
    states = np.empty((mdp.horizon + 1, n), dtype=np.int64)
    states[0] = np.searchsorted(init_cdf, u[0] * init_cdf[-1], side="right")
    for t in range(mdp.horizon):
        s = states[t]
        c = policy_cdf[t].take(s, axis=1)
        row = s * n_a + (c[:-1] <= u[2 * t + 1] * c[-1]).sum(axis=0)
        if n_k > 1:
            c = step_cdf.take(row, axis=1)
            row = row * n_k + (c[:-1] <= u[2 * t + 2] * c[-1]).sum(axis=0)
        states[t + 1] = succ.take(row)
    return np.ascontiguousarray(states.T)


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
