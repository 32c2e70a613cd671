"""Finite-horizon tabular MDPs: construction, validation, perturbation."""

import math

import numpy as np

# Action order used by the gridworld builders.
GRID_ACTIONS = ("right", "up", "left", "down", "stay")
GRID_DELTAS = ((1, 0), (0, 1), (-1, 0), (0, -1), (0, 0))

STOCHASTIC_TOL = 1e-12

# The most bytes one float table may take: a gridworld's dense P (S, A, S),
# each (T, S, A K) step table of a solve, the sampled path's rollout
# uniforms (2T+1, n), its per-step policy and successor CDF gathers (A, n)
# and (K, n), and visit counts (n, S), and the kNN cloud's probe points
# (m, 2). At its worst, an mc sampling step with the kNN cloud building
# on its worker, a run holds 11.8 tables' worth at once, so 2.9 GiB
# (README).
TABLE_BYTES_CAP = 2 ** 28


class FiniteMdp:
    """Tabular MDP (S, A, P, rho0, T) plus per-state 2-D coordinates.

    transitions[s, a] is the distribution over next states. coords[s] is
    the point used for kernels, features and heatmap export; when not
    given, states are laid out on a line with unit spacing.

    succ (S, A, K) and probs (S, A, K) are P's successor tables: row
    (s, a) lists the states with P[s, a, s'] > 0 in increasing index,
    and their probabilities; K is the most such states in any row, and
    padded slots hold state 0 with probability 0. A gridworld has
    K <= 5; a dense P has K = S. The solve, the marginals, the gradients,
    sampling and reachability read only the tables; the dense
    transitions are the constructor's input, read again only by
    validate and modify_dynamics. transitions, init_dist and coords are
    read-only copies, so neither the tables nor the checked layout can
    go stale. A horizon whose (T, S, A K) step tables would pass
    TABLE_BYTES_CAP is refused.
    """

    def __init__(self, transitions, init_dist, horizon, coords=None):
        self.transitions = _read_only(transitions)
        self.init_dist = _read_only(init_dist)
        self.horizon = int(horizon)
        if self.transitions.ndim != 3:
            raise ValueError("transitions must have shape (S, A, S), got %r"
                             % (self.transitions.shape,))
        self.n_states = int(self.transitions.shape[0])
        self.n_actions = int(self.transitions.shape[1])
        if coords is None:
            coords = np.column_stack([
                np.arange(self.n_states, dtype=float) + 0.5,
                np.full(self.n_states, 0.5),
            ])
        self.coords = _read_only(coords)
        validate(self)
        self.succ, self.probs = _successor_tables(self.transitions)
        check_table_bytes("step tables (T, S, A, K)",
                          (self.horizon,) + self.succ.shape)


def check_table_bytes(what, shape):
    """ValueError if a float table of this shape would pass TABLE_BYTES_CAP;
    called before anything of that size is allocated."""
    _check_table_bytes(what, shape)


def _check_table_bytes(what, shape):
    # check_table_bytes under a private name, which tracers that wrap
    # public functions leave alone: kl_eval.CellCloud calls it from a
    # worker thread
    size = 8 * math.prod(shape)
    if size > TABLE_BYTES_CAP:
        raise ValueError("%s = %r would take %d bytes, past the cap of %d"
                         % (what, shape, size, TABLE_BYTES_CAP))


def _read_only(values):
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _successor_tables(P):
    """(succ, probs) of a validated P in one linear pass: np.nonzero
    lists each row's non-zeros in increasing index."""
    n_s, n_a = P.shape[:2]
    rows = P.reshape(n_s * n_a, n_s)
    row, col = np.nonzero(rows > 0)
    counts = np.bincount(row, minlength=n_s * n_a)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    succ = np.zeros((n_s * n_a, counts.max()), dtype=np.int64)
    probs = np.zeros(succ.shape)
    succ[row, slot] = col
    probs[row, slot] = rows[row, col]
    succ.flags.writeable = probs.flags.writeable = False
    return succ.reshape(n_s, n_a, -1), probs.reshape(n_s, n_a, -1)


def validate(mdp):
    """Check every structural invariant; raises ValueError naming the first
    violation (state/action indices included)."""
    P = mdp.transitions
    if P.ndim != 3 or P.shape[2] != P.shape[0] or P.shape[0] < 1:
        raise ValueError("transitions must have shape (S, A, S), got %r" % (P.shape,))
    if mdp.horizon < 1:
        raise ValueError("horizon must be >= 1, got %d" % mdp.horizon)
    if not np.all(np.isfinite(P)):
        raise ValueError("transitions contain non-finite entries")
    neg = np.argwhere(P < 0)
    if len(neg):
        s, a, sp = neg[0]
        raise ValueError("negative transition probability at (s=%d, a=%d, s'=%d)"
                         % (s, a, sp))
    sums = P.sum(axis=2)
    bad = np.argwhere(np.abs(sums - 1.0) > STOCHASTIC_TOL)
    if len(bad):
        s, a = bad[0]
        raise ValueError("transition row (s=%d, a=%d) sums to %.17g, not 1"
                         % (s, a, sums[s, a]))
    if mdp.init_dist.shape != (mdp.n_states,):
        raise ValueError("init_dist must be a length-S vector")
    if np.any(mdp.init_dist < 0):
        s = int(np.argwhere(mdp.init_dist < 0)[0][0])
        raise ValueError("negative init_dist entry at state %d" % s)
    if abs(mdp.init_dist.sum() - 1.0) > STOCHASTIC_TOL:
        raise ValueError("init_dist sums to %.17g, not 1" % mdp.init_dist.sum())
    if mdp.coords.shape != (mdp.n_states, 2):
        raise ValueError("coords must have shape (S, 2)")


def reachable_states(mdp):
    """Boolean (S,) mask of the states with positive probability at some
    t in 1..T under a policy that takes every action, pushed through succ."""
    live = mdp.probs > 0
    front = mdp.init_dist > 0
    seen = np.zeros(mdp.n_states, dtype=bool)
    for _ in range(mdp.horizon):
        front = np.bincount(mdp.succ[front][live[front]], minlength=mdp.n_states) > 0
        seen |= front
    return seen


def build_gridworld(width, height, slip_prob=0.0, init_state=0, horizon=10):
    """Grid MDP with actions (right, up, left, down, stay).

    State s sits at column x = s % width, row y = s // width; coords are
    the cell centers (x + 0.5, y + 0.5). Moves off the edge stay in
    place. The intended action's effect happens with probability
    1 - slip_prob; the remainder is split evenly over the other four
    actions' effects.
    """
    if width < 1 or height < 1:
        raise ValueError("grid must have at least one cell")
    if not 0.0 <= slip_prob < 1.0:
        raise ValueError("slip_prob must lie in [0, 1)")
    n = width * height
    check_table_bytes("dense transitions (S, A, S)", (n, len(GRID_ACTIONS), n))
    if not 0 <= init_state < n:
        raise ValueError("init_state %d outside [0, %d)" % (init_state, n))
    states = np.arange(n)
    xs, ys = states % width, states // width
    dx, dy = np.array(GRID_DELTAS).T
    nx, ny = xs[:, None] + dx, ys[:, None] + dy
    inside = (0 <= nx) & (nx < width) & (0 <= ny) & (ny < height)
    dest = np.where(inside, ny * width + nx, states[:, None])
    P = _rebuild_from_effects(dest, slip_prob)
    init = np.zeros(n)
    init[init_state] = 1.0
    coords = np.column_stack([xs + 0.5, ys + 0.5]).astype(float)
    return FiniteMdp(P, init, horizon, coords)


def _rebuild_from_effects(dest, slip_prob):
    """Transition table from per-(s, a) intended destinations.

    Slip mass lands on the other actions' destinations; collisions
    (several actions leading to the same cell) simply accumulate, each
    cell taking its intended mass first and then the slips of actions
    b = 0, 1, ... in turn.
    """
    n, na = dest.shape
    P = np.zeros((n, na, n))
    s, a = np.indices((n, na))
    P[s, a, dest] = 1.0 - slip_prob
    for b in range(na):
        # no (s, a) repeats within one statement, so += adds every share
        others = a[0] != b
        P[s[:, others], a[:, others], dest[:, b, None]] += slip_prob / (na - 1)
    return P


def modify_dynamics(mdp, action_remap=None, slip_override=None):
    """New MDP with remapped or degraded actions; everything else unchanged.

    action_remap maps action index -> replacement action index; the
    remapped action copies the replacement's transition rows. With
    slip_override, each row's intended effect (its argmax, which must
    carry probability > 0.5) is kept and the table is rebuilt at the new
    slip level. Remap applies before the slip rebuild.
    """
    P = mdp.transitions.copy()
    na = mdp.n_actions
    if action_remap:
        for a, b in action_remap.items():
            if not (0 <= a < na and 0 <= b < na):
                raise ValueError("action remap %r -> %r outside [0, %d)" % (a, b, na))
        src = P.copy()
        for a, b in action_remap.items():
            P[:, a, :] = src[:, b, :]
    if slip_override is not None:
        if not 0.0 <= slip_override < 1.0:
            raise ValueError("slip_override must lie in [0, 1)")
        if na < 2:
            raise ValueError("slip rebuild needs at least two actions")
        maxp = P.max(axis=2)
        low = np.argwhere(maxp <= 0.5)
        if len(low):
            s, a = low[0]
            raise ValueError(
                "cannot identify the intended effect of (s=%d, a=%d): "
                "max transition probability %.3f is not > 0.5" % (s, a, maxp[s, a]))
        P = _rebuild_from_effects(P.argmax(axis=2), slip_override)
    return FiniteMdp(P, mdp.init_dist, mdp.horizon, mdp.coords)
