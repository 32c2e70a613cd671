"""Policy evaluation: the Kozachenko-Leonenko k-NN KL estimator (Wang,
Kulkarni & Verdu 2009) and expected return under a policy. Exact
tabular divergences live in divergence.divergence_exact.

knn_kl returns a plain float. Between two 2-d point clouds it
estimates both densities from samples. In training the agent's side
is exact instead: its state marginal rho (S,) is known, and with unit
cells around mdp.coords and uniform +-0.5 jitter its density is rho[s]
on cell s. Only the expert side is estimated, from a CellCloud built
once per run:

  KL(expert || agent) = -H_E - mean_i log rho[s_i]
  KL(agent || expert) = sum over rho > 0 of rho (log rho - L_E)

H_E is the k-NN entropy of the expert cloud and L_E(s) its mean k-NN
log-density over clip(2 v_s, PROBES_MIN, PROBES) jittered points in
cell s, which the cloud visits v_s times: a cell of few visits has a
noisy L_E whatever its probe count, so it gets few probes. The cloud's
one-off cost is n + sum_s clip(2 v_s, 32, 400) <= 3n + 32 S tree
queries for n expert visits, spread over every core the process may
use; each query's answer is independent of how the queries are split,
so no value depends on the core count. A CellCloud is a plain value,
built in full by its constructor (about 0.02 s for 10,000 visits on a
15x15 grid, 2 cores); trainer.run_firl builds it on a worker thread
while it trains.

The forward value is +inf when an expert visit sits on a state rho
never reaches, as the exact divergence is. The reverse value inherits
the k-NN density's limit on cells of tiny expert mass: the k-th
neighbour of a probe there lies in other cells, so L_E overstates the
expert density and the estimate falls far below the exact value (15x15
grid, sigma-1 Gaussian, zero reward: exact 29.6, estimate 8.4). The
estimate from two sampled clouds has the same limit (8.3 there).

Both values carry the bias of the k-NN estimates H_E and L_E, so they
cannot resolve a divergence below about 0.01 and can read below zero.
On the seed-0 gaussian_fkl scenario, from iteration 100 on, the
forward estimate reads -0.004 to -0.006 while the exact forward KL
falls from 0.0015 to 0.0003; on irl_traj16, whose cloud is 320 demo
visits, it reads -0.04 to -0.08 after iteration 0.
"""

import os

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .mdp import _check_table_bytes

KNN_K = 3
PROBES = 400   # most jittered probe points per cell for the expert log-density
PROBES_MIN = 32   # fewest; between the two, a cell gets two per visit
HALF_CELL = 0.5   # a visit is jittered uniformly over its unit cell
_LOG_DISC = np.log(np.pi)   # log volume of the unit ball in 2-d


def _workers():
    """The number of cores this process may run on: its affinity set, or
    the machine's core count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kth_distance(tree, queries, k, p=2.0):
    """Distance in the Minkowski p-norm from each query point to its
    k-th nearest tree point. The queries are split over every usable
    core; each answer is independent of the split."""
    return tree.query(queries, k=[k], p=p, workers=_workers())[0][:, 0]


def cell_gaps(coords):
    """Each point's max-norm distance to its nearest other point in coords."""
    return _kth_distance(cKDTree(coords), coords, 2, p=np.inf)


class CellCloud:
    """The jittered cloud of visits to mdp's unit cells, one per state
    in states, built from one cKDTree. Keeps states, the cloud's k-NN
    entropy and cell_log_density (S,), the mean psi-corrected k-NN
    log-density of the cloud over the jittered probes of each cell:
    two per visit to the cell, at least PROBES_MIN and at most PROBES,
    so n + sum_s clip(2 v_s, 32, 400) <= 3n + 32 S tree queries in all.

    The constructor checks the probe table against mdp.TABLE_BYTES_CAP,
    draws the cloud's jitter, its tie-break and the probes, in that
    order, then builds the tree and runs the self-query and the probe
    query. It calls no public function of this package, so it may run
    off the main thread under a tracer that keeps one call stack per
    process.
    """

    def __init__(self, mdp, states, seed=0):
        rng = np.random.default_rng(seed)   # a Generator passes through as is
        self.states = np.asarray(states, dtype=np.int64).ravel()
        n, k = self.states.size, KNN_K
        if n <= k:
            raise ValueError("need more than k cloud points, got %d" % n)
        per_cell = np.clip(2 * np.bincount(self.states, minlength=mdp.n_states),
                           PROBES_MIN, PROBES)
        _check_table_bytes("kNN probe points (m, 2)", (int(per_cell.sum()), 2))
        pts = _states_to_points(mdp, self.states, seed=rng)
        pts += rng.uniform(-1e-10, 1e-10, size=pts.shape)
        cells = np.repeat(np.arange(mdp.n_states), per_cell)
        probes = _states_to_points(mdp, cells, seed=rng)
        # faster to build and query than the default balanced, compact
        # tree, and the k-th distances are exact whatever its shape
        tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
        rho = _kth_distance(tree, pts, k + 1)   # skip self-match
        nu = _kth_distance(tree, probes, k)
        self.entropy = float(digamma(n) - digamma(k) + _LOG_DISC
                             + 2.0 * np.mean(np.log(rho)))
        # a probe is not a cloud point, so its mass fraction is Beta(k, n - k + 1)
        log_density = digamma(k) - digamma(n + 1) - _LOG_DISC - 2.0 * np.log(nu)
        sums = np.bincount(cells, log_density, minlength=mdp.n_states)
        self.cell_log_density = sums / per_cell


def _cell_density(cloud, density):
    rho = np.asarray(density, dtype=float)
    if rho.shape != cloud.cell_log_density.shape:
        raise ValueError("cell density has shape %r, the cloud's mdp has %d states"
                         % (rho.shape, cloud.cell_log_density.size))
    return rho


def knn_kl(samples_p, samples_q, k=KNN_K, seed=0):
    """KL(p || q) via k-th nearest neighbour distances, as a float.

    Between two (n, d) sample arrays: d * mean(log nu_k / rho_k)
    + log(m / (n - 1)), Euclidean metric; a tiny seeded jitter breaks
    exact ties from repeated points. Between a CellCloud and an (S,)
    cell density, on either side: the expert-side estimates of the
    module docstring, with KNN_K and the cloud's own jitter.
    """
    if isinstance(samples_p, CellCloud):
        at = _cell_density(samples_p, samples_q)[samples_p.states]
        if np.any(at <= 0):
            return float("inf")   # a cloud point where q has no mass
        return float(-samples_p.entropy - np.mean(np.log(at)))
    if isinstance(samples_q, CellCloud):
        rho = _cell_density(samples_q, samples_p)
        on = rho > 0
        return float(rho[on] @ (np.log(rho[on]) - samples_q.cell_log_density[on]))
    x = np.asarray(samples_p, dtype=float)
    y = np.asarray(samples_q, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError("samples must be 2-d arrays with matching dimension")
    n, d = x.shape
    m = y.shape[0]
    if n <= k:
        raise ValueError("need more than k p-samples, got %d" % n)
    if m < k:
        raise ValueError("need at least k q-samples, got %d" % m)
    rng = np.random.default_rng(seed)
    x = x + rng.uniform(-1e-10, 1e-10, size=x.shape)
    y = y + rng.uniform(-1e-10, 1e-10, size=y.shape)
    rho = _kth_distance(cKDTree(x), x, k + 1)   # skip self-match
    nu = _kth_distance(cKDTree(y), x, k)
    return float(d * np.mean(np.log(nu / rho)) + np.log(m / (n - 1.0)))


def policy_return(mdp, sol, gt_reward):
    """Expected undiscounted arrival-state return of the solved policy."""
    gt_reward = np.asarray(gt_reward, dtype=float)
    if gt_reward.shape != (mdp.n_states,):
        raise ValueError("ground-truth reward must have one value per state")
    return float(sol.marginals_t[1:].sum(axis=0) @ gt_reward)


def _states_to_points(mdp, states, seed=0):
    """Map state indices to jittered 2-d coordinates for sample-based KL.

    Each state index becomes its cell-center coordinate plus uniform
    noise in [-HALF_CELL, HALF_CELL) per axis, so repeated visits to one
    cell spread over the unit cell instead of stacking on its center.
    CellCloud's exact agent side needs exactly that: density rho[s]
    on cell s.
    """
    rng = np.random.default_rng(seed)   # a Generator passes through as is
    states = np.asarray(states, dtype=np.int64).ravel()
    pts = mdp.coords.take(states, axis=0)   # coords are float, so this is a copy
    pts += rng.uniform(-HALF_CELL, HALF_CELL, size=pts.shape)
    return pts
