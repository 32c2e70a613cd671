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
one-off cost is n + sum_s clip(2 v_s, 32, 400) <= 3n + 32 S k-th
neighbour queries for n expert visits. A CellCloud is a plain value,
built in full by its constructor (about 0.02 s for 10,000 visits on a
15x15 grid, 2 cores); trainer.run_firl builds it before its first
iteration.

Each k-th neighbour search takes the exact distances, and the
estimators need nothing else of it. Up to DIRECT_PAIRS = 2^20
query-point pairs it compares every pair, CHUNK_PAIRS = 2^16 at a time;
past that it builds a scipy cKDTree, imported on first use, and splits
the queries over every core the process may use. Both give the same
bits, so no value depends on the route or the core count. A search
whose points are not 2-d always takes the tree. A 320-visit demo
cloud stays under the bound, so its run imports no scipy; check_cloud,
the cloud's pre-run check, loads the tree during set-up when a cloud
will pass it. The digamma terms are cephes' integer psi, bit for bit
scipy.special.digamma.

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

import math
import os

import numpy as np

from .mdp import check_table_bytes

KNN_K = 3
PROBES = 400   # most jittered probe points per cell for the expert log-density
PROBES_MIN = 32   # fewest; between the two, a cell gets two per visit
HALF_CELL = 0.5   # a visit is jittered uniformly over its unit cell
_LOG_DISC = np.log(np.pi)   # log volume of the unit ball in 2-d
DIRECT_PAIRS = 2 ** 20   # most query-point pairs searched without the tree
CHUNK_PAIRS = 2 ** 16    # most pairs in one table of the direct search

_EULER = 0.57721566490153286061
# cephes' asymptotic coefficients for psi, highest power of 1/n^2 first
_PSI_A = (8.33333333333333333333E-2, -2.10927960927960927961E-2,
          7.57575757575757575758E-3, -4.16666666666666666667E-3,
          3.96825396825396825397E-3, -8.33333333333333333333E-3,
          8.33333333333333333333E-2)


def _psi(n):
    """The digamma function at a positive integer n, in cephes' form and
    so bit for bit scipy.special.digamma: the harmonic sum less Euler's
    constant up to 10, the asymptotic series beyond."""
    if n <= 10:
        y = 0.0
        for i in range(1, n):
            y += 1.0 / i
        return y - _EULER
    z = 1.0 / (n * n)
    poly = _PSI_A[0]
    for a in _PSI_A[1:]:
        poly = poly * z + a
    return math.log(n) - 0.5 / n - z * poly


def _workers():
    """The number of cores this process may run on: its affinity set, or
    the machine's core count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _uses_tree(n_queries, n_points):
    """Whether a search of n_queries points against n_points takes the
    k-d tree: past DIRECT_PAIRS pairs, or when one query's row of
    distances would not fit a CHUNK_PAIRS table."""
    return n_queries * n_points > DIRECT_PAIRS or n_points > CHUNK_PAIRS


def _ckdtree():
    """scipy's k-d tree class, imported on first use."""
    from scipy.spatial import cKDTree
    return cKDTree


def _kth_distance(points, queries, k, p=2.0):
    """Distance in the Minkowski p-norm (2 or inf) from each query point
    to its k-th nearest point, inf where there are fewer than k points.
    Small 2-d searches compare every pair; large ones, and any search off
    the plane, take a k-d tree, its queries split over every usable core.
    The route and the split give the same bits."""
    if points.shape[1] == 2 and not _uses_tree(len(queries), len(points)):
        return _direct_kth(points, queries, k, p)
    # faster to build and query than the default balanced, compact tree,
    # and the k-th distances are exact whatever its shape
    tree = _ckdtree()(points, balanced_tree=False, compact_nodes=False)
    return tree.query(queries, k=[k], p=p, workers=_workers())[0][:, 0]


def _direct_kth(points, queries, k, p):
    """_kth_distance for 2-d points by a table of every query-point
    distance, at most CHUNK_PAIRS at a time. The squared differences are
    summed in cKDTree's order, so the distances match its bit for bit."""
    out = np.full(len(queries), np.inf)
    if k > len(points):
        return out
    rows = CHUNK_PAIRS // len(points)
    for lo in range(0, len(queries), rows):
        table = _pair_table(points, queries[lo:lo + rows], p)
        out[lo:lo + rows] = np.partition(table, k - 1, axis=1)[:, k - 1]
    return np.sqrt(out) if p == 2 else out


def _pair_table(points, queries, p):
    """(queries, points) table of 2-d max-norm distances for p = inf, else
    of squared Euclidean ones, x then y, as cKDTree sums them. Each axis's
    differences die once mapped, so at most three tables are alive."""
    def diff(j):
        return np.subtract.outer(queries[:, j], points[:, j])
    if p == np.inf:
        table = np.abs(diff(0))
        return np.maximum(table, np.abs(diff(1)), out=table)
    table = np.square(diff(0))
    table += np.square(diff(1))
    return table


def cell_gaps(coords):
    """Each point's max-norm distance to its nearest other point in coords."""
    return _kth_distance(coords, coords, 2, p=np.inf)


def check_cloud(mdp, n_visits):
    """Refuse, before a run, a CellCloud of n_visits visits on mdp: at
    most KNN_K visits, probes whose bound min(PROBES S, 2 n + PROBES_MIN
    S) passes mdp.TABLE_BYTES_CAP, or overlapping unit cells around
    mdp.coords, where the agent's density is not exact. Loads the k-d
    tree when the cloud's queries will take it, so the scipy import
    (about 0.35 s) falls in set-up, not in the run's training time."""
    if n_visits <= KNN_K:
        raise ValueError("knn_kl needs more than %d points: the expert cloud "
                         "holds %d" % (KNN_K, n_visits))
    n_probes = min(PROBES * mdp.n_states, 2 * n_visits + PROBES_MIN * mdp.n_states)
    check_table_bytes("kNN probe points (m, 2)", (n_probes, 2))
    if _uses_tree(max(n_visits, n_probes), n_visits):
        _ckdtree()
    # each centre's nearest other centre in the max norm; inf on one cell
    gap = cell_gaps(mdp.coords)
    if gap.min() < 1.0:
        s = int(np.argmin(gap))
        raise ValueError("cells overlap: state %d's centre lies %.3g from another "
                         "in the max norm, and the kNN evaluation needs unit "
                         "cells that are disjoint" % (s, gap[s]))


class CellCloud:
    """The jittered cloud of visits to mdp's unit cells, one per state
    in states. Keeps states, the cloud's k-NN entropy and
    cell_log_density (S,), the mean psi-corrected k-NN log-density of
    the cloud over the jittered probes of each cell: two per visit to
    the cell, at least PROBES_MIN and at most PROBES, so
    n + sum_s clip(2 v_s, 32, 400) <= 3n + 32 S queries in all.

    The constructor checks the probe table against mdp.TABLE_BYTES_CAP,
    draws the cloud's jitter, its tie-break and the probes, in that
    order, then runs the self-query and the probe query.
    """

    def __init__(self, mdp, states, seed=0):
        rng = np.random.default_rng(seed)   # a Generator passes through as is
        self.states = np.asarray(states, dtype=np.int64).ravel()
        n, k = self.states.size, KNN_K
        if n <= k:
            raise ValueError("need more than k cloud points, got %d" % n)
        per_cell = np.clip(2 * np.bincount(self.states, minlength=mdp.n_states),
                           PROBES_MIN, PROBES)
        check_table_bytes("kNN probe points (m, 2)", (int(per_cell.sum()), 2))
        pts = _states_to_points(mdp, self.states, seed=rng)
        pts += rng.uniform(-1e-10, 1e-10, size=pts.shape)
        cells = np.repeat(np.arange(mdp.n_states), per_cell)
        probes = _states_to_points(mdp, cells, seed=rng)
        rho = _kth_distance(pts, pts, k + 1)   # skip self-match
        nu = _kth_distance(pts, probes, k)
        self.entropy = float(_psi(n) - _psi(k) + _LOG_DISC
                             + 2.0 * np.mean(np.log(rho)))
        # a probe is not a cloud point, so its mass fraction is Beta(k, n - k + 1)
        log_density = _psi(k) - _psi(n + 1) - _LOG_DISC - 2.0 * np.log(nu)
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
    module docstring, with KNN_K and the jitter drawn at the cloud's
    build, so any other k or seed is refused.
    """
    if isinstance(samples_p, CellCloud) or isinstance(samples_q, CellCloud):
        if k != KNN_K or seed != 0:
            raise ValueError("a CellCloud fixes k = KNN_K = %d and its jitter: "
                             "got k=%r, seed=%r" % (KNN_K, k, seed))
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
    rho = _kth_distance(x, x, k + 1)   # skip self-match
    nu = _kth_distance(y, x, k)
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
