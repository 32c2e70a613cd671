"""Policy evaluation: the Kozachenko-Leonenko k-NN KL estimator on 2-d
point clouds, and expected return under a policy. Exact tabular
divergences live in divergence.divergence_exact."""

import numpy as np
from scipy.spatial import cKDTree

KNN_K = 3


class KlEstimate:
    def __init__(self, value):
        self.value = float(value)


def knn_kl(samples_p, samples_q, k=KNN_K, seed=0):
    """KL(p || q) from samples via k-th nearest neighbour distances.

    d * mean(log nu_k / rho_k) + log(m / (n - 1)), Euclidean metric.
    A tiny seeded jitter breaks exact ties from repeated points.
    """
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
    rho = cKDTree(x).query(x, k=k + 1)[0][:, k]   # skip self-match
    nu = cKDTree(y).query(x, k=k)[0][:, k - 1]
    val = float(d * np.mean(np.log(nu / rho)) + np.log(m / (n - 1.0)))
    return KlEstimate(val)


def policy_return(mdp, sol, gt_reward):
    """Expected undiscounted arrival-state return of the solved policy."""
    gt_reward = np.asarray(gt_reward, dtype=float)
    if gt_reward.shape != (mdp.n_states,):
        raise ValueError("ground-truth reward must have one value per state")
    return float(sol.marginals_t[1:].sum(axis=0) @ gt_reward)


def states_to_points(mdp, states, seed=0, jitter=0.5):
    """Map state indices to jittered 2-d coordinates for sample-based KL.

    Each state index becomes its cell-center coordinate plus uniform
    noise in [-jitter, jitter) per axis, so repeated visits to one cell
    spread into a cloud instead of a stack of identical points.
    """
    rng = np.random.default_rng(seed)   # a Generator passes through as is
    states = np.asarray(states, dtype=np.int64).ravel()
    pts = mdp.coords[states].astype(float)
    if jitter > 0:
        pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    return pts
