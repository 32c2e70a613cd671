"""Estimators for the expert/agent state density ratio u(s).

Three routes, each returning a RatioEstimator table over states: the
exact table (known densities), a kernel density pair on jittered 2-d
samples, and a logistic discriminator on state features whose optimum
recovers c_E / (c_E + c_A).
"""

import numpy as np

from .divergence import DENSITY_FLOOR, RATIO_CLIP_LO, RATIO_CLIP_HI, ratio_table

LOGIT_CLIP = 10.0


class RatioEstimator:
    """Per-state ratio table plus the mode that produced it."""

    def __init__(self, mode, ratios):
        self.mode = mode
        self.ratios = np.asarray(ratios, dtype=float)
        if not np.all(np.isfinite(self.ratios)) or np.any(self.ratios <= 0):
            raise ValueError("ratio table must be positive and finite")

    def __call__(self, states):
        return self.ratios[np.asarray(states, dtype=np.int64)]


def exact_ratio(rho_e, marginal_avg):
    """u(s) = rho_E(s) / rho_theta(s) from known densities, clipped."""
    u = ratio_table(rho_e, marginal_avg)
    return RatioEstimator("exact_table", np.clip(u, RATIO_CLIP_LO, RATIO_CLIP_HI))


def kde_density(samples, bandwidth, points):
    """Product Epanechnikov kernel density of 2-d samples at each point.

    density(x) = (1 / (n * bw^2)) * sum_i prod_d K((x_d - s_id) / bw)
    with K(v) = 0.75 * (1 - v^2) on |v| <= 1. Chunked over the points
    so memory stays bounded.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError("kde expects (n, 2) samples")
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    bw = float(bandwidth)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = samples.shape[0]
    out = np.zeros(len(points))
    # keep the (chunk x n) distance block under ~8M entries
    chunk = max(1, int(8_000_000 // max(n, 1)))
    for i in range(0, len(points), chunk):
        block = points[i:i + chunk]
        v = (block[:, None, :] - samples[None, :, :]) / bw
        k = np.where(np.abs(v) <= 1.0, 0.75 * (1.0 - v * v), 0.0)
        out[i:i + chunk] = k.prod(axis=2).sum(axis=1)
    return out / (n * bw * bw)


def kde_pair_ratio(mdp, expert_samples, agent_samples, bandwidth=0.2, seed=0):
    """Per-state ratio from two KDEs over jittered sample clouds.

    State visits are mapped to cell centers plus uniform(-0.5, 0.5)
    jitter; densities are read back at the cell centers, where the
    unit cell makes density stand in for cell mass.
    """
    rng = np.random.default_rng(seed)
    pts_e = _jittered(mdp, expert_samples, rng)
    pts_a = _jittered(mdp, agent_samples, rng)
    centers = mdp.coords
    p_e = kde_density(pts_e, bandwidth, centers)
    p_a = kde_density(pts_a, bandwidth, centers)
    u = np.maximum(p_e, DENSITY_FLOOR) / np.maximum(p_a, DENSITY_FLOOR)
    return RatioEstimator("kde_pair", np.clip(u, RATIO_CLIP_LO, RATIO_CLIP_HI))


def _jittered(mdp, states, rng):
    states = np.asarray(states, dtype=np.int64).ravel()
    if states.size == 0:
        raise ValueError("need at least one sample per side")
    return mdp.coords[states] + rng.uniform(-0.5, 0.5, size=(states.size, 2))


class Discriminator:
    """Logistic classifier expert-vs-agent on per-state features."""

    def __init__(self, weights, features, clip=LOGIT_CLIP):
        self.weights = np.asarray(weights, dtype=float)
        self.features = np.asarray(features, dtype=float)
        self.clip = float(clip)

    def state_logits(self):
        return np.clip(self.features @ self.weights, -self.clip, self.clip)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def discriminator_fit(expert_states, agent_states, n_states, features=None,
                      max_steps=500, tol=1e-6):
    """Fit a logistic discriminator by damped Newton ascent.

    Maximizes the mean-based objective
        sum_s cE(s) log sigma(z_s) + cA(s) log(1 - sigma(z_s))
    where cE, cA are the empirical state frequencies of each side, so
    the optimum is sigma(z_s) = cE(s) / (cE(s) + cA(s)) wherever both
    sides have support. Default features are one-hot per state, which
    makes the optimum exactly representable; weights are boxed at the
    logit clip so states seen by only one side saturate cleanly.
    """
    expert_states = np.asarray(expert_states, dtype=np.int64).ravel()
    agent_states = np.asarray(agent_states, dtype=np.int64).ravel()
    if expert_states.size == 0 or agent_states.size == 0:
        raise ValueError("both sides need at least one state visit")
    c_e = np.bincount(expert_states, minlength=n_states) / expert_states.size
    c_a = np.bincount(agent_states, minlength=n_states) / agent_states.size
    if features is None:
        features = np.eye(n_states)
    features = np.asarray(features, dtype=float)
    w = np.zeros(features.shape[1])
    box = LOGIT_CLIP if features.shape[1] == n_states else None
    for _ in range(max_steps):
        z = features @ w
        sig = _sigmoid(z)
        grad = features.T @ (c_e - (c_e + c_a) * sig)
        proj = grad.copy()
        if box is not None:
            proj[(w >= box) & (proj > 0)] = 0.0
            proj[(w <= -box) & (proj < 0)] = 0.0
        if np.linalg.norm(proj) < tol:
            break
        curv = (c_e + c_a) * sig * (1.0 - sig)
        hess = features.T @ (features * curv[:, None])
        hess[np.diag_indices_from(hess)] += 1e-10
        step = np.linalg.solve(hess, grad)
        # damp long Newton jumps; near the optimum the full step wins
        norm = np.linalg.norm(step)
        if norm > 4.0:
            step = step * (4.0 / norm)
        w = w + step
        if box is not None:
            w = np.clip(w, -box, box)
    return Discriminator(w, features)


def discriminator_ratio(disc):
    """Whole-table RatioEstimator view of a fitted discriminator."""
    return RatioEstimator("discriminator", np.exp(disc.state_logits()))


def sample_states(weights, n, rng):
    """n categorical draws from an unnormalized weight vector."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not total > 0:
        raise ValueError("weights must have positive mass")
    return rng.choice(len(weights), size=n, p=weights / total)
