"""Estimators for the expert/agent state density ratio u(s).

Three routes, each returning one (S,) ratio table clipped into
[RATIO_CLIP_LO, RATIO_CLIP_HI]: the exact table (known densities), a
kernel density pair on jittered 2-d samples, and the closed-form
optimum of the one-hot logistic discriminator, whose odds are c_E / c_A.
"""

import numpy as np

from .divergence import DENSITY_FLOOR, RATIO_CLIP_LO, RATIO_CLIP_HI, density_values
from .kl_eval import states_to_points

LOGIT_CLIP = 10.0


def exact_ratio(rho_e, marginal_avg):
    """u(s) = rho_E(s) / max(rho_theta(s), DENSITY_FLOOR), clipped."""
    p = density_values(rho_e)
    q = np.maximum(np.asarray(marginal_avg, dtype=float), DENSITY_FLOOR)
    if p.shape != q.shape:
        raise ValueError("density shapes differ: %r vs %r" % (p.shape, q.shape))
    return np.clip(p / q, RATIO_CLIP_LO, RATIO_CLIP_HI)


def kde_density(samples, bandwidth, points):
    """Product Epanechnikov kernel density of 2-d samples at each point.

    density(x) = (1 / (n * bw^2)) * sum_i prod_d K((x_d - s_id) / bw)
    with K(v) = 0.75 * (1 - v^2) on |v| <= 1. Chunked over the points
    so memory stays bounded.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError("kde expects (n, 2) samples")
    if samples.shape[0] == 0:
        raise ValueError("need at least one sample per side")
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
    pts_e = states_to_points(mdp, expert_samples, seed=rng)
    pts_a = states_to_points(mdp, agent_samples, seed=rng)
    centers = mdp.coords
    p_e = kde_density(pts_e, bandwidth, centers)
    p_a = kde_density(pts_a, bandwidth, centers)
    u = np.maximum(p_e, DENSITY_FLOOR) / np.maximum(p_a, DENSITY_FLOOR)
    return np.clip(u, RATIO_CLIP_LO, RATIO_CLIP_HI)


class Discriminator:
    """One-hot logistic classifier expert-vs-agent: one logit per state."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def state_logits(self):
        return np.clip(self.weights, -LOGIT_CLIP, LOGIT_CLIP)


def _frequencies(states, n_states):
    states = np.asarray(states, dtype=np.int64).ravel()
    if states.size == 0:
        raise ValueError("both sides need at least one state visit")
    return np.bincount(states, minlength=n_states) / states.size


def discriminator_fit(expert_states, agent_states, n_states):
    """The optimal one-hot logistic discriminator, in closed form.

    The mean objective
        sum_s cE(s) log sigma(z_s) + cA(s) log(1 - sigma(z_s))
    over the empirical state frequencies cE, cA separates by state, so
    its maximizer is z_s = log cE(s) - log cA(s), i.e. sigma(z_s) =
    cE(s) / (cE(s) + cA(s)). Logits are boxed at +-LOGIT_CLIP, so a
    state seen by one side only saturates; one seen by neither gets 0.
    """
    c_e = _frequencies(expert_states, n_states)
    c_a = _frequencies(agent_states, n_states)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.log(c_e) - np.log(c_a)
    z = np.where((c_e > 0) | (c_a > 0), z, 0.0)
    return Discriminator(np.clip(z, -LOGIT_CLIP, LOGIT_CLIP))


def discriminator_ratio(disc):
    """Per-state ratio cE / cA read off the discriminator's odds; the
    logit box keeps it inside the ratio clip range."""
    return np.exp(disc.state_logits())


def sample_states(weights, n, rng):
    """n categorical draws from an unnormalized weight vector."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not total > 0:
        raise ValueError("weights must have positive mass")
    return rng.choice(len(weights), size=n, p=weights / total)
