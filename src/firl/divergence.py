"""The h transform of the f-divergence generators, the expert density,
and exact divergence values.

Natural logarithms throughout; divergences are in nats.
"""

import numpy as np

KINDS = ("fkl", "rkl", "js")

# density_ratio.exact_ratio floors rho_theta before it forms a ratio;
# every density_ratio producer clips its table into a safe positive range.
DENSITY_FLOOR = 1e-12
RATIO_CLIP_LO = 1e-8
RATIO_CLIP_HI = 1e8


class ExpertDensity:
    """Target state density rho_E over the MDP's states.

    May be unnormalized (an energy); only the reverse-KL gradient is
    invariant to that scale, so everything else requires normalized.
    """

    def __init__(self, values, normalized=True):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("expert density must be a vector over states")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("expert density entries must be finite and >= 0")
        if normalized and abs(values.sum() - 1.0) > 1e-10:
            raise ValueError("density marked normalized sums to %.17g" % values.sum())
        self.values = values
        self.normalized = bool(normalized)

    def __len__(self):
        return len(self.values)


def density_values(rho_e, require_normalized=False):
    """Unwrap an ExpertDensity or validate a plain vector."""
    if isinstance(rho_e, ExpertDensity):
        if require_normalized and not rho_e.normalized:
            raise ValueError("a normalized expert density is required here")
        return rho_e.values
    return ExpertDensity(np.asarray(rho_e, dtype=float)).values


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError("unknown divergence kind %r, expected one of %r" % (kind, KINDS))


def h_f(kind, u):
    """h(u) = f(u) - f'(u) u, the weight attached to visited states.

    Monotonically decreasing in u for every kind. The js variant drops
    an additive ln 2 (a constant cannot move a covariance). u = 0 is
    tolerated: fkl and js have finite limits there, rkl diverges and
    returns +inf.
    """
    _check_kind(kind)
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("ratios must be nonnegative")
    if kind == "fkl":
        return -u
    with np.errstate(divide="ignore"):
        if kind == "rkl":
            return 1.0 - np.log(u)
        return -np.log1p(u)


def divergence_exact(kind, rho_e, rho):
    """D_f(rho_e || rho) = sum_s f(rho_e/rho) rho with exact zero limits
    and no density floor.

    Both inputs must be normalized. Forward KL is +inf when rho misses
    mass where rho_e carries it; reverse KL in the mirrored case. The
    js value is bounded by 2 ln 2, reached on disjoint supports.
    """
    _check_kind(kind)
    p = density_values(rho_e, require_normalized=True)
    q = np.asarray(rho, dtype=float)
    if p.shape != q.shape:
        raise ValueError("density shapes differ: %r vs %r" % (p.shape, q.shape))
    if abs(q.sum() - 1.0) > 1e-8 or np.any(q < 0):
        raise ValueError("second argument must be a normalized density")
    if kind == "fkl":
        if np.any((p > 0) & (q <= 0)):
            return float("inf")
        m = p > 0
        return float(np.sum(p[m] * np.log(p[m] / q[m])))
    if kind == "rkl":
        if np.any((q > 0) & (p <= 0)):
            return float("inf")
        m = q > 0
        return float(np.sum(q[m] * np.log(q[m] / p[m])))
    # js: the generator sum rearranges to p ln(2p/(p+q)) + q ln(2q/(p+q))
    mix = p + q
    total = 0.0
    mp = p > 0
    total += float(np.sum(p[mp] * np.log(2.0 * p[mp] / mix[mp])))
    mq = q > 0
    total += float(np.sum(q[mq] * np.log(2.0 * q[mq] / mix[mq])))
    return total
