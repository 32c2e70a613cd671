"""Inverse reinforcement learning by f-divergence state-marginal
matching on finite-horizon tabular MDPs.

The learned object is a stationary state reward whose soft-optimal
policy reproduces a target state density; the training signal is an
analytic covariance gradient. It is the exact derivative when the
transitions are deterministic and the start state is a point mass,
where it is verified against finite differences and brute-force
trajectory enumeration; under slip or a spread start it is not.

The package exports nothing but its version; import from the
submodules, for example ``from firl.trainer import run_firl``.
"""

__version__ = "0.1.0"
