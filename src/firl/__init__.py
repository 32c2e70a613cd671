"""Inverse reinforcement learning by f-divergence state-marginal
matching on finite-horizon tabular MDPs.

The learned object is a stationary state reward whose soft-optimal
policy reproduces a target state density; the training signal is an
analytic covariance gradient that is exact on these MDPs and verified
against finite differences and brute-force trajectory enumeration.

The package exports nothing but its version; import from the
submodules, for example ``from firl.trainer import run_firl``.
"""

__version__ = "0.1.0"
