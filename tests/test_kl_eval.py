"""The k-NN KL sample estimator and expected return."""

import numpy as np
import pytest

from firl.kl_eval import knn_kl, policy_return, states_to_points
from firl.mdp import FiniteMdp, build_gridworld
from firl.soft_solver import forward_marginals, soft_backward


def _chain(horizon=2):
    P = np.zeros((3, 1, 3))
    P[0, 0, 1] = 1.0
    P[1, 0, 2] = 1.0
    P[2, 0, 2] = 1.0
    return FiniteMdp(P, [1.0, 0.0, 0.0], horizon=horizon)


def test_knn_near_zero_on_identical_distributions():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 2))
    y = rng.normal(size=(2000, 2))
    est = knn_kl(x, y, k=3, seed=1)
    assert abs(est.value) < 0.05


def test_knn_recovers_a_known_gaussian_kl():
    # KL between unit gaussians one unit apart is 1/2
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4000, 2))
    y = rng.normal(size=(4000, 2)) + np.array([1.0, 0.0])
    est = knn_kl(x, y, k=3, seed=3)
    assert est.value == pytest.approx(0.5, abs=0.1)


def test_knn_is_seed_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 2))
    y = rng.normal(size=(200, 2))
    assert knn_kl(x, y, seed=5).value == knn_kl(x, y, seed=5).value


def test_knn_sample_count_guards():
    x = np.zeros((3, 2))
    y = np.zeros((10, 2))
    with pytest.raises(ValueError, match="more than k p-samples"):
        knn_kl(x, y, k=3)
    with pytest.raises(ValueError, match="at least k q-samples"):
        knn_kl(y, np.zeros((2, 2)), k=3)
    with pytest.raises(ValueError, match="matching dimension"):
        knn_kl(np.zeros((10, 2)), np.zeros((10, 3)))


def test_policy_return_on_a_deterministic_chain():
    mdp = _chain(horizon=2)
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(3), 1.0))
    assert policy_return(mdp, sol, [0.0, 1.0, 2.0]) == pytest.approx(3.0)


def test_policy_return_of_constant_reward_is_the_horizon():
    mdp = build_gridworld(3, 3, slip_prob=0.1, horizon=7)
    rng = np.random.default_rng(6)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=9), 1.0))
    assert policy_return(mdp, sol, np.ones(9)) == pytest.approx(7.0, abs=1e-10)


def test_policy_return_shape_check():
    mdp = _chain()
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(3), 1.0))
    with pytest.raises(ValueError, match="one value per state"):
        policy_return(mdp, sol, np.zeros(5))


def test_states_to_points_jitter_stays_in_the_cell():
    mdp = build_gridworld(4, 4, horizon=2)
    states = np.arange(16)
    pts = states_to_points(mdp, states, seed=7)
    assert np.all(np.abs(pts - mdp.coords) < 0.5)


def test_states_to_points_without_jitter_hits_centers():
    mdp = build_gridworld(3, 2, horizon=2)
    pts = states_to_points(mdp, [0, 5], jitter=0.0)
    assert np.array_equal(pts, mdp.coords[[0, 5]])


def test_states_to_points_accepts_a_generator():
    mdp = build_gridworld(2, 2, horizon=2)
    a = states_to_points(mdp, [0, 1, 2], seed=np.random.default_rng(8))
    b = states_to_points(mdp, [0, 1, 2], seed=np.random.default_rng(8))
    assert np.array_equal(a, b)
