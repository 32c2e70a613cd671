"""Soft backward recursion, forward marginals, and trajectory machinery."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from firl.grad_engine import analytic_grad_exact
from firl.mdp import FiniteMdp, build_gridworld
from firl.reward_model import apply_update, tabular_reward
from firl.soft_solver import (TimedReward, TrajectoryBatch,
                              enumerate_trajectories, forward_marginals,
                              pairwise_marginals, sample_trajectories,
                              soft_backward, step_kernel)


def _two_arm_bandit():
    # s0 picks an arm; arms are absorbing
    P = np.zeros((3, 2, 3))
    P[0, 0, 1] = 1.0
    P[0, 1, 2] = 1.0
    P[1, :, 1] = 1.0
    P[2, :, 2] = 1.0
    return FiniteMdp(P, [1.0, 0.0, 0.0], horizon=1)


def _fork():
    # s0 splits to s1 or s2, both absorbing
    return _two_arm_bandit()


def _chain(horizon=2):
    P = np.zeros((3, 1, 3))
    P[0, 0, 1] = 1.0
    P[1, 0, 2] = 1.0
    P[2, 0, 2] = 1.0
    return FiniteMdp(P, [1.0, 0.0, 0.0], horizon=horizon)


def _random_mdp(n_s, n_a, horizon, seed):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
    init = rng.dirichlet(np.ones(n_s))
    return FiniteMdp(P, init, horizon), rng


def test_bandit_boltzmann_choice():
    mdp = _two_arm_bandit()
    sol = soft_backward(mdp, np.array([0.0, 1.0, 0.0]), alpha=1.0)
    e = np.e
    assert sol.policy[0, 0, 0] == pytest.approx(e / (e + 1.0), abs=1e-12)
    assert sol.policy[0, 0, 1] == pytest.approx(1.0 / (e + 1.0), abs=1e-12)


def test_zero_reward_gives_uniform_policy():
    mdp = build_gridworld(3, 3, horizon=4)
    sol = soft_backward(mdp, np.zeros(9), alpha=1.0)
    assert np.allclose(sol.policy, 0.2, atol=1e-12)


def test_fork_marginal_excludes_the_start_state():
    mdp = _fork()
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(3), alpha=1.0))
    assert np.allclose(sol.marginals_t[0], [1.0, 0.0, 0.0])
    assert np.allclose(sol.marginal_avg, [0.0, 0.5, 0.5], atol=1e-12)


def test_deterministic_chain_value_sums_arrival_rewards():
    mdp = _chain(horizon=2)
    sol = soft_backward(mdp, np.array([0.0, 1.0, 2.0]), alpha=1.0)
    # single action, so the soft value is the plain return r(s1) + r(s2)
    assert sol.soft_v[0, 0] == pytest.approx(3.0, abs=1e-12)


def test_alpha_scales_the_policy_temperature():
    mdp = _two_arm_bandit()
    r = np.array([0.0, 1.0, 0.0])
    sharp = soft_backward(mdp, r, alpha=0.1).policy[0, 0, 0]
    soft = soft_backward(mdp, r, alpha=10.0).policy[0, 0, 0]
    assert sharp > 0.99
    assert 0.5 < soft < 0.53


def test_marginals_rows_are_distributions():
    mdp, rng = _random_mdp(4, 3, 5, seed=0)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=4), 0.7))
    assert np.allclose(sol.marginals_t.sum(axis=1), 1.0, atol=1e-12)
    assert sol.marginal_avg == pytest.approx(
        sol.marginals_t[1:].mean(axis=0), abs=1e-15)


def test_step_kernel_rows_are_distributions():
    mdp, rng = _random_mdp(5, 2, 3, seed=1)
    sol = soft_backward(mdp, rng.normal(size=5), 1.0)
    kernels = step_kernel(mdp, sol)
    assert kernels.shape == (3, 5, 2 * 5)
    assert np.allclose(kernels.sum(axis=2), 1.0, atol=1e-12)


def _dense_kernels(mdp, kernels):
    # scatter the weights in (t, s, a, k) order into (T, S, S)
    n_t, n_s = kernels.shape[:2]
    rows = np.arange(n_t * n_s).reshape(n_t, n_s, 1)
    cells = rows * n_s + mdp.succ.reshape(n_s, -1)
    dense = np.bincount(cells.ravel(), kernels.ravel(), minlength=n_t * n_s * n_s)
    return dense.reshape(n_t, n_s, n_s)


@pytest.mark.parametrize("make", [
    lambda: build_gridworld(4, 3, horizon=5),
    lambda: build_gridworld(4, 3, slip_prob=0.2, horizon=5),
    lambda: _random_mdp(6, 3, 5, seed=8)[0]])    # dense P, spread init_dist
def test_successor_kernels_scatter_to_the_dense_einsum(make):
    mdp = make()
    rng = np.random.default_rng(9)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=mdp.n_states), 0.7))
    want = np.stack([np.einsum("ia,iaj->ij", sol.policy[t], mdp.transitions)
                     for t in range(mdp.horizon)])
    assert np.array_equal(_dense_kernels(mdp, sol.kernels), want)
    rho = [mdp.init_dist]
    for t in range(mdp.horizon):
        rho.append(rho[-1] @ want[t])
    assert np.abs(sol.marginals_t - np.array(rho)).max() < 1e-15


def test_the_exact_gradient_path_stores_no_dense_kernels():
    # a (T, S, S) kernel store alone would take 40 * 225^2 * 8 bytes = 16.2 MB
    mdp = build_gridworld(15, 15, slip_prob=0.1, horizon=40)
    rng = np.random.default_rng(10)
    model = apply_update(tabular_reward(mdp.n_states), rng.normal(size=mdp.n_states))
    rho_e = rng.dirichlet(np.ones(mdp.n_states))
    sol = soft_backward(mdp, model.params, 1.0)
    tracemalloc.start()
    try:
        forward_marginals(mdp, sol)
        analytic_grad_exact(mdp, model, 1.0, "fkl", rho_e=rho_e, sol=sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_pairwise_diagonal_blocks_match_marginals():
    # every pair table P_{t,t'} has row sums rho_t and column sums rho_t',
    # so contracting with h = 1 leaves sums of the marginals
    mdp, rng = _random_mdp(4, 2, 4, seed=2)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=4), 1.0))
    fwd, bwd = pairwise_marginals(mdp, sol, np.ones(4))
    rho, horizon = sol.marginals_t, mdp.horizon
    later = sum(rho[tp] for t in range(1, horizon + 1)
                for tp in range(t + 1, horizon + 1))
    earlier = sum(rho[t] for t in range(1, horizon + 1)
                  for tp in range(t + 1, horizon + 1))
    assert np.abs(fwd - later).max() < 1e-12
    assert np.abs(bwd - earlier).max() < 1e-12


def test_pairwise_matches_brute_force_enumeration():
    mdp, rng = _random_mdp(3, 2, 3, seed=3)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=3), 0.8))
    paths, probs = enumerate_trajectories(mdp, sol)
    brute = np.zeros((3, 3))
    for t in range(1, mdp.horizon + 1):
        for tp in range(t + 1, mdp.horizon + 1):
            np.add.at(brute, (paths[:, t], paths[:, tp]), probs)
    for _ in range(4):
        h = rng.normal(size=3)
        fwd, bwd = pairwise_marginals(mdp, sol, h)
        assert np.abs(fwd - h @ brute).max() < 1e-10
        assert np.abs(bwd - brute @ h).max() < 1e-10


def test_enumeration_probabilities_sum_to_one():
    mdp, rng = _random_mdp(3, 2, 4, seed=4)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=3), 1.0))
    paths, probs = enumerate_trajectories(mdp, sol)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert paths.shape[1] == mdp.horizon + 1
    assert np.all(probs > 0)


def test_enumeration_refuses_past_the_cap():
    mdp = build_gridworld(3, 3, horizon=8)
    sol = soft_backward(mdp, np.zeros(9), 1.0)
    with pytest.raises(ValueError, match="exceeds the cap"):
        enumerate_trajectories(mdp, sol)


def test_sampling_matches_exact_marginals():
    mdp = build_gridworld(3, 3, slip_prob=0.2, horizon=3)
    rng = np.random.default_rng(5)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=9), 1.0))
    batch = sample_trajectories(mdp, sol, 100_000, seed=6)
    for t in range(mdp.horizon + 1):
        emp = np.bincount(batch.states[:, t], minlength=9) / batch.n
        tv = 0.5 * np.abs(emp - sol.marginals_t[t]).sum()
        assert tv < 0.01


def test_sampling_is_seed_deterministic():
    mdp = build_gridworld(2, 2, horizon=3)
    sol = soft_backward(mdp, np.array([0.0, 1.0, 0.0, 2.0]), 1.0)
    a = sample_trajectories(mdp, sol, 50, seed=9)
    b = sample_trajectories(mdp, sol, 50, seed=9)
    c = sample_trajectories(mdp, sol, 50, seed=10)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.n == 50


def _reference_sample(mdp, sol, n, seed):
    # per-step cumsum over the gathered rows, one draw per row
    def draw(probs, rng):
        c = np.cumsum(probs, axis=1)
        u = rng.random((probs.shape[0], 1)) * c[:, -1:]
        return (c <= u).sum(axis=1)

    rng = np.random.default_rng(seed)
    states = np.zeros((n, mdp.horizon + 1), dtype=np.int64)
    states[:, 0] = draw(np.tile(mdp.init_dist, (n, 1)), rng)
    for t in range(mdp.horizon):
        s = states[:, t]
        a = draw(sol.policy[t][s], rng)
        states[:, t + 1] = draw(mdp.transitions[s, a], rng)
    return states


@pytest.mark.parametrize("slip", [0.0, 0.2])
@pytest.mark.parametrize("n", [1, 256])
def test_sampling_equals_the_per_step_cumsum_draws(slip, n):
    grid = build_gridworld(4, 3, slip_prob=slip, horizon=6)
    init = np.zeros(grid.n_states)
    init[[0, 5, 7, 11]] = [0.1, 0.4, 0.2, 0.3]
    mdp = FiniteMdp(grid.transitions, init, grid.horizon, coords=grid.coords)
    for seed in range(5):
        r = np.random.default_rng(seed).normal(size=mdp.n_states)
        sol = soft_backward(mdp, r, 0.7)
        batch = sample_trajectories(mdp, sol, n, seed=100 + seed)
        assert np.array_equal(batch.states,
                              _reference_sample(mdp, sol, n, 100 + seed))


def _reference_solve(mdp, timed, alpha):
    soft_v = np.zeros((mdp.horizon + 1, mdp.n_states))
    policy = np.zeros((mdp.horizon, mdp.n_states, mdp.n_actions))
    for t in range(mdp.horizon - 1, -1, -1):
        q = mdp.transitions @ (timed.arrival[t] + soft_v[t + 1])
        q = q + timed.departure[t][:, None]
        soft_v[t] = alpha * logsumexp(q / alpha, axis=1)
        policy[t] = softmax(q / alpha, axis=1)
    return soft_v, policy


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 10.0])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_soft_backward_matches_a_logsumexp_reference(alpha, scale):
    # at scale 1e3 and alpha 1e-3, exp(Q / alpha) without the shift overflows
    mdp = build_gridworld(4, 4, slip_prob=0.2, horizon=8)
    rng = np.random.default_rng(7)
    timed = TimedReward(scale * rng.uniform(-1, 1, (8, 16)),
                        scale * rng.uniform(-1, 1, (8, 16)))
    v_ref, pi_ref = _reference_solve(mdp, timed, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = soft_backward(mdp, timed, alpha)
    assert np.abs(sol.soft_v - v_ref).max() <= 1e-12 * np.abs(v_ref).max()
    assert np.abs(sol.policy - pi_ref).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_soft_backward_refuses_a_non_finite_reward(bad):
    mdp = build_gridworld(3, 3, horizon=4)
    r = np.zeros(9)
    r[4] = bad
    with pytest.raises(ValueError, match="reward must be finite"):
        soft_backward(mdp, r, 1.0)
    departure = np.zeros((4, 9))
    departure[2, 1] = bad
    with pytest.raises(ValueError, match="reward must be finite"):
        soft_backward(mdp, TimedReward(np.zeros((4, 9)), departure), 1.0)


def test_timed_reward_shape_checks():
    with pytest.raises(ValueError, match="arrival"):
        TimedReward(np.zeros(3))
    with pytest.raises(ValueError, match="departure"):
        TimedReward(np.zeros((2, 3)), np.zeros((3, 3)))
    mdp = _chain()
    with pytest.raises(ValueError, match="one value per state"):
        soft_backward(mdp, np.zeros(4), 1.0)
    with pytest.raises(ValueError, match="mdp needs"):
        soft_backward(mdp, TimedReward(np.zeros((5, 3))), 1.0)


def test_trajectory_batch_validation():
    with pytest.raises(ValueError, match="2-d"):
        TrajectoryBatch(np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="alpha"):
        soft_backward(_chain(), np.zeros(3), alpha=0.0)
