"""Soft backward recursion, forward marginals, and trajectory machinery."""

import tracemalloc
import warnings

import numpy as np
import pytest

import firl.mdp
from firl.grad_engine import analytic_grad_exact, enumeration_grad
from firl.mdp import FiniteMdp, build_gridworld, reachable_states
from firl.reward_model import apply_update, reward_vector, tabular_reward
from firl.soft_solver import (SoftSolution, TimedReward, enumerate_trajectories,
                              forward_marginals, pairwise_marginals,
                              sample_trajectories, soft_backward, step_kernel)
from firl.trainer import TrainConfig, check_expert_fit, run_firl


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


def test_sampling_admits_uniforms_of_exactly_the_byte_cap(monkeypatch):
    # horizon 2, n = 4: the uniforms are (5, 4), 160 bytes
    mdp = build_gridworld(2, 2, horizon=2)
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(4), 1.0))
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 160)
    sample_trajectories(mdp, sol, 4, seed=0)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 159)
    with pytest.raises(ValueError, match="uniforms .* 160 bytes, past the cap of 159"):
        sample_trajectories(mdp, sol, 4, seed=0)


@pytest.mark.parametrize("transitions, message", [
    (np.eye(2)[np.arange(400).reshape(2, 200) % 2],
     r"policy CDF gather \(A, n\) = \(200, 4\) would take 6400 bytes"),
    (np.full((8, 1, 8), 1 / 8),
     r"step CDF gather \(K, n\) = \(8, 4\) would take 256 bytes"),
], ids=["policy", "step"])
def test_sampling_checks_its_per_step_gathers_against_the_byte_cap(
        monkeypatch, transitions, message):
    # T = 1, n = 4: the uniforms are (3, 4), 96 bytes, below either gather,
    # 200 actions' or 8 successors' worth of rows
    mdp = FiniteMdp(transitions, np.eye(len(transitions))[0], horizon=1)
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(mdp.n_states), 1.0))
    gather = max(mdp.n_actions, mdp.succ.shape[2]) * 4 * 8
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", gather)
    sample_trajectories(mdp, sol, 4, seed=0)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", gather - 1)
    with pytest.raises(ValueError, match=message):
        sample_trajectories(mdp, sol, 4, seed=0)
    # check_expert_fit refuses mc's batch on the same shape before training
    cfg = TrainConfig(seed=0, estimator="mc", batch_size=4)
    with pytest.raises(ValueError, match=message):
        check_expert_fit(mdp, np.full(mdp.n_states, 1 / mdp.n_states), cfg)


def test_sampling_matches_exact_marginals():
    mdp = build_gridworld(3, 3, slip_prob=0.2, horizon=3)
    rng = np.random.default_rng(5)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=9), 1.0))
    batch = sample_trajectories(mdp, sol, 100_000, seed=6)
    for t in range(mdp.horizon + 1):
        emp = np.bincount(batch[:, t], minlength=9) / len(batch)
        tv = 0.5 * np.abs(emp - sol.marginals_t[t]).sum()
        assert tv < 0.01


def test_sampling_is_seed_deterministic():
    mdp = build_gridworld(2, 2, horizon=3)
    sol = soft_backward(mdp, np.array([0.0, 1.0, 0.0, 2.0]), 1.0)
    a = sample_trajectories(mdp, sol, 50, seed=9)
    b = sample_trajectories(mdp, sol, 50, seed=9)
    c = sample_trajectories(mdp, sol, 50, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (50, 4) and a.dtype == np.int64


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
        assert np.array_equal(batch, _reference_sample(mdp, sol, n, 100 + seed))


@pytest.mark.parametrize("n", [1, 256])
def test_sampling_on_a_dense_p_equals_the_per_step_cumsum_draws(n):
    mdp, rng = _random_mdp(6, 3, 5, seed=15)
    for seed in range(5):
        sol = soft_backward(mdp, rng.normal(size=mdp.n_states), 0.7)
        batch = sample_trajectories(mdp, sol, n, seed=200 + seed)
        assert np.array_equal(batch, _reference_sample(mdp, sol, n, 200 + seed))
        assert batch.flags.c_contiguous


def _random_sparse_mdp(n_s, n_a, horizon, seed):
    # rows keep 1..n_s successors, so the successor tables are ragged and
    # padded with zero-probability slots
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
    P *= rng.random(P.shape) < 0.5
    P[P.sum(axis=2) == 0, 0] = 1.0
    P /= P.sum(axis=2, keepdims=True)
    return FiniteMdp(P, rng.dirichlet(np.ones(n_s)), horizon), rng


@pytest.mark.parametrize("make", [_random_mdp, _random_sparse_mdp],
                         ids=["dense", "ragged"])
@pytest.mark.parametrize("n_a", [2, 5, 9])
@pytest.mark.parametrize("n", [1, 2, 256])
def test_sampling_on_random_mdps_equals_the_per_step_cumsum_draws(make, n_a, n):
    mdp, rng = make(7, n_a, 5, seed=30 + n_a)
    assert mdp.succ.shape[2] > 1 and (mdp.init_dist > 0).sum() > 1
    for seed in range(4):
        sol = soft_backward(mdp, rng.normal(size=mdp.n_states),
                            rng.uniform(0.2, 2.0))
        batch = sample_trajectories(mdp, sol, n, seed=300 + seed)
        assert np.array_equal(batch, _reference_sample(mdp, sol, n, 300 + seed))


def test_sampling_never_draws_an_action_whose_probability_underflowed():
    # action a moves s to (s + a) mod S, so each step's action is read off
    # the states; exp(-800) underflows to exactly 0, as it does in a solve
    # at a small alpha, and every row keeps one action that did not
    n_s, n_a, horizon = 7, 5, 6
    P = np.zeros((n_s, n_a, n_s))
    for a in range(n_a):
        P[np.arange(n_s), a, (np.arange(n_s) + a) % n_s] = 1.0
    rng = np.random.default_rng(3)
    mdp = FiniteMdp(P, rng.dirichlet(np.ones(n_s)), horizon)
    z = rng.normal(size=(horizon, n_s, n_a))
    z[rng.random(z.shape) < 0.5] = -800.0
    z[..., 2] = 0.0
    z[:, 0, [0, 4]] = -800.0   # the first and the last action of a row
    policy = np.exp(z)
    policy /= policy.sum(axis=2, keepdims=True)
    assert (policy == 0).sum() > policy.size // 4
    sol = SoftSolution(policy, np.zeros((horizon + 1, n_s)))
    for seed in range(5):
        batch = sample_trajectories(mdp, sol, 256, seed=400 + seed)
        s = batch[:, :-1]
        a = (batch[:, 1:] - s) % n_s
        assert (policy[np.arange(horizon), s, a] > 0).all()
        assert (s == 0).any()
        assert np.array_equal(batch, _reference_sample(mdp, sol, 256, 400 + seed))


def _reference_solve(mdp, timed, alpha):
    # Q, the log-sum-exp and the softmax in long double on the dense P,
    # so the reference pins the solve's accuracy, not one summation order:
    # at alpha 1e-3 one ulp of Q is ~1e-10 in Q / alpha
    ld = np.longdouble
    P = mdp.transitions.astype(ld)
    soft_v = np.zeros((mdp.horizon + 1, mdp.n_states), dtype=ld)
    policy = np.zeros((mdp.horizon, mdp.n_states, mdp.n_actions), dtype=ld)
    for t in range(mdp.horizon - 1, -1, -1):
        q = P @ (timed.arrival[t].astype(ld) + soft_v[t + 1])
        z = (q + timed.departure[t].astype(ld)[:, None]) / ld(alpha)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        soft_v[t] = ld(alpha) * (z.max(axis=1) + np.log(e.sum(axis=1)))
        policy[t] = e / e.sum(axis=1, keepdims=True)
    return soft_v.astype(float), policy.astype(float)


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


def _dense_matvec_solve(mdp, timed, alpha):
    # soft_backward's arithmetic step for step, with Q = P @ v on the dense P
    soft_v = np.zeros((mdp.horizon + 1, mdp.n_states))
    policy = np.empty((mdp.horizon, mdp.n_states, mdp.n_actions))
    totals = np.empty((mdp.horizon, mdp.n_states))
    for t in range(mdp.horizon - 1, -1, -1):
        q = mdp.transitions @ (timed.arrival[t] + soft_v[t + 1])
        z = (q + timed.departure[t][:, None]) / alpha
        top = z.max(axis=1)
        e = np.exp(z - top[:, None], out=policy[t])
        totals[t] = e.sum(axis=1)
        soft_v[t] = alpha * (top + np.log(totals[t]))
    policy /= totals[..., None]
    return soft_v, policy


@pytest.mark.parametrize("alpha", [1e-3, 1.0])
@pytest.mark.parametrize("grid, horizon", [((5, 5), 20), ((15, 15), 40)])
def test_soft_backward_equals_the_dense_matvec_at_slip_zero(grid, horizon, alpha):
    # one successor per row: the gather adds the same terms as P @ v, so
    # the shipped runs' artifacts do not move
    mdp = build_gridworld(*grid, horizon=horizon)
    rng = np.random.default_rng(12)
    shape = (horizon, mdp.n_states)
    r = rng.normal(size=mdp.n_states)
    timed = TimedReward(rng.normal(size=shape), rng.normal(size=shape))
    for reward, as_timed in ((r, TimedReward(np.tile(r, (horizon, 1)))),
                             (timed, timed)):
        sol = soft_backward(mdp, reward, alpha)
        soft_v, policy = _dense_matvec_solve(mdp, as_timed, alpha)
        assert np.array_equal(sol.soft_v, soft_v)
        assert np.array_equal(sol.policy, policy)


def _state_major_solve(mdp, timed, alpha):
    # the solve on (S, A) tables, reducing along each state's row
    soft_v = np.zeros((mdp.horizon + 1, mdp.n_states))
    policy = np.empty((mdp.horizon, mdp.n_states, mdp.n_actions))
    totals = np.empty((mdp.horizon, mdp.n_states))
    for t in range(mdp.horizon - 1, -1, -1):
        x = timed.arrival[t] + soft_v[t + 1]
        q = np.einsum("sak,sak->sa", mdp.probs, x[mdp.succ])
        z = (q + timed.departure[t][:, None]) / alpha
        top = z.max(axis=1)
        e = np.exp(z - top[:, None], out=policy[t])
        totals[t] = e.sum(axis=1)
        soft_v[t] = alpha * (top + np.log(totals[t]))
    policy /= totals[..., None]
    return soft_v, policy


@pytest.mark.parametrize("make", [
    lambda: build_gridworld(4, 3, slip_prob=0.1, horizon=7),
    lambda: build_gridworld(5, 5, slip_prob=0.3, horizon=9),
    lambda: _random_mdp(6, 3, 5, seed=16)[0],    # dense P, K = S
    lambda: _chain(horizon=4)])                   # one action
@pytest.mark.parametrize("departs", [None, "zero", "random"])
def test_soft_backward_equals_the_state_major_solve(make, departs):
    # action-major rows add fewer than 8 actions in a row's order, so the
    # layout moves no bit
    mdp = make()
    rng = np.random.default_rng(17)
    shape = (mdp.horizon, mdp.n_states)
    for alpha in (1e-3, 0.7):
        if departs is None:
            r = rng.normal(size=mdp.n_states)
            reward, timed = r, TimedReward(np.tile(r, (mdp.horizon, 1)))
        else:
            departure = np.zeros(shape) if departs == "zero" else rng.normal(size=shape)
            reward = timed = TimedReward(rng.normal(size=shape), departure)
        sol = soft_backward(mdp, reward, alpha)
        soft_v, policy = _state_major_solve(mdp, timed, alpha)
        assert np.array_equal(sol.soft_v, soft_v)
        assert np.array_equal(sol.policy, policy)
        assert sol.policy.flags.c_contiguous


def _looped_solve(mdp, reward, alpha):
    # soft_backward with both scalings by alpha run at every alpha
    arrival, departure = (reward.arrival, reward.departure) \
        if isinstance(reward, TimedReward) else (None, None)
    succ_t = np.ascontiguousarray(mdp.succ[..., 0].T)
    soft_v = np.zeros((mdp.horizon + 1, mdp.n_states))
    pol = np.empty((mdp.horizon, mdp.n_actions, mdp.n_states))
    totals = np.empty((mdp.horizon, mdp.n_states))
    for t in range(mdp.horizon - 1, -1, -1):
        x = (reward if arrival is None else arrival[t]) + soft_v[t + 1]
        if mdp.succ.shape[2] == 1:
            z = x.take(succ_t)
        else:
            z = np.einsum("sak,sak->sa", mdp.probs, x[mdp.succ]).T
        if departure is not None:
            z += departure[t]
        z /= alpha
        top = np.maximum.reduce(z, axis=0)
        z -= top
        np.exp(z, out=pol[t])
        np.add.reduce(pol[t], axis=0, out=totals[t])
        v = np.log(totals[t], out=soft_v[t])
        v += top
        v *= alpha
    pol /= totals[:, None, :]
    return soft_v, np.ascontiguousarray(pol.transpose(0, 2, 1))


def _looped_push(succ, x, weights):
    return np.bincount(succ.ravel(), x.repeat(succ.shape[1]) * weights.ravel(),
                       minlength=len(x))


def _looped_sweeps(mdp, kernels, h):
    # the marginals and both pair sweeps with a call per step for every
    # push and every running sum
    succ = mdp.succ.reshape(mdp.n_states, -1)
    rho = np.zeros((mdp.horizon + 1, mdp.n_states))
    rho[0] = mdp.init_dist
    for t in range(mdp.horizon):
        rho[t + 1] = _looped_push(succ, rho[t], kernels[t])
    c, b, fwd, bwd = np.zeros((4, mdp.n_states))
    for t in range(1, mdp.horizon):
        c = _looped_push(succ, c + h * rho[t], kernels[t])
        fwd += c
    ones = np.ones(succ.shape[1])
    for t in range(mdp.horizon - 1, 0, -1):
        b = (kernels[t] * (h + b)[succ]) @ ones
        bwd += rho[t] * b
    return rho, rho[1:].sum(axis=0) / mdp.horizon, fwd, bwd


def _bits(a):
    # compared as raw words, so -0.0 and 0.0 differ too
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("horizon", [1, 2, 40])
@pytest.mark.parametrize("grid", [(1, 1), (1, 5), (4, 3), (5, 5), (15, 15)])
def test_the_solve_marginals_and_sweeps_equal_the_per_step_loops(grid, horizon):
    # at S = 1 a reduce over time adds pairwise; the sums must not
    rng = np.random.default_rng(20)
    for slip in (0.0, 0.1, 1 / 3):
        mdp = build_gridworld(*grid, slip_prob=slip, horizon=horizon)
        shape = (horizon, mdp.n_states)
        for alpha in (1.0, 0.5, 1e-3):
            for reward in (rng.normal(size=mdp.n_states),
                           TimedReward(rng.normal(size=shape),
                                       rng.normal(size=shape))):
                sol = forward_marginals(mdp, soft_backward(mdp, reward, alpha))
                h = rng.normal(size=mdp.n_states)
                got = (sol.soft_v, sol.policy, sol.marginals_t,
                       sol.marginal_avg) + pairwise_marginals(mdp, sol, h)
                soft_v, policy = _looped_solve(mdp, reward, alpha)
                kernels = (policy[..., None] * mdp.probs).reshape(
                    horizon, mdp.n_states, -1)
                want = (soft_v, policy) + _looped_sweeps(mdp, kernels, h)
                for g, w in zip(got, want):
                    assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("slip", [0.0, 0.1])
def test_the_pair_sweeps_hold_less_than_three_marginal_tables(slip):
    # h rho is one (T+1, S) table; beside it the sweeps keep running sums
    # and per-step rows, not a (T, S) table of steps each
    mdp = build_gridworld(15, 15, slip_prob=slip, horizon=40)
    rng = np.random.default_rng(21)
    sol = forward_marginals(mdp, soft_backward(mdp, rng.normal(size=mdp.n_states),
                                               1.0))
    h = rng.normal(size=mdp.n_states)
    tracemalloc.start()
    try:
        pairwise_marginals(mdp, sol, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * (mdp.horizon + 1) * mdp.n_states


def test_soft_backward_past_eight_actions_agrees_to_rounding():
    # from 8 terms on numpy sums a row pairwise, so only the last bits move
    mdp, rng = _random_mdp(7, 9, 6, seed=18)
    timed = TimedReward(rng.normal(size=(6, 7)), rng.normal(size=(6, 7)))
    sol = soft_backward(mdp, timed, 0.7)
    soft_v, policy = _state_major_solve(mdp, timed, 0.7)
    assert np.abs(sol.soft_v - soft_v).max() <= 1e-14 * np.abs(soft_v).max()
    assert np.abs(sol.policy - policy).max() <= 1e-14


def test_soft_backward_holds_two_policy_tables_at_peak():
    # the (T, A, S) working table and the (T, S, A) result, plus the
    # values, the totals and per-step rows
    mdp = build_gridworld(15, 15, horizon=40)
    r = np.random.default_rng(19).normal(size=mdp.n_states)
    tracemalloc.start()
    try:
        soft_backward(mdp, r, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_t, n_s, n_a = mdp.horizon, mdp.n_states, mdp.n_actions
    assert peak <= 8 * (2 * n_t * n_s * n_a + 4 * (n_t + 1) * n_s)


@pytest.mark.parametrize("slip", [0.0, 0.2])
def test_every_per_iteration_layer_runs_without_the_dense_p(slip):
    # only construction reads mdp.transitions; the solve, the marginals,
    # both gradients, the sampler, reachability and training read the
    # successor tables
    mdp = build_gridworld(3, 3, slip_prob=slip, horizon=4)
    rng = np.random.default_rng(13)
    model = apply_update(tabular_reward(9), rng.normal(size=9))
    rho_e = rng.dirichlet(np.ones(9))
    mdp.transitions = None
    timed = TimedReward(rng.normal(size=(4, 9)), rng.normal(size=(4, 9)))
    assert np.isfinite(soft_backward(mdp, timed, 0.7).soft_v).all()
    sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(model), 0.7))
    assert np.isfinite(np.concatenate(pairwise_marginals(mdp, sol, rho_e))).all()
    for grad in (analytic_grad_exact, enumeration_grad):
        assert np.isfinite(grad(mdp, model, 0.7, "fkl", rho_e, sol)).all()
    demos = sample_trajectories(mdp, sol, 8, seed=14)
    assert reachable_states(mdp).all()    # every cell is within 4 moves of 0
    for expert, estimator, ratio_mode in ((rho_e, "exact", "exact_table"),
                                          (rho_e, "mc", "exact_table"),
                                          (demos, "mixture", "discriminator")):
        cfg = TrainConfig(seed=0, iterations=2, estimator=estimator,
                          ratio_mode=ratio_mode, batch_size=8)
        assert len(run_firl(mdp, expert, cfg).metrics) == 2


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


def test_soft_backward_refuses_a_non_positive_alpha():
    with pytest.raises(ValueError, match="alpha"):
        soft_backward(_chain(), np.zeros(3), alpha=0.0)
