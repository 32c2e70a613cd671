"""The covariance gradient and its independent cross-checks.

The exact contraction, the sampled estimators, the brute-force
enumeration, and the central-difference oracle all measure the same
quantity through unrelated code paths; these tests hold them together.
"""

import tracemalloc

import numpy as np
import pytest

import firl.mdp
from firl.density_ratio import LOGIT_CLIP, discriminator_fit
from firl.divergence import KINDS, ExpertDensity, h_f, h_table
from firl.grad_engine import (analytic_grad_exact, analytic_grad_mc,
                              analytic_grad_mixture, enumeration_grad,
                              fd_grad_oracle, gradcheck_suite)
from firl.mdp import FiniteMdp, build_gridworld
from firl.reward_model import (apply_update, default_features, mlp_reward,
                               reward_vector, reward_vjp, tabular_reward)
from firl.scenarios import density_matching
from firl.soft_solver import forward_marginals, sample_trajectories, soft_backward


def _instance(seed=0, slip=0.0, grid=(3, 3), horizon=4, alpha=1.0):
    rng = np.random.default_rng(seed)
    mdp = build_gridworld(*grid, slip_prob=slip, horizon=horizon)
    model = apply_update(tabular_reward(mdp.n_states),
                         rng.normal(0, 0.3, mdp.n_states))
    rho_e = rng.dirichlet(np.full(mdp.n_states, 2.0))
    sol = forward_marginals(mdp, soft_backward(mdp, model.params, alpha))
    return mdp, model, rho_e, sol


@pytest.mark.parametrize("kind", KINDS)
def test_gradient_vanishes_at_the_matched_density(kind):
    mdp, model, _, sol = _instance(seed=1)
    grad = analytic_grad_exact(mdp, model, 1.0, kind,
                               rho_e=sol.marginal_avg, sol=sol)
    assert np.linalg.norm(grad) < 1e-12


def test_reverse_kl_ignores_the_expert_scale():
    mdp, model, rho_e, sol = _instance(seed=2)
    g1 = analytic_grad_exact(mdp, model, 1.0, "rkl", rho_e=rho_e, sol=sol)
    g2 = analytic_grad_exact(
        mdp, model, 1.0, "rkl",
        rho_e=ExpertDensity(3.7 * rho_e, normalized=False), sol=sol)
    assert np.abs(g1 - g2).max() < 1e-12


def test_forward_kl_requires_a_normalized_expert():
    mdp, model, rho_e, sol = _instance(seed=3)
    with pytest.raises(ValueError, match="normalized expert density"):
        analytic_grad_exact(mdp, model, 1.0, "fkl",
                            rho_e=ExpertDensity(2.0 * rho_e, normalized=False),
                            sol=sol)


def test_reverse_kl_rejects_zero_expert_mass_on_visited_states():
    mdp, model, _, sol = _instance(seed=4)
    point = np.zeros(mdp.n_states)
    point[0] = 1.0
    with pytest.raises(ValueError, match="h_rkl is not finite at state"):
        analytic_grad_exact(mdp, model, 1.0, "rkl", rho_e=point, sol=sol)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("slip", [0.0, 0.2])
def test_exact_contraction_equals_enumeration(kind, slip):
    mdp, model, rho_e, sol = _instance(seed=6, slip=slip, alpha=0.8)
    ga = analytic_grad_exact(mdp, model, 0.8, kind, rho_e=rho_e, sol=sol)
    ge = enumeration_grad(mdp, model, 0.8, kind, rho_e, sol=sol)
    assert np.linalg.norm(ga - ge) < 1e-10


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("slip", [0.0, 0.2])
def test_exact_contraction_equals_enumeration_on_an_mlp_reward(kind, slip):
    rng = np.random.default_rng(9)
    mdp = build_gridworld(3, 3, slip_prob=slip, horizon=4)
    model = mlp_reward(default_features(mdp), seed=5)
    model = apply_update(model, rng.normal(0, 0.3, model.n_params))
    rho_e = rng.dirichlet(np.full(mdp.n_states, 2.0))
    sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(model), 0.8))
    ga = analytic_grad_exact(mdp, model, 0.8, kind, rho_e=rho_e, sol=sol)
    ge = enumeration_grad(mdp, model, 0.8, kind, rho_e, sol=sol)
    assert np.linalg.norm(ge) > 1e-3
    assert np.linalg.norm(ga - ge) < 1e-10


def test_exact_gradient_matches_the_fd_oracle():
    mdp, model, rho_e, sol = _instance(seed=7)
    ga = analytic_grad_exact(mdp, model, 1.0, "fkl", rho_e=rho_e, sol=sol)
    gf = fd_grad_oracle(mdp, model, 1.0, "fkl", rho_e)
    assert np.linalg.norm(ga - gf) / np.linalg.norm(gf) < 1e-6


def test_exact_gradient_never_builds_the_pair_tables():
    # S = 225, T = 40: the T(T+1)/2 dense (S, S) pair tables alone would
    # take ~330 MB; the two sweeps need a few (S,) vectors
    mdp, model, rho_e, sol = _instance(seed=2, slip=0.1, grid=(15, 15),
                                       horizon=40)
    tracemalloc.start()
    try:
        analytic_grad_exact(mdp, model, 1.0, "fkl", rho_e=rho_e, sol=sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_tabular_gradients_never_form_the_identity_jacobian():
    # on a 40x40 grid eye(1600) alone takes 20.5 MB; a tabular reward's
    # products with its jacobian are the vectors themselves
    mdp, model, rho_e, sol = _instance(seed=3, grid=(40, 40), horizon=6)
    batch = sample_trajectories(mdp, sol, 32, seed=4)
    h = h_table("fkl", rho_e, sol.marginal_avg)
    for grad in (lambda: analytic_grad_exact(mdp, model, 1.0, "fkl",
                                             rho_e=rho_e, sol=sol),
                 lambda: analytic_grad_mc(batch, model, 1.0, h)):
        tracemalloc.start()
        try:
            grad()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_fd_error_shrinks_quadratically_in_eps():
    mdp, model, rho_e, sol = _instance(seed=8)
    ga = analytic_grad_exact(mdp, model, 1.0, "fkl", rho_e=rho_e, sol=sol)
    e1 = np.linalg.norm(fd_grad_oracle(mdp, model, 1.0, "fkl", rho_e,
                                       eps=1e-3) - ga)
    e2 = np.linalg.norm(fd_grad_oracle(mdp, model, 1.0, "fkl", rho_e,
                                       eps=5e-4) - ga)
    assert 3.5 < e1 / e2 < 4.5


def test_fd_refuses_oversized_models():
    mdp, _, rho_e, _ = _instance(seed=9)
    big = tabular_reward(300)
    with pytest.raises(ValueError, match="exceeds the cap"):
        fd_grad_oracle(mdp, big, 1.0, "fkl", rho_e)


def test_gradcheck_suite_stays_within_tolerance():
    records = gradcheck_suite(n_instances=6, seed=0)
    assert len(records) == 6
    assert all(r["rel_error"] < 1e-4 for r in records)
    assert [r["kind"] for r in records] == ["fkl", "rkl", "js"] * 2
    assert {r["reward_kind"] for r in records} == {"tabular", "mlp"}
    assert all(r["instance"] == i for i, r in enumerate(records))


def test_symmetric_problem_gives_a_symmetric_gradient():
    # 3x1 corridor started in the middle with a mirror-symmetric target
    mdp = build_gridworld(3, 1, init_state=1, horizon=3)
    model = tabular_reward(3)
    rho_e = np.array([0.25, 0.5, 0.25])
    sol = forward_marginals(mdp, soft_backward(mdp, model.params, 1.0))
    g = analytic_grad_exact(mdp, model, 1.0, "fkl", rho_e=rho_e, sol=sol)
    assert g[0] == pytest.approx(g[2], abs=1e-14)


def _fkl_case():
    mdp, model, rho_e, sol = _instance(seed=10)
    return mdp, model, rho_e, sol, "fkl", 50_000, 11


def _thin_tailed_rkl_case():
    # a config the CLI accepts; under the zero reward 7 visited states
    # have u < 1e-8, the least 5.2e-16, so h_rkl = 1 - log u is large
    # there, and any clip of u biases mc by more than rollouts can shrink
    sc = density_matching("gaussian", grid=(7, 7), horizon=10, sigma=0.5,
                          kind="rkl", estimator="mc")
    model = tabular_reward(sc.mdp.n_states)
    sol = forward_marginals(sc.mdp, soft_backward(sc.mdp, model.params, 1.0))
    return sc.mdp, model, sc.expert, sol, "rkl", 20_000, 0


@pytest.mark.parametrize("case", [_fkl_case, _thin_tailed_rkl_case],
                         ids=["fkl", "thin-tailed-rkl"])
def test_mc_estimates_the_exact_gradient(case):
    mdp, model, rho_e, sol, kind, n, seed = case()
    ga = analytic_grad_exact(mdp, model, 1.0, kind, rho_e=rho_e, sol=sol)
    batch = sample_trajectories(mdp, sol, n, seed=seed)
    grad = analytic_grad_mc(batch, model, 1.0,
                            h_table(kind, rho_e, sol.marginal_avg))
    assert np.linalg.norm(grad - ga) / np.linalg.norm(ga) < 0.05


def test_mc_is_exactly_zero_under_a_constant_ratio():
    # constant h sums make the covariance vanish identically
    mdp, model, _, sol = _instance(seed=12)
    h = h_table("fkl", np.full(9, 1.0 / 9.0), np.full(9, 1.0 / 9.0))
    batch = sample_trajectories(mdp, sol, 64, seed=13)
    grad = analytic_grad_mc(batch, model, 1.0, h)
    assert np.array_equal(grad, np.zeros(9))


def test_mc_is_exactly_zero_on_identical_trajectories():
    mdp, model, rho_e, sol = _instance(seed=14)
    h = h_table("fkl", rho_e, sol.marginal_avg)
    one = sample_trajectories(mdp, sol, 1, seed=15)
    grad = analytic_grad_mc(np.repeat(one, 8, axis=0), model, 1.0, h)
    assert np.array_equal(grad, np.zeros(9))


def test_mc_needs_at_least_two_trajectories():
    mdp, model, rho_e, sol = _instance(seed=16)
    h = h_table("fkl", rho_e, sol.marginal_avg)
    batch = sample_trajectories(mdp, sol, 1, seed=17)
    with pytest.raises(ValueError, match="at least 2 trajectories"):
        analytic_grad_mc(batch, model, 1.0, h)


def test_the_covariance_admits_counts_of_exactly_the_byte_cap(monkeypatch):
    # four rows on a 3 x 3 grid: the visit counts are (4, 9), 288 bytes
    mdp, model, rho_e, sol = _instance(seed=16)
    h = h_table("fkl", rho_e, sol.marginal_avg)
    batch = sample_trajectories(mdp, sol, 4, seed=17)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 288)
    analytic_grad_mc(batch, model, 1.0, h)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 287)
    with pytest.raises(ValueError, match="visit counts .* 288 bytes, past the cap"):
        analytic_grad_mc(batch, model, 1.0, h)


def test_mixture_is_zero_when_both_sides_repeat_one_path():
    # one action around a 4-cycle: the agent walks a single path, and the
    # demos repeat it, so the pool holds one path and no covariance
    transitions = np.eye(4)[[1, 2, 3, 0]][:, None, :]
    mdp = FiniteMdp(transitions, np.eye(4)[0], horizon=5)
    model = apply_update(tabular_reward(4), np.array([0.3, -0.2, 0.5, 0.1]))
    sol = forward_marginals(mdp, soft_backward(mdp, model.params, 1.0))
    expert = np.tile([0, 1, 2, 3, 0, 1], (6, 1))
    h = h_f("fkl", np.exp(np.random.default_rng(18).uniform(-3.0, 3.0, 4)))
    grad = analytic_grad_mixture(mdp, model, 1.0, h, expert, sol)
    assert np.abs(grad).max() < 1e-12


def test_mixture_pulls_the_reward_toward_an_off_policy_expert():
    # agent wanders from the start corner; expert demos hug the far corner
    mdp = build_gridworld(3, 3, horizon=6)
    model = tabular_reward(9)
    gt = np.zeros(9)
    gt[8] = 2.0
    sol_a = forward_marginals(mdp, soft_backward(mdp, np.zeros(9), 1.0))
    sol_e = forward_marginals(mdp, soft_backward(mdp, gt, 0.3))
    expert = sample_trajectories(mdp, sol_e, 32, seed=21)
    h = h_f("fkl", np.exp(discriminator_fit(expert[:, 1:], sol_a.marginal_avg)))
    grad = analytic_grad_mixture(mdp, model, 1.0, h, expert, sol_a)
    # a descent step raises the reward most on the expert's corner
    assert np.argmin(grad) == 8 and grad[8] < 0


def test_mixture_rejects_mismatched_horizons():
    mdp, model, rho_e, sol = _instance(seed=23)
    h = h_table("fkl", rho_e, sol.marginal_avg)
    short = sample_trajectories(mdp, sol, 8, seed=24)[:, :-1]
    with pytest.raises(ValueError, match="expert horizon 3 differs from the mdp's 4"):
        analytic_grad_mixture(mdp, model, 1.0, h, short, sol)


def _sampled_pool_grad(mdp, sol, expert, model, alpha, kind, ratio, n, seed):
    # the pool the mixture estimator once sampled: n agent rollouts and n
    # bootstrap-resampled demos, and the pooled sample covariance, with
    # the standard error of each entry from the per-row products. The
    # rows are contracted in state space before reward_vjp, so the
    # standard error is per state: per parameter for a tabular reward
    rng = np.random.default_rng(seed)
    agent = sample_trajectories(mdp, sol, n, seed=int(rng.integers(2 ** 31)))
    pick = rng.integers(0, len(expert), size=n)
    body = np.concatenate([agent, expert[pick]])[:, 1:]
    h = h_f(kind, ratio)
    a = h[body].sum(axis=1)
    counts = np.zeros((2 * n, mdp.n_states))
    np.add.at(counts, (np.arange(2 * n)[:, None], body), 1.0)
    terms = (a - a.mean())[:, None] * (counts - counts.mean(axis=0))
    terms /= alpha * mdp.horizon
    grad = reward_vjp(model, terms.sum(axis=0) / (2 * n - 1))
    # the two halves are independent samples of n rows each
    stderr = np.sqrt((terms[:n].var(axis=0) + terms[n:].var(axis=0)) / (4 * n))
    return grad, stderr


@pytest.mark.parametrize("kind", KINDS)
def test_mixture_is_the_large_n_limit_of_the_sampled_pool(kind):
    mdp = build_gridworld(3, 3, horizon=5)
    rng = np.random.default_rng(KINDS.index(kind) + 40)
    model = apply_update(tabular_reward(9), rng.normal(0.0, 0.3, 9))
    sol = forward_marginals(mdp, soft_backward(mdp, model.params, 0.8))
    gt = np.zeros(9)
    gt[8] = 1.5
    sol_e = forward_marginals(mdp, soft_backward(mdp, gt, 0.5))
    expert = sample_trajectories(mdp, sol_e, 16, seed=41)
    ratio = np.exp(discriminator_fit(expert[:, 1:], sol.marginal_avg))
    closed = analytic_grad_mixture(mdp, model, 0.8, h_f(kind, ratio), expert,
                                   sol)
    sampled, stderr = _sampled_pool_grad(mdp, sol, expert, model, 0.8, kind,
                                         ratio, 2 ** 16, seed=42)
    assert np.all(np.abs(closed - sampled) <= 3 * stderr)
    # and the limit is not trivially zero
    assert np.linalg.norm(closed) > 10 * np.linalg.norm(stderr)


def test_a_route_refuses_a_non_finite_gradient():
    # h_rkl at a zero ratio is infinite; on a visited state inf - inf in
    # the centring is the nan the route refuses
    mdp, model, rho_e, sol = _instance(seed=35)
    batch = sample_trajectories(mdp, sol, 8, seed=36)
    h = h_table("rkl", rho_e, sol.marginal_avg)
    h[batch[0, 1]] = np.inf
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match="mc produced a non-finite gradient"):
        analytic_grad_mc(batch, model, 1.0, h)


def _mean_formula_cov(states, model, alpha, h):
    # the covariance as first written, with fancy indexing and .mean(),
    # contracted in state space before reward_vjp: the estimator must
    # stay this arithmetic, bit for bit
    body = states[:, 1:]
    n, t_hor = body.shape
    a = h[body].sum(axis=1)
    flat = (body + np.arange(n)[:, None] * len(h)).ravel()
    b = np.bincount(flat, minlength=n * len(h)).reshape(n, len(h))
    return (reward_vjp(model, (a - a.mean()) @ (b - b.mean(axis=0)))
            / (n - 1) / (alpha * t_hor))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("reward", ["tabular", "mlp"])
def test_sampled_covariances_are_bit_for_bit_the_mean_formula(kind, reward):
    rng = np.random.default_rng(KINDS.index(kind) + 10 * (reward == "mlp"))
    mdp = build_gridworld(5, 4, slip_prob=0.1, horizon=7)
    if reward == "tabular":
        model = tabular_reward(mdp.n_states)
    else:
        model = mlp_reward(default_features(mdp), hidden=(8, 8), seed=3)
    for trial in range(6):
        model = apply_update(model, rng.normal(0.0, 0.3, model.n_params))
        sol = forward_marginals(mdp, soft_backward(mdp, reward_vector(model), 0.7))
        agent = sample_trajectories(mdp, sol, int(rng.integers(2, 300)),
                                    seed=int(rng.integers(2 ** 31)))
        h = h_f(kind, np.exp(rng.uniform(-LOGIT_CLIP, LOGIT_CLIP, mdp.n_states)))
        alpha = float(rng.uniform(0.2, 2.0))
        assert np.array_equal(analytic_grad_mc(agent, model, alpha, h),
                              _mean_formula_cov(agent, model, alpha, h))
