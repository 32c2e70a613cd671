"""Scenario builders, shaping downstream task, transfer, recovery fit."""

import numpy as np
import pytest

from firl.kl_eval import policy_return
from firl.mdp import build_gridworld
from firl.reward_model import reward_vector, tabular_reward
from firl.scenarios import (density_matching, dynamics_transfer,
                            gaussian_density, hard_exploration_task,
                            irl_from_trajectories, mixture2_density,
                            percentile_weights, prior_reward_downstream,
                            reward_recovery_check, run_scenario,
                            uniform_density)
from firl.soft_solver import forward_marginals, sample_trajectories, soft_backward


def test_uniform_density_is_one_over_s():
    mdp = build_gridworld(4, 3, horizon=2)
    assert np.array_equal(uniform_density(mdp), np.full(12, 1.0 / 12.0))


def test_gaussian_density_normalized_and_peaked_at_the_mean():
    mdp = build_gridworld(5, 5, horizon=2)
    rho = gaussian_density(mdp, (2.5, 2.5), 1.0)
    assert rho.sum() == pytest.approx(1.0, abs=1e-12)
    assert rho.argmax() == 12
    assert np.all(rho > 0)


def test_gaussian_flattens_toward_uniform_as_sigma_grows():
    mdp = build_gridworld(5, 5, horizon=2)
    u = uniform_density(mdp)
    tvs = [0.5 * np.abs(gaussian_density(mdp, (2.5, 2.5), s) - u).sum()
           for s in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))


def test_gaussian_argument_errors():
    mdp = build_gridworld(3, 3, horizon=2)
    with pytest.raises(ValueError, match="outside the grid hull"):
        gaussian_density(mdp, (9.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_density(mdp, (1.0, 1.0), 0.0)


@pytest.mark.parametrize("shape", ["gaussian", "mixture2"])
def test_density_matching_refuses_a_zero_sigma(shape):
    with pytest.raises(ValueError, match="sigma must be positive"):
        density_matching(shape, sigma=0.0)


def test_mixture_with_symmetric_means_is_reflection_symmetric():
    mdp = build_gridworld(5, 5, horizon=2)
    rho = mixture2_density(mdp, (1.5, 1.5), (3.5, 3.5), 0.6)
    assert rho.sum() == pytest.approx(1.0, abs=1e-12)
    # the 180-degree grid rotation maps state s to 24 - s
    assert np.allclose(rho, rho[::-1], atol=1e-15)


def test_density_matching_builds_the_documented_defaults():
    sc = density_matching("gaussian", grid=(5, 5), kind="rkl", seed=3)
    assert sc.name == "density_gaussian_rkl"
    assert sc.mdp.n_states == 25 and sc.mdp.horizon == 40
    assert sc.cfg.kind == "rkl" and sc.cfg.seed == 3
    assert sc.cfg.estimator == "exact"
    assert sc.cfg.ratio_mode == "exact_table"
    assert sc.cfg.alpha == 1.0 and sc.cfg.reward_lr == 0.1
    assert sc.cfg.iterations == 300 and sc.cfg.eval_every == 25
    assert sc.notes["shape"] == "gaussian"
    over = density_matching("uniform", iterations=7, reward_lr=0.2)
    assert over.cfg.iterations == 7 and over.cfg.reward_lr == 0.2
    with pytest.raises(ValueError, match="unknown density shape"):
        density_matching("ring")


def test_density_matching_smoke_run():
    sc = density_matching("uniform", grid=(3, 3), horizon=6, iterations=2,
                          eval_every=2, eval_expert_samples=100,
                          eval_agent_trajectories=20)
    result = run_scenario(sc)
    assert len(result.metrics) == 2
    assert np.isfinite(result.metrics[-1]["lf_exact"])


def _irl_setup(horizon=8, seed=5):
    mdp = build_gridworld(4, 4, horizon=horizon)
    gt = np.zeros(16)
    gt[15] = 1.0
    return mdp, gt, seed


def test_irl_scenario_freezes_the_training_recipe():
    mdp, gt, seed = _irl_setup()
    sc = irl_from_trajectories(mdp, 4, gt, seed=seed)
    assert sc.cfg.kind == "fkl" and sc.cfg.alpha == 0.5
    assert sc.cfg.estimator == "mixture"
    assert sc.cfg.ratio_mode == "discriminator"
    assert sc.cfg.batch_size == 256 and sc.cfg.reward_lr == 0.05
    assert sc.cfg.iterations == 600 and sc.cfg.eval_every == 100
    assert sc.expert.states.shape == (4, mdp.horizon + 1)
    assert sc.notes["expert_alpha"] == 0.3
    assert sc.notes["expert_marginal"].shape == (16,)


def test_irl_demonstrations_are_the_best_of_the_pool():
    mdp, gt, seed = _irl_setup()
    sc = irl_from_trajectories(mdp, 4, gt, seed=seed, pool_size=50)
    sol_e = forward_marginals(mdp, soft_backward(mdp, gt, 0.3))
    pool = sample_trajectories(mdp, sol_e, 50, seed)
    returns = np.sort(gt[pool.states[:, 1:]].sum(axis=1))[::-1]
    demo_returns = gt[sc.expert.states[:, 1:]].sum(axis=1)
    assert np.array_equal(np.sort(demo_returns)[::-1], returns[:4])
    assert sc.notes["expert_demo_return"] == pytest.approx(demo_returns.mean())


def test_builders_refuse_an_estimator_the_expert_cannot_feed():
    with pytest.raises(ValueError, match="kde_pair ratio mode needs expert state"):
        density_matching("uniform", grid=(2, 2), horizon=2, ratio_mode="kde_pair")
    mdp, gt, seed = _irl_setup(horizon=2)
    with pytest.raises(ValueError, match="exact_table ratio mode needs an expert"):
        irl_from_trajectories(mdp, 4, gt, seed=seed, ratio_mode="exact_table")
    with pytest.raises(ValueError, match="expert cloud holds 2"):
        irl_from_trajectories(mdp, 1, gt, seed=seed)


def test_irl_needs_a_pool_that_covers_the_demos():
    mdp, gt, seed = _irl_setup()
    with pytest.raises(ValueError, match="pool_size"):
        irl_from_trajectories(mdp, 4, gt, seed=seed, pool_size=2)


def test_irl_on_a_flat_reward_reproduces_the_walk_marginal():
    """With a constant ground-truth reward the expert is the uniform
    random walk; training on enough of its demos must land the learned
    policy back on that marginal. Demo count matters here: sampling
    noise at 16 demos is itself a 0.16 TV perturbation, so this check
    uses 64."""
    mdp = build_gridworld(5, 5, horizon=40)
    sc = irl_from_trajectories(mdp, 64, np.zeros(25), seed=0,
                               iterations=200, eval_every=200)
    result = run_scenario(sc)
    sol = forward_marginals(mdp, soft_backward(
        mdp, reward_vector(result.model), sc.cfg.alpha))
    tv = 0.5 * np.abs(sol.marginal_avg - sc.notes["expert_marginal"]).sum()
    assert tv < 0.1


def test_hard_exploration_grid_layout():
    mdp, gt = hard_exploration_task(horizon=12)
    assert mdp.n_states == 36 and mdp.horizon == 12
    assert gt[35] == 1.0
    assert gt[5] == 0.1 and gt[30] == 0.1
    assert gt.sum() == pytest.approx(1.2)
    assert mdp.init_dist[0] == 1.0


def test_prior_grid_shape_and_zero_lambda_control():
    prior = np.linspace(0.0, 1.0, 36)
    rows = prior_reward_downstream(prior, lambda_grid=(0.0, 0.5),
                                   alpha_grid=(0.3, 1.0), horizon=10)
    assert len(rows) == 4
    mdp, gt = hard_exploration_task(horizon=10)
    for alpha in (0.3, 1.0):
        plain = policy_return(mdp, forward_marginals(
            mdp, soft_backward(mdp, gt, alpha)), gt)
        control = [r for r in rows
                   if r["lambda"] == 0.0 and r["alpha"] == alpha][0]
        assert control["return"] == pytest.approx(plain, abs=1e-12)


def test_zero_prior_matches_the_control_at_every_lambda():
    rows = prior_reward_downstream(np.zeros(36), lambda_grid=(0.0, 1.0, 3.0),
                                   alpha_grid=(0.5,), horizon=8)
    returns = {r["lambda"]: r["return"] for r in rows}
    assert returns[1.0] == pytest.approx(returns[0.0], abs=1e-12)
    assert returns[3.0] == pytest.approx(returns[0.0], abs=1e-12)


def test_prior_must_cover_the_task_grid():
    with pytest.raises(ValueError, match="covers 4 states"):
        prior_reward_downstream(np.zeros(4), horizon=5)


def test_transfer_with_the_gt_reward_scores_one():
    mdp = build_gridworld(3, 3, horizon=5)
    gt = np.zeros(9)
    gt[8] = 1.0
    rec = dynamics_transfer(gt, mdp, mdp, gt)
    assert rec["ratio"] == 1.0
    assert rec["return_learned"] == rec["return_gt"] > 0


def test_transfer_accepts_a_reward_model():
    mdp = build_gridworld(3, 3, horizon=5)
    gt = np.zeros(9)
    gt[8] = 1.0
    model = tabular_reward(9)
    model.params[:] = gt
    rec_m = dynamics_transfer(model, mdp, mdp, gt)
    rec_v = dynamics_transfer(gt, mdp, mdp, gt)
    assert rec_m == rec_v


def test_transfer_rejects_mismatched_state_spaces():
    a = build_gridworld(3, 3, horizon=5)
    b = build_gridworld(2, 2, horizon=5)
    with pytest.raises(ValueError, match="source has 9 states"):
        dynamics_transfer(np.zeros(9), a, b, np.zeros(4))


def test_percentile_weights_zero_the_bottom_tail():
    m = np.arange(1.0, 11.0) / 55.0
    w = percentile_weights(m, percentile=10.0)
    assert w[0] == 0.0
    assert np.all(w[1:] > 0)
    assert np.array_equal(percentile_weights(m, percentile=0.0), m)


def test_recovery_fit_detects_a_pure_offset():
    rng = np.random.default_rng(6)
    gt = rng.normal(size=10)
    w = rng.dirichlet(np.ones(10))
    fit = reward_recovery_check(gt + 5.0, gt, w)
    assert fit["offset"] == pytest.approx(5.0, abs=1e-12)
    assert fit["offset_r2"] == pytest.approx(1.0, abs=1e-12)
    assert fit["max_residual"] < 1e-12
    assert fit["slope_is_one"] and not fit["degenerate"]
    assert fit["affine_r2"] == pytest.approx(1.0, abs=1e-12)


def test_recovery_fit_flags_a_rescaled_reward():
    rng = np.random.default_rng(7)
    gt = rng.normal(size=10)
    w = rng.dirichlet(np.ones(10))
    fit = reward_recovery_check(2.0 * gt, gt, w)
    assert fit["offset_r2"] == pytest.approx(0.75, abs=1e-12)
    assert fit["affine_r2"] == pytest.approx(1.0, abs=1e-12)
    assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
    assert not fit["slope_is_one"]


def test_recovery_fit_degenerates_on_flat_inputs():
    w = np.full(5, 0.2)
    fit = reward_recovery_check(np.full(5, 2.0), np.full(5, 1.0), w)
    assert fit["degenerate"]
    assert np.isnan(fit["offset_r2"]) and np.isnan(fit["slope"])
    assert fit["offset"] == pytest.approx(1.0)


def test_recovery_fit_validates_the_weights():
    gt = np.arange(4.0)
    with pytest.raises(ValueError, match="share a shape"):
        reward_recovery_check(gt, gt, np.ones(3))
    with pytest.raises(ValueError, match="nonnegative"):
        reward_recovery_check(gt, gt, np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="positive mass"):
        reward_recovery_check(gt, gt, np.zeros(4))
