"""Optimizer, reward shaping, and the training loop contract."""

import functools
import sys
import threading
import types

import numpy as np
import pytest

import firl.cli  # noqa: F401  (loads every firl module for the thread guard)
import firl.kl_eval
import firl.mdp
import firl.trainer
from firl.divergence import ExpertDensity, divergence_exact
from firl.mdp import FiniteMdp, build_gridworld
from firl.soft_solver import (forward_marginals, sample_trajectories,
                              soft_backward)
from firl.trainer import (METRIC_COLUMNS, OptimizerState, TrainConfig,
                          check_expert_fit, optimizer_step, potential_shape,
                          run_firl, shaped_prior_reward)


def _uniform_marginal(mdp, alpha=1.0):
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(mdp.n_states), alpha))
    return sol


# ---------------------------------------------------------------- optimizer

def test_adam_matches_a_hand_written_reference():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=(4, 3))
    state = OptimizerState()
    m = np.zeros(3)
    v = np.zeros(3)
    for t, g in enumerate(grads, start=1):
        _, delta = optimizer_step(state, g, lr=0.05)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        want = -0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(delta, want, atol=1e-15)


def test_adam_step_size_approaches_lr_under_constant_gradient():
    state = OptimizerState()
    g = np.array([0.5])
    for _ in range(10):
        _, delta = optimizer_step(state, g, lr=0.01)
        assert abs(delta[0]) == pytest.approx(0.01, rel=1e-6)
        assert delta[0] < 0


def test_adam_zero_gradient_gives_zero_delta():
    state = OptimizerState()
    _, delta = optimizer_step(state, np.zeros(2), lr=0.3)
    assert np.array_equal(delta, np.zeros(2))


# ------------------------------------------------------------------ shaping

def test_potential_shaping_leaves_the_policy_unchanged():
    mdp = build_gridworld(4, 3, slip_prob=0.1, horizon=5)
    rng = np.random.default_rng(1)
    r = rng.normal(size=12)
    phi = rng.normal(size=12)
    base = soft_backward(mdp, r, alpha=0.7)
    shaped = soft_backward(mdp, potential_shape(r, phi, gamma=1.0,
                                                horizon=5), alpha=0.7)
    assert np.abs(shaped.policy - base.policy).max() < 1e-10
    # every Q sees the same -phi(s) shift, so V drops by phi as well
    assert np.allclose(shaped.soft_v[0], base.soft_v[0] - phi, atol=1e-10)


def test_zero_potential_is_the_identity():
    timed = potential_shape(np.array([1.0, 2.0]), np.zeros(2), horizon=3)
    assert np.array_equal(timed.arrival, np.tile([1.0, 2.0], (3, 1)))
    assert np.array_equal(timed.departure, np.zeros((3, 2)))


def test_constant_potential_shifts_values_not_choices():
    mdp = build_gridworld(3, 3, horizon=4)
    rng = np.random.default_rng(2)
    r = rng.normal(size=9)
    c = 2.5
    base = soft_backward(mdp, r, alpha=1.0)
    shaped = soft_backward(mdp, potential_shape(r, np.full(9, c), gamma=1.0,
                                                horizon=4), alpha=1.0)
    assert np.abs(shaped.policy - base.policy).max() < 1e-12
    assert np.allclose(shaped.soft_v[0], base.soft_v[0] - c, atol=1e-12)


def test_discounted_shaping_without_the_convention_moves_the_policy():
    mdp = build_gridworld(3, 3, horizon=4)
    rng = np.random.default_rng(3)
    r = rng.normal(size=9)
    phi = rng.normal(size=9) * 2.0
    base = soft_backward(mdp, r, alpha=1.0)
    shaped = soft_backward(mdp, potential_shape(r, phi, gamma=0.9, horizon=4,
                                                terminal_convention=False),
                           alpha=1.0)
    assert np.abs(shaped.policy - base.policy).max() > 1e-3


def test_prior_bonus_at_lambda_zero_is_the_task_reward():
    r = np.array([0.0, 1.0, 0.5])
    timed = shaped_prior_reward(r, np.array([3.0, -1.0, 2.0]), lam=0.0,
                                gamma=0.99, horizon=4)
    assert np.array_equal(timed.arrival, np.tile(r, (4, 1)))
    assert np.array_equal(timed.departure, np.zeros((4, 3)))


def test_constant_prior_offsets_values_uniformly():
    mdp = build_gridworld(3, 3, horizon=5)
    rng = np.random.default_rng(4)
    r = rng.normal(size=9)
    c, lam, gamma = 1.5, 0.4, 0.9
    base = soft_backward(mdp, r, alpha=1.0)
    timed = shaped_prior_reward(r, np.full(9, c), lam, gamma, horizon=5)
    shaped = soft_backward(mdp, timed, alpha=1.0)
    assert np.abs(shaped.policy - base.policy).max() < 1e-12
    offset = 5 * lam * (gamma - 1.0) * c
    assert np.allclose(shaped.soft_v[0], base.soft_v[0] + offset, atol=1e-12)


def test_shaping_argument_errors():
    with pytest.raises(ValueError, match="horizon"):
        potential_shape(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="share a shape"):
        potential_shape(np.zeros(2), np.zeros(3), horizon=2)
    with pytest.raises(ValueError, match="share a shape"):
        shaped_prior_reward(np.zeros(2), np.zeros(3), 0.5, horizon=2)


# ------------------------------------------------------------- train config

def test_config_validation_catches_bad_fields():
    good = TrainConfig(seed=0)
    assert good.validate() is good
    cases = [
        {"kind": "tv"}, {"estimator": "gan"}, {"ratio_mode": "oracle"},
        {"alpha": 0.0}, {"iterations": 0}, {"reward_lr": 0.0},
        {"batch_size": 1}, {"eval_every": 0},
    ]
    for bad in cases:
        cfg = TrainConfig(seed=0, **bad)
        with pytest.raises(ValueError):
            cfg.validate()


# ------------------------------------------------------------ training loop

def _small_cfg(**kw):
    base = dict(seed=0, iterations=3, reward_lr=0.1, eval_every=1)
    base.update(kw)
    return TrainConfig(**base)


def test_matched_expert_leaves_parameters_alone():
    mdp = build_gridworld(3, 3, horizon=4)
    rho_e = _uniform_marginal(mdp).marginal_avg
    result = run_firl(mdp, rho_e, _small_cfg(iterations=1))
    # Adam divides by sqrt(v) + 1e-8, which turns this rounding-level
    # gradient into ~1e-9 parameter moves, so the gradient is checked
    assert result.metrics[0]["grad_norm"] < 1e-12


def test_first_metric_row_describes_the_initial_model():
    mdp = build_gridworld(3, 3, horizon=4)
    rng = np.random.default_rng(5)
    rho_e = rng.dirichlet(np.full(9, 3.0))
    sol0 = _uniform_marginal(mdp)
    result = run_firl(mdp, rho_e, _small_cfg())
    want = divergence_exact("fkl", rho_e, sol0.marginal_avg)
    assert result.metrics[0]["exact_fkl"] == want
    assert [row["iteration"] for row in result.metrics] == [0, 1, 2]
    assert set(METRIC_COLUMNS) <= set(result.metrics[0])
    assert result.wall_clock > 0


def test_training_reduces_the_divergence():
    mdp = build_gridworld(3, 3, horizon=6)
    rng = np.random.default_rng(6)
    rho_e = rng.dirichlet(np.full(9, 3.0))
    result = run_firl(mdp, rho_e, _small_cfg(iterations=60, eval_every=30))
    assert result.metrics[-1]["exact_fkl"] < 0.2 * result.metrics[0]["exact_fkl"]


def test_run_is_bitwise_deterministic():
    mdp = build_gridworld(3, 3, horizon=4)
    gt = np.zeros(9)
    gt[8] = 1.0
    expert_sol = forward_marginals(mdp, soft_backward(mdp, gt, 0.5))
    demos = sample_trajectories(mdp, expert_sol, 20, seed=1)

    def go():
        cfg = _small_cfg(estimator="mixture", ratio_mode="discriminator",
                         batch_size=32, eval_every=2)
        return run_firl(mdp, demos, cfg, gt_reward=gt)

    a, b = go(), go()
    assert np.array_equal(a.model.params, b.model.params)
    for ra, rb in zip(a.metrics, b.metrics):
        for col in METRIC_COLUMNS:
            assert (ra[col] == rb[col]) or (np.isnan(ra[col])
                                            and np.isnan(rb[col]))


def test_eval_every_controls_the_sampled_kl_columns():
    mdp = build_gridworld(3, 3, horizon=4)
    rng = np.random.default_rng(8)
    rho_e = rng.dirichlet(np.full(9, 3.0))
    result = run_firl(mdp, rho_e, _small_cfg(iterations=4, eval_every=2))
    flags = [np.isnan(row["fkl_estimate"]) for row in result.metrics]
    assert flags == [False, True, False, True]
    assert all(np.isfinite(row["exact_fkl"]) for row in result.metrics)
    # no ground truth reward was given, so return stays blank
    assert all(np.isnan(row["return"]) for row in result.metrics)


def test_kl_columns_draw_no_rollouts(monkeypatch):
    # the agent side of both estimates is the solved marginal itself
    def refuse(*args, **kwargs):
        raise AssertionError("sampled trajectories during an exact run")

    monkeypatch.setattr(firl.trainer, "sample_trajectories", refuse)
    mdp = build_gridworld(3, 3, horizon=4)
    rho_e = np.random.default_rng(10).dirichlet(np.full(9, 3.0))
    result = run_firl(mdp, rho_e, _small_cfg(iterations=2))
    for row in result.metrics:
        assert np.isfinite(row["fkl_estimate"]) and np.isfinite(row["rkl_estimate"])


def test_fkl_estimate_is_inf_like_the_exact_value_off_the_reachable_set():
    # from corner 0 in two steps the walk never reaches the far corner 8
    mdp = build_gridworld(3, 3, init_state=0, horizon=2)
    rho_e = np.full(9, 1.0 / 9.0)
    result = run_firl(mdp, rho_e, _small_cfg(iterations=1))
    row = result.metrics[0]
    assert row["exact_fkl"] == np.inf and row["fkl_estimate"] == np.inf
    assert np.isfinite(row["rkl_estimate"]) and np.isfinite(row["grad_norm"])


def test_overlapping_cells_are_refused():
    # the evaluation takes the agent's density as exact on disjoint
    # unit cells; these centres lie 0.6 apart in the max norm
    P = np.zeros((3, 1, 3))
    P[:, 0, 1] = 1.0
    coords = [[0.0, 0.0], [0.6, 0.3], [3.0, 3.0]]
    mdp = FiniteMdp(P, [1.0, 0.0, 0.0], horizon=2, coords=coords)
    rho_e = np.array([0.2, 0.6, 0.2])
    with pytest.raises(ValueError, match="cells overlap: state 0's centre lies "
                       "0.6 from another in the max norm, and the kNN "
                       "evaluation needs unit cells that are disjoint"):
        check_expert_fit(mdp, rho_e, _small_cfg())
    # unit spacing, on the default line and on a grid, is accepted
    line = FiniteMdp(P, [1.0, 0.0, 0.0], horizon=2)
    assert check_expert_fit(line, rho_e, _small_cfg())[0] is not None
    grid = build_gridworld(4, 2, horizon=2)
    assert check_expert_fit(grid, np.full(8, 0.125), _small_cfg())[0] is not None


def test_return_column_appears_with_a_ground_truth():
    mdp = build_gridworld(2, 2, horizon=3)
    rho_e = _uniform_marginal(mdp).marginal_avg
    gt = np.array([0.0, 1.0, 0.0, 2.0])
    result = run_firl(mdp, rho_e, _small_cfg(iterations=1), gt_reward=gt)
    assert np.isfinite(result.metrics[0]["return"])


def test_expert_input_and_mode_mismatches_are_rejected():
    mdp = build_gridworld(2, 2, horizon=3)
    rho_e = _uniform_marginal(mdp).marginal_avg
    sol = _uniform_marginal(mdp)
    demos = sample_trajectories(mdp, sol, 8, seed=2)
    with pytest.raises(ValueError, match="needs an expert density"):
        run_firl(mdp, demos, _small_cfg())
    with pytest.raises(ValueError, match="needs expert state samples"):
        run_firl(mdp, rho_e, _small_cfg(ratio_mode="discriminator",
                                        estimator="mc"))
    with pytest.raises(ValueError, match="exact estimator needs an expert density"):
        run_firl(mdp, demos, _small_cfg(ratio_mode="discriminator"))
    with pytest.raises(ValueError, match="needs expert trajectories"):
        run_firl(mdp, rho_e, _small_cfg(estimator="mixture"))
    # expert visits come as (n, T+1) rows; a flat int array is refused
    with pytest.raises(ValueError, match=r"2-d, shaped \(n, horizon \+ 1\)"):
        run_firl(mdp, demos[:, 1:].ravel(),
                 _small_cfg(estimator="mc", ratio_mode="discriminator"))
    with pytest.raises(ValueError, match="horizon"):
        run_firl(mdp, demos[:, :-1],
                 _small_cfg(estimator="mixture", ratio_mode="discriminator"))
    with pytest.raises(ValueError, match="covers 5 states, mdp has 4"):
        run_firl(mdp, np.full(5, 0.2), _small_cfg())
    # the kNN expert cloud needs more than KNN_K = 3 points
    with pytest.raises(ValueError, match="expert cloud holds 3"):
        run_firl(mdp, demos[:1], _small_cfg(estimator="mc",
                                            ratio_mode="discriminator"))
    # expert state indices must name states of the mdp
    wrapped = demos.copy()
    wrapped[0, 2] = -1
    with pytest.raises(ValueError, match=r"expert state index -1 is outside 0\.\.3"):
        run_firl(mdp, wrapped, _small_cfg(estimator="mixture",
                                          ratio_mode="discriminator"))
    past = demos.copy()
    past[3, 1] = 4
    with pytest.raises(ValueError, match=r"expert state index 4 is outside 0\.\.3"):
        run_firl(mdp, past, _small_cfg(estimator="mc", ratio_mode="discriminator"))


def test_rkl_trains_on_an_unnormalized_energy():
    mdp = build_gridworld(3, 3, horizon=4)
    rho_e = np.random.default_rng(9).dirichlet(np.full(9, 3.0))
    cfg = _small_cfg(kind="rkl")
    base = run_firl(mdp, rho_e, cfg)
    energy = run_firl(mdp, ExpertDensity(3.0 * rho_e, normalized=False), cfg)
    assert np.abs(energy.model.params - base.model.params).max() < 1e-12
    # exact divergences need a normalized target, so those columns stay blank
    for row in energy.metrics:
        assert all(np.isnan(row[c]) for c in ("exact_fkl", "exact_rkl", "lf_exact"))


def test_only_rkl_accepts_an_unnormalized_energy():
    mdp = build_gridworld(3, 3, horizon=4)
    rho_e = np.random.default_rng(9).dirichlet(np.full(9, 3.0))
    energy = ExpertDensity(3.0 * rho_e, normalized=False)
    for kind in ("fkl", "js"):
        with pytest.raises(ValueError, match="%s needs a normalized expert density"
                           % kind):
            check_expert_fit(mdp, energy, _small_cfg(kind=kind))
    rho, _, _ = check_expert_fit(mdp, rho_e, _small_cfg())
    assert isinstance(rho, ExpertDensity) and rho.normalized


@pytest.mark.parametrize("shape", [(8,), (2, 4, 3)], ids=["1-d", "3-d"])
def test_check_expert_fit_refuses_an_int_expert_that_is_not_2_d(shape):
    mdp = build_gridworld(2, 2, horizon=3)
    cfg = _small_cfg(estimator="mixture", ratio_mode="discriminator")
    with pytest.raises(ValueError, match="must be 2-d, shaped"):
        check_expert_fit(mdp, np.zeros(shape, dtype=np.int64), cfg)


def test_flat_expert_states_drive_the_sampled_ratio_modes():
    mdp = build_gridworld(3, 3, horizon=4)
    sol = _uniform_marginal(mdp)
    demos = sample_trajectories(mdp, sol, 30, seed=3)
    cfg = _small_cfg(estimator="mc", ratio_mode="discriminator", batch_size=32,
                     iterations=2)
    result = run_firl(mdp, demos, cfg)
    assert all(np.isfinite(row["grad_norm"]) for row in result.metrics)


# ------------------------------------------------ the evaluation cloud's worker

@pytest.mark.parametrize("route", ["density", "trajectories"])
def test_every_public_firl_function_runs_on_the_main_thread(monkeypatch, route):
    # a tracer that wraps public functions keeps one call stack, so the
    # cloud's worker may run private code only
    mdp = build_gridworld(3, 3, horizon=4)
    if route == "density":
        expert, cfg = np.random.default_rng(29).dirichlet(np.full(9, 3.0)), _small_cfg()
    else:
        gt = np.zeros(9)
        gt[8] = 1.0
        sol = forward_marginals(mdp, soft_backward(mdp, gt, 0.5))
        expert = sample_trajectories(mdp, sol, 20, seed=1)
        cfg = _small_cfg(estimator="mixture", ratio_mode="discriminator",
                         batch_size=32)
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("firl.")]
    public = {id(fn): fn for m in modules for name, fn in vars(m).items()
              if isinstance(fn, types.FunctionType) and not name.startswith("_")
              and fn.__module__ == m.__name__}
    calls = []

    def record(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append((fn.__name__, threading.current_thread()))
            return fn(*args, **kwargs)
        return recorded

    wrapped = {key: record(fn) for key, fn in public.items()}
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in wrapped and value is public[id(value)]:
                monkeypatch.setattr(module, name, wrapped[id(value)])
    firl.trainer.run_firl(mdp, expert, cfg)
    assert {"run_firl", "knn_kl"} <= {name for name, _ in calls}
    off = [name for name, thread in calls if thread is not threading.main_thread()]
    assert off == []


def test_run_firl_builds_the_cloud_on_one_worker_thread(monkeypatch):
    # the cloud's self-query and probe query run off the main thread, on
    # one worker, and that worker has ended by the time run_firl returns
    before = threading.active_count()
    queried = []
    original = firl.kl_eval._kth_distance

    def recorded(*args, **kwargs):
        queried.append(threading.current_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(firl.kl_eval, "_kth_distance", recorded)
    mdp = build_gridworld(3, 3, horizon=4)
    expert = np.random.default_rng(26).dirichlet(np.full(9, 3.0))
    run_firl(mdp, expert, _small_cfg())
    # the first call is check_expert_fit's cell-overlap check, on the caller
    main, first, second = queried
    assert main is threading.main_thread()
    assert first is second and first is not threading.main_thread()
    assert threading.active_count() == before


@pytest.mark.parametrize("expert_kind", ["density", "demos"])
def test_the_knn_probes_meet_the_byte_cap_before_training(monkeypatch, expert_kind):
    # 3 x 3: the probes are at most min(400 S, 2 n + 32 S) rows of 2 floats,
    # min(3600, 20288) for the 10,000 visits drawn from a density and
    # min(3600, 336) for 8 demos of 3 visits
    mdp = build_gridworld(3, 3, horizon=3)
    if expert_kind == "density":
        expert, cfg, rows = np.full(9, 1 / 9), _small_cfg(), 3600
    else:
        sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(9), 1.0))
        expert = sample_trajectories(mdp, sol, 8, seed=3)
        cfg, rows = _small_cfg(estimator="mixture", ratio_mode="discriminator"), 336
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 16 * rows - 1)
    with pytest.raises(ValueError, match=r"kNN probe points \(m, 2\) = \(%d, 2\)"
                       % rows):
        check_expert_fit(mdp, expert, cfg)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 16 * rows)
    check_expert_fit(mdp, expert, cfg)


def test_the_batch_meets_the_byte_cap_before_training(monkeypatch):
    # 3 x 3, T = 3, batch 1,024: mc's uniforms are (7, 1024), 57,344 bytes,
    # and its visit counts (1024, 9), 73,728 bytes, both past the kNN
    # probes' bound of (2 * 24 + 32 * 9, 2), 5,376 bytes; mixture draws
    # no batch, so batch_size allocates nothing there
    mdp = build_gridworld(3, 3, horizon=3)
    sol = forward_marginals(mdp, soft_backward(mdp, np.zeros(9), 1.0))
    expert = sample_trajectories(mdp, sol, 8, seed=3)
    mc = _small_cfg(estimator="mc", ratio_mode="discriminator", batch_size=1024)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 73727)
    with pytest.raises(ValueError, match=r"visit counts \(n, S\) = \(1024, 9\)"):
        check_expert_fit(mdp, expert, mc)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 73728)
    check_expert_fit(mdp, expert, mc)
    monkeypatch.setattr(firl.mdp, "TABLE_BYTES_CAP", 57343)
    with pytest.raises(ValueError, match=r"rollout uniforms \(2T\+1, n\)"):
        check_expert_fit(mdp, expert, mc)
    check_expert_fit(mdp, expert, _small_cfg(estimator="mixture",
                                             ratio_mode="discriminator",
                                             batch_size=1024))
