"""Reward parameterizations and their vector-Jacobian products."""

import tracemalloc

import numpy as np
import pytest

from firl.mdp import build_gridworld
from firl.reward_model import (RewardModel, apply_update, default_features,
                               mlp_reward, reward_from_dict, reward_to_dict,
                               reward_vector, reward_vjp, tabular_reward)


def _fd_vjp(model, x, eps=1e-6):
    # central difference of x . r_theta along each parameter
    grad = np.zeros(model.n_params)
    for i in range(model.n_params):
        step = np.zeros(model.n_params)
        step[i] = eps
        up = reward_vector(apply_update(model, step))
        dn = reward_vector(apply_update(model, -step))
        grad[i] = x @ (up - dn) / (2 * eps)
    return grad


def _grid_features():
    return default_features(build_gridworld(4, 3, horizon=2))


def _perturbed(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "tabular":
        model = tabular_reward(12)
    else:
        model = mlp_reward(_grid_features(), hidden=(5, 4), seed=seed)
    return apply_update(model, rng.normal(0, 0.4, model.n_params))


def test_tabular_vjp_returns_the_cotangent_as_floats():
    # the identity derivative, exactly: no (S, S) table, integer counts in
    x = np.array([0, 3, 1, 2, 5])
    got = reward_vjp(tabular_reward(5), x)
    assert got.dtype == float
    assert np.array_equal(got, x)


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_vjp_matches_a_central_difference(kind):
    rng = np.random.default_rng(1)
    model = _perturbed(kind, seed=2)
    for x in (rng.normal(size=12), rng.integers(0, 5, size=12)):
        got = reward_vjp(model, x)
        fd = _fd_vjp(model, x)
        assert got.dtype == float and got.shape == (model.n_params,)
        assert np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-7


def test_mlp_vjp_of_a_unit_cotangent_is_one_state_gradient():
    # each e_s picks one row of the derivative: the gradient of r_theta(s)
    model = _perturbed("mlp", seed=3)
    for s in range(12):
        x = np.zeros(12)
        x[s] = 1.0
        fd = _fd_vjp(model, x)
        assert np.abs(reward_vjp(model, x) - fd).max() / np.abs(fd).max() < 1e-7


def test_mlp_vjp_never_forms_the_dense_derivative():
    # a default (64, 64) net on a 30 x 30 grid has 4,481 params: the
    # (S, n_params) table alone would take 31 MB, the backward pass a
    # few (S, 64) activations
    model = mlp_reward(default_features(build_gridworld(30, 30, horizon=2)))
    x = np.random.default_rng(4).normal(size=900)
    tracemalloc.start()
    try:
        reward_vjp(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_mlp_default_hidden_is_64_64():
    model = mlp_reward(_grid_features())
    assert model.hidden == (64, 64)
    f = _grid_features().shape[1]
    assert model.n_params == f * 64 + 64 + 64 * 64 + 64 + 64 + 1


def test_mlp_initial_biases_are_zero_and_output_small():
    feats = _grid_features()
    model = mlp_reward(feats, hidden=(4, 4), seed=1)
    # fresh weights are bounded by 1/sqrt(fan_in), biases are zero
    f = feats.shape[1]
    w1 = model.params[:f * 4]
    b1 = model.params[f * 4:f * 4 + 4]
    assert np.all(np.abs(w1) <= 1.0 / np.sqrt(f))
    assert np.array_equal(b1, np.zeros(4))


def test_mlp_seed_determinism():
    feats = _grid_features()
    a = mlp_reward(feats, hidden=(4, 4), seed=7)
    b = mlp_reward(feats, hidden=(4, 4), seed=7)
    c = mlp_reward(feats, hidden=(4, 4), seed=8)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


def test_default_features_are_normalized_with_bias():
    feats = _grid_features()
    assert feats.shape == (12, 3)
    assert feats[:, 0].min() == 0.0 and feats[:, 0].max() == 1.0
    assert feats[:, 1].min() == 0.0 and feats[:, 1].max() == 1.0
    assert np.array_equal(feats[:, 2], np.ones(12))


def test_apply_update_is_pure_and_shape_checked():
    model = tabular_reward(3)
    out = apply_update(model, np.ones(3))
    assert np.array_equal(model.params, np.zeros(3))
    assert np.array_equal(out.params, np.ones(3))
    with pytest.raises(ValueError, match="delta has length"):
        apply_update(model, np.ones(4))


@pytest.mark.parametrize("make", [
    lambda: tabular_reward(4),
    lambda: mlp_reward(_grid_features(), hidden=(4, 3), seed=1),
    lambda: mlp_reward(_grid_features(), hidden=(3, 2), seed=5),
])
def test_serialization_round_trip(make):
    model = make()
    model = apply_update(model, np.random.default_rng(2).normal(
        0, 0.3, model.n_params))
    back = reward_from_dict(reward_to_dict(model))
    assert back.kind == model.kind
    assert back.hidden == model.hidden
    assert np.array_equal(back.params, model.params)
    assert np.array_equal(reward_vector(back), reward_vector(model))


def test_a_reward_dict_that_sets_a_clamp_is_refused():
    # rewards have no output clamp; loading this one unclamped would
    # silently change it
    d = reward_to_dict(tabular_reward(2))
    with pytest.raises(ValueError, match="no output clamp"):
        reward_from_dict(dict(d, clamp=[-1.0, 1.0]))


def test_a_reward_dict_with_a_null_clamp_loads():
    # older reward.json files carry "clamp": null
    model = apply_update(tabular_reward(3), np.array([0.5, -1.0, 2.0]))
    back = reward_from_dict(dict(reward_to_dict(model), clamp=None))
    assert np.array_equal(reward_vector(back), reward_vector(model))


def test_reward_vector_passes_a_plain_vector_through_as_floats():
    vec = reward_vector([0, 1, 2])
    assert vec.dtype == float
    assert np.array_equal(vec, [0.0, 1.0, 2.0])


def test_constructor_validation():
    with pytest.raises(ValueError, match="unknown reward kind"):
        RewardModel("rbf", np.zeros(2))
    with pytest.raises(ValueError, match="feature matrix"):
        RewardModel("mlp", np.zeros(2))
    with pytest.raises(ValueError, match="needs 13 params"):
        RewardModel("mlp", np.zeros(5), features=np.ones((3, 1)), hidden=(2, 2))
    with pytest.raises(ValueError, match="two hidden layers"):
        RewardModel("mlp", np.zeros(5), features=np.ones((3, 1)), hidden=(2,))
