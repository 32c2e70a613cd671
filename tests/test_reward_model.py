"""Reward parameterizations and their exact parameter jacobians."""

import numpy as np
import pytest

from firl.mdp import build_gridworld
from firl.reward_model import (RewardModel, apply_update, default_features,
                               mlp_reward, reward_from_dict, reward_jacobian,
                               reward_to_dict, reward_vector, tabular_reward)


def _fd_jacobian(model, eps=1e-6):
    jac = np.zeros((len(reward_vector(model)), model.n_params))
    for i in range(model.n_params):
        step = np.zeros(model.n_params)
        step[i] = eps
        up = reward_vector(apply_update(model, step))
        dn = reward_vector(apply_update(model, -step))
        jac[:, i] = (up - dn) / (2 * eps)
    return jac


def _grid_features():
    return default_features(build_gridworld(4, 3, horizon=2))


def test_tabular_jacobian_is_identity():
    model = tabular_reward(5)
    assert np.array_equal(reward_jacobian(model), np.eye(5))


def test_mlp_jacobian_matches_finite_differences():
    model = mlp_reward(_grid_features(), hidden=(5, 4), seed=3)
    model = apply_update(model, np.random.default_rng(0).normal(0, 0.4,
                                                                model.n_params))
    jac = reward_jacobian(model)
    fd = _fd_jacobian(model)
    denom = max(np.abs(fd).max(), 1e-12)
    assert np.abs(jac - fd).max() / denom < 1e-5


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


def test_clamp_clips_output_and_zeroes_gradient():
    model = tabular_reward(3, clamp=(-1.0, 1.0))
    model = apply_update(model, np.array([0.5, 2.0, -3.0]))
    assert np.array_equal(reward_vector(model), [0.5, 1.0, -1.0])
    jac = reward_jacobian(model)
    assert np.array_equal(jac[0], [1.0, 0.0, 0.0])
    assert np.array_equal(jac[1], np.zeros(3))
    assert np.array_equal(jac[2], np.zeros(3))


def test_clamp_boundary_keeps_gradient():
    # exactly on the clamp edge is not saturated
    model = tabular_reward(1, clamp=(-1.0, 1.0))
    model = apply_update(model, np.array([1.0]))
    assert reward_jacobian(model)[0, 0] == 1.0


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
    lambda: tabular_reward(4, clamp=(-2.0, 2.0)),
    lambda: mlp_reward(_grid_features(), hidden=(4, 3), seed=1, clamp=(-0.5, 0.5)),
    lambda: mlp_reward(_grid_features(), hidden=(3, 2), seed=5),
])
def test_serialization_round_trip(make):
    model = make()
    model = apply_update(model, np.random.default_rng(2).normal(
        0, 0.3, model.n_params))
    back = reward_from_dict(reward_to_dict(model))
    assert back.kind == model.kind
    assert back.clamp == model.clamp
    assert back.hidden == model.hidden
    assert np.array_equal(back.params, model.params)
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
    with pytest.raises(ValueError, match="lo < hi"):
        tabular_reward(2, clamp=(1.0, 1.0))
    with pytest.raises(ValueError, match="needs 13 params"):
        RewardModel("mlp", np.zeros(5), features=np.ones((3, 1)), hidden=(2, 2))
    with pytest.raises(ValueError, match="two hidden layers"):
        RewardModel("mlp", np.zeros(5), features=np.ones((3, 1)), hidden=(2,))
