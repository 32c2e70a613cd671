"""Ratio estimators: exact table, Epanechnikov KDE pair, discriminator."""

import numpy as np
import pytest

from firl.density_ratio import (LOGIT_CLIP, Discriminator, RatioEstimator,
                                discriminator_fit, discriminator_ratio,
                                exact_ratio, kde_density, kde_pair_ratio,
                                sample_states)
from firl.divergence import RATIO_CLIP_HI
from firl.mdp import build_gridworld


def test_exact_ratio_table():
    est = exact_ratio([0.5, 0.5], [0.25, 0.75])
    assert est.mode == "exact_table"
    assert est.ratios == pytest.approx([2.0, 2.0 / 3.0])
    assert est([1, 0, 0]) == pytest.approx([2.0 / 3.0, 2.0, 2.0])


def test_exact_ratio_clips_unvisited_states():
    est = exact_ratio([0.5, 0.5], [1.0, 0.0])
    assert est.ratios[1] == RATIO_CLIP_HI


def test_ratio_estimator_rejects_bad_tables():
    with pytest.raises(ValueError, match="positive and finite"):
        RatioEstimator("exact_table", [1.0, 0.0])
    with pytest.raises(ValueError, match="positive and finite"):
        RatioEstimator("exact_table", [1.0, np.inf])


def test_kde_density_of_a_point_cluster():
    # four stacked points: density at the stack is 0.75^2 / bw^2
    pts = np.zeros((4, 2))
    for bw in (0.5, 1.0, 2.0):
        val = kde_density(pts, bw, np.zeros((1, 2)))[0]
        assert val == pytest.approx(0.5625 / bw ** 2, abs=1e-12)


def test_kde_integrates_to_one():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(60, 2)) * 0.8
    bw = 0.4
    step = 0.05
    lo = pts.min(axis=0) - bw - step
    hi = pts.max(axis=0) + bw + step
    xs = np.arange(lo[0], hi[0], step)
    ys = np.arange(lo[1], hi[1], step)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    mass = kde_density(pts, bw, grid).sum() * step * step
    assert mass == pytest.approx(1.0, abs=0.02)


def test_kde_support_is_compact():
    pts = np.zeros((3, 2))
    far = np.array([[0.51, 0.0], [0.0, -0.51], [3.0, 3.0]])
    assert np.array_equal(kde_density(pts, 0.5, far), np.zeros(3))


def test_kde_density_is_consistent_across_batching():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, 2))
    queries = rng.normal(size=(25, 2))
    whole = kde_density(pts, 0.7, queries)
    singles = np.array([kde_density(pts, 0.7, q[None, :])[0] for q in queries])
    assert np.allclose(whole, singles, atol=1e-14)


def test_kde_argument_validation():
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        kde_density(np.zeros((4, 3)), 0.2, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="bandwidth"):
        kde_density(np.zeros((4, 2)), 0.0, np.zeros((1, 2)))


def test_kde_pair_ratio_shape_and_mode():
    mdp = build_gridworld(3, 3, horizon=4)
    rng = np.random.default_rng(2)
    est = kde_pair_ratio(mdp, rng.integers(0, 9, 300), rng.integers(0, 9, 300),
                         bandwidth=0.6, seed=3)
    assert est.mode == "kde_pair"
    assert est.ratios.shape == (9,)
    assert np.all(est.ratios > 0) and np.all(np.isfinite(est.ratios))


def test_kde_pair_ratio_tracks_the_sample_imbalance():
    mdp = build_gridworld(3, 1, horizon=2)
    expert = np.array([0] * 80 + [1] * 20)
    agent = np.array([0] * 20 + [1] * 80)
    est = kde_pair_ratio(mdp, expert, agent, bandwidth=0.5, seed=4)
    assert est.ratios[0] > 1.5
    assert est.ratios[1] < 0.7


def test_discriminator_reaches_the_frequency_optimum():
    # state 0: expert mass 0.6, agent mass 0.2, optimum D = 0.75
    expert = np.array([0] * 6 + [1] * 4)
    agent = np.array([0] * 2 + [1] * 8)
    disc = discriminator_fit(expert, agent, n_states=2)
    d = 1.0 / (1.0 + np.exp(-disc.state_logits()))
    assert d[0] == pytest.approx(0.75, abs=1e-3)
    assert d[1] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_discriminator_on_identical_sides_gives_unit_ratio():
    states = np.array([0, 1, 2, 0, 1, 2, 2])
    disc = discriminator_fit(states, states.copy(), n_states=3)
    est = discriminator_ratio(disc)
    assert est.mode == "discriminator"
    assert np.allclose(est.ratios, 1.0, atol=1e-3)


def test_discriminator_saturates_on_disjoint_support():
    disc = discriminator_fit(np.zeros(5, dtype=int), np.ones(5, dtype=int),
                             n_states=2)
    assert disc.weights[0] == pytest.approx(LOGIT_CLIP)
    assert disc.weights[1] == pytest.approx(-LOGIT_CLIP)
    ratios = discriminator_ratio(disc)([0, 1])
    assert ratios[0] == pytest.approx(np.exp(LOGIT_CLIP))
    assert ratios[1] == pytest.approx(np.exp(-LOGIT_CLIP))


def test_discriminator_needs_both_sides():
    with pytest.raises(ValueError, match="at least one state visit"):
        discriminator_fit(np.array([], dtype=int), np.array([0]), n_states=2)


def test_discriminator_ratio_inverts_the_logit():
    disc = Discriminator(np.array([np.log(3.0), 0.0]), np.eye(2))
    assert discriminator_ratio(disc)([0])[0] == pytest.approx(3.0)
    # D = 0.75 corresponds to logit log 3 and ratio D / (1 - D) = 3
    big = Discriminator(np.array([12.0]), np.eye(1))
    assert discriminator_ratio(big)([0])[0] == pytest.approx(np.exp(10.0))


def test_sample_states_follows_the_weights():
    rng = np.random.default_rng(5)
    draws = sample_states([0.0, 1.0, 3.0], 20_000, rng)
    freq = np.bincount(draws, minlength=3) / 20_000
    assert freq[0] == 0.0
    assert freq[2] == pytest.approx(0.75, abs=0.02)
    with pytest.raises(ValueError, match="positive mass"):
        sample_states([0.0, 0.0], 5, rng)
