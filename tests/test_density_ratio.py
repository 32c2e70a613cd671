"""The discriminator's ratio estimate and the state sampler."""

import numpy as np
import pytest

from firl.density_ratio import (LOGIT_CLIP, discriminator_fit, sample_states,
                                state_frequencies)


def _fit(expert_states, agent_states, n_states):
    # the fit on sampled agent states: their frequencies are its agent side
    return discriminator_fit(expert_states,
                             state_frequencies(agent_states, n_states))


def test_discriminator_reaches_the_frequency_optimum():
    # state 0: expert mass 0.6, agent mass 0.2, optimum D = 0.75
    expert = np.array([0] * 6 + [1] * 4)
    agent = np.array([0] * 2 + [1] * 8)
    z = _fit(expert, agent, n_states=2)
    d = 1.0 / (1.0 + np.exp(-z))
    assert d[0] == pytest.approx(0.75, abs=1e-3)
    assert d[1] == pytest.approx(1.0 / 3.0, abs=1e-3)
    # a random count table with both sides on every state: the optimum
    # holds to rounding, not to an iteration tolerance
    rng = np.random.default_rng(6)
    counts_e, counts_a = rng.integers(1, 40, size=(2, 24))
    z = _fit(np.repeat(np.arange(24), counts_e),
             np.repeat(np.arange(24), counts_a), n_states=24)
    c_e = counts_e / counts_e.sum()
    c_a = counts_a / counts_a.sum()
    d = 1.0 / (1.0 + np.exp(-z))
    assert np.max(np.abs(d - c_e / (c_e + c_a))) < 1e-12


def test_discriminator_on_identical_sides_gives_unit_ratio():
    states = np.array([0, 1, 2, 0, 1, 2, 2])
    z = _fit(states, states.copy(), n_states=3)
    assert np.allclose(np.exp(z), 1.0, atol=1e-3)


def test_discriminator_saturates_on_disjoint_support():
    z = _fit(np.zeros(5, dtype=int), np.ones(5, dtype=int), n_states=2)
    assert z[0] == pytest.approx(LOGIT_CLIP)
    assert z[1] == pytest.approx(-LOGIT_CLIP)
    ratios = np.exp(z)[[0, 1]]
    assert ratios[0] == pytest.approx(np.exp(LOGIT_CLIP))
    assert ratios[1] == pytest.approx(np.exp(-LOGIT_CLIP))
    # a rare agent state the expert never visits (11 of 5,120 agent
    # visits) sits exactly on the box, not short of it
    agent = np.array([0] * 11 + [1] * 5109)
    rare = _fit(np.ones(320, dtype=int), agent, n_states=2)
    assert rare[0] == -LOGIT_CLIP


def test_discriminator_needs_both_sides():
    with pytest.raises(ValueError, match="at least one state visit"):
        discriminator_fit(np.array([], dtype=int), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="at least one state visit"):
        state_frequencies(np.array([], dtype=int), 2)


def test_sample_states_follows_the_weights():
    rng = np.random.default_rng(5)
    draws = sample_states([0.0, 1.0, 3.0], 20_000, rng)
    freq = np.bincount(draws, minlength=3) / 20_000
    assert freq[0] == 0.0
    assert freq[2] == pytest.approx(0.75, abs=0.02)
    with pytest.raises(ValueError, match="positive mass"):
        sample_states([0.0, 0.0], 5, rng)


def _errstate_logits(expert_states, agent_states, n_states):
    # the closed form as first written: log differences with the divide
    # and invalid warnings silenced, then 0 where neither side visits
    c_e = np.bincount(expert_states, minlength=n_states) / expert_states.size
    c_a = np.bincount(agent_states, minlength=n_states) / agent_states.size
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.log(c_e) - np.log(c_a)
    z = np.where((c_e > 0) | (c_a > 0), z, 0.0)
    return np.clip(z, -LOGIT_CLIP, LOGIT_CLIP)


def test_discriminator_logits_are_bit_for_bit_the_errstate_log_difference():
    rng = np.random.default_rng(12)
    for trial in range(200):
        n_states = int(rng.integers(4, 40))
        # 0: expert only, 1: agent only, 2: both, 3: neither
        role = rng.permutation(np.resize(np.arange(4), n_states))
        sides = []
        for own in (0, 1):
            pool = np.nonzero((role == own) | (role == 2))[0]
            # every pool state once, then a skewed tail, so some log
            # differences fall outside the box and some inside
            weights = rng.random(len(pool)) ** 8
            tail = rng.choice(pool, size=int(rng.integers(0, 60_000)),
                              p=weights / weights.sum())
            sides.append(rng.permutation(np.concatenate([pool, tail])))
        expert, agent = sides
        z = _fit(expert, agent, n_states)
        assert np.array_equal(z, _errstate_logits(expert, agent, n_states))
        assert (z[role == 0] == LOGIT_CLIP).all()
        assert (z[role == 1] == -LOGIT_CLIP).all()
        assert (z[role == 3] == 0.0).all()


def _states_fit_logits(expert_states, agent_states, n_states):
    # the fit as it read the agent side as sampled states, floored at tiny
    tiny = np.finfo(float).tiny
    c_e = np.bincount(expert_states, minlength=n_states) / expert_states.size
    c_a = np.bincount(agent_states, minlength=n_states) / agent_states.size
    z = np.log(np.maximum(c_e, tiny)) - np.log(np.maximum(c_a, tiny))
    return z.clip(-LOGIT_CLIP, LOGIT_CLIP)


def test_the_fit_on_sampled_frequencies_is_the_fit_on_the_states():
    rng = np.random.default_rng(13)
    for trial in range(50):
        n_states = int(rng.integers(2, 30))
        expert = rng.integers(0, n_states, size=int(rng.integers(1, 500)))
        # the agent skips the upper states, so some logits hit the box
        agent = rng.integers(0, n_states // 2 + 1, size=int(rng.integers(1, 5000)))
        z = discriminator_fit(expert, state_frequencies(agent, n_states))
        assert np.array_equal(z, _states_fit_logits(expert, agent, n_states))
