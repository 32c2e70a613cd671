"""The density ratio of expert demonstrations: the closed-form optimum
of the one-hot logistic discriminator, returned as its (S,) logits
log c_E - log c_A, the state frequencies it is fitted on, and a
categorical state sampler. An unseen state's frequency reads as the
smallest normal float, whose log (-708) lies far below any seen
state's, so no infinity forms and the box takes a one-sided state to
+-LOGIT_CLIP. A known density needs no estimate: divergence.h_table
weighs its states directly.
"""

import numpy as np

LOGIT_CLIP = 10.0
_TINY = np.finfo(float).tiny


def state_frequencies(states, n_states):
    """Visit frequencies (n_states,) of a sample of state indices."""
    states = np.asarray(states, dtype=np.int64).ravel()
    if states.size == 0:
        raise ValueError("both sides need at least one state visit")
    return np.bincount(states, minlength=n_states) / states.size


def discriminator_fit(expert_states, agent_freq):
    """Closed-form logits (S,) of the optimal one-hot logistic classifier.

    The mean objective
        sum_s cE(s) log sigma(z_s) + cA(s) log(1 - sigma(z_s))
    over the expert's empirical state frequencies cE and the agent's
    frequencies cA (sampled, or the exact marginal) separates by state,
    so its maximizer is z_s = log cE(s) - log cA(s), i.e. sigma(z_s) =
    cE(s) / (cE(s) + cA(s)). Logits are boxed at +-LOGIT_CLIP, so a
    state seen by one side only saturates; one seen by neither gets 0.
    """
    c_a = np.asarray(agent_freq, dtype=float)
    c_e = state_frequencies(expert_states, len(c_a))
    z = np.log(np.maximum(c_e, _TINY)) - np.log(np.maximum(c_a, _TINY))
    return z.clip(-LOGIT_CLIP, LOGIT_CLIP)


def sample_states(weights, n, rng):
    """n categorical draws from an unnormalized weight vector."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not total > 0:
        raise ValueError("weights must have positive mass")
    return rng.choice(len(weights), size=n, p=weights / total)
