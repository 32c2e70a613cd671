"""Parameterized state rewards r_theta(s) and their parameter gradients.

Two kinds: a tabular value per state, and a small two-hidden-layer tanh
network on per-state features. Gradients leave as vector-Jacobian
products (reward_vjp): the identity for a tabular reward, one
hand-derived backward pass for the network. tanh keeps the
finite-difference checks valid everywhere, which piecewise-linear
activations would not.
"""

import numpy as np


class RewardModel:
    """kind 'tabular' | 'mlp'; params is the flat theta vector.

    The mlp kind evaluates on a fixed per-state feature matrix.
    """

    def __init__(self, kind, params, features=None, hidden=None):
        if kind not in ("tabular", "mlp"):
            raise ValueError("unknown reward kind %r" % (kind,))
        self.kind = kind
        self.params = np.asarray(params, dtype=float).copy()
        if self.params.ndim != 1 or not np.isfinite(self.params).all():
            raise ValueError("params must be a finite flat vector")
        self.features = None if features is None else np.asarray(features, dtype=float)
        if kind == "mlp" and self.features is None:
            raise ValueError("mlp rewards need a feature matrix")
        self.hidden = None if hidden is None else tuple(int(h) for h in hidden)
        if kind == "mlp":
            if self.hidden is None or len(self.hidden) != 2:
                raise ValueError("mlp rewards use exactly two hidden layers")
            expected = _mlp_param_count(self.features.shape[1], self.hidden)
            if len(self.params) != expected:
                raise ValueError("mlp with features %d and hidden %r needs %d params, got %d"
                                 % (self.features.shape[1], self.hidden, expected,
                                    len(self.params)))

    @property
    def n_params(self):
        return len(self.params)


def _mlp_param_count(n_features, hidden):
    h1, h2 = hidden
    return n_features * h1 + h1 + h1 * h2 + h2 + h2 + 1


def default_features(mdp):
    """Per-state (x, y, 1) with coordinates scaled into [0, 1]."""
    xy = mdp.coords.copy()
    lo = xy.min(axis=0)
    span = xy.max(axis=0) - lo
    span[span == 0] = 1.0
    xy = (xy - lo) / span
    return np.column_stack([xy, np.ones(len(xy))])


def tabular_reward(n_states):
    """One parameter per state, initialized to zero."""
    return RewardModel("tabular", np.zeros(n_states))


def mlp_reward(features, hidden=(64, 64), seed=0):
    """Two tanh hidden layers on the feature matrix.

    Weights start symmetric uniform scaled by 1/sqrt(fan_in) from the
    given seed; biases start at zero.
    """
    features = np.asarray(features, dtype=float)
    rng = np.random.default_rng(seed)
    f = features.shape[1]
    h1, h2 = hidden
    parts = []
    for fan_in, fan_out in ((f, h1), (h1, h2), (h2, 1)):
        parts.append(rng.uniform(-1.0, 1.0, size=fan_in * fan_out) / np.sqrt(fan_in))
        parts.append(np.zeros(fan_out))
    return RewardModel("mlp", np.concatenate(parts), features, hidden=hidden)


def _mlp_unpack(model):
    f = model.features.shape[1]
    h1, h2 = model.hidden
    p = model.params
    i = 0
    w1 = p[i:i + f * h1].reshape(f, h1); i += f * h1
    b1 = p[i:i + h1]; i += h1
    w2 = p[i:i + h1 * h2].reshape(h1, h2); i += h1 * h2
    b2 = p[i:i + h2]; i += h2
    w3 = p[i:i + h2]; i += h2
    b3 = p[i]
    return w1, b1, w2, b2, w3, b3


def _mlp_forward(model):
    w1, b1, w2, b2, w3, b3 = _mlp_unpack(model)
    a1 = np.tanh(model.features @ w1 + b1)
    a2 = np.tanh(a1 @ w2 + b2)
    return a1, a2, a2 @ w3 + b3


def reward_vector(model):
    """r_theta at every state; a plain per-state vector passes through
    as floats."""
    if not isinstance(model, RewardModel):
        return np.asarray(model, dtype=float)
    if model.kind == "tabular":
        return model.params.copy()
    return _mlp_forward(model)[2]


def reward_vjp(model, x):
    """x @ d r_theta / d theta for an (S,) cotangent x, by
    backpropagation through the net: no (S, n_params) table forms. A
    tabular reward's derivative is the identity, so x comes back as
    floats."""
    x = np.asarray(x, dtype=float)
    if model.kind == "tabular":
        return x
    _, _, w2, _, w3, _ = _mlp_unpack(model)
    a1, a2, _ = _mlp_forward(model)
    d2 = x[:, None] * (1.0 - a2 * a2) * w3   # (S, h2)
    d1 = (d2 @ w2.T) * (1.0 - a1 * a1)       # (S, h1)
    return np.concatenate([(model.features.T @ d1).ravel(), d1.sum(axis=0),
                           (a1.T @ d2).ravel(), d2.sum(axis=0),
                           x @ a2, [x.sum()]])


def apply_update(model, delta):
    """New model with params + delta; the input model is untouched."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != model.params.shape:
        raise ValueError("delta has length %d, params have %d"
                         % (len(delta), len(model.params)))
    return RewardModel(model.kind, model.params + delta, model.features,
                       hidden=model.hidden)


def reward_to_dict(model):
    """JSON-ready description: kind, params, features, hidden."""
    return {
        "kind": model.kind,
        "params": model.params.tolist(),
        "hidden": list(model.hidden) if model.hidden is not None else None,
        "features": model.features.tolist() if model.features is not None else None,
    }


def reward_from_dict(d):
    """Inverse of reward_to_dict. Rewards have no output clamp: older
    files carry "clamp": null and load, and one that sets a clamp is
    refused, because loading it unclamped would change the reward."""
    if d.get("clamp") is not None:
        raise ValueError("rewards have no output clamp, but the file sets "
                         "clamp %r" % (d["clamp"],))
    hidden = tuple(d["hidden"]) if d.get("hidden") else None
    return RewardModel(d["kind"], np.asarray(d["params"], dtype=float),
                       features=d.get("features"), hidden=hidden)
