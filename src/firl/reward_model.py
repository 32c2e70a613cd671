"""Parameterized state rewards r_theta(s) with exact parameter gradients.

Two kinds: a tabular value per state, and a small two-hidden-layer tanh
network on per-state features with hand-derived backpropagation. tanh
keeps the finite-difference checks valid everywhere, which
piecewise-linear activations would not.
"""

import numpy as np


class RewardModel:
    """kind 'tabular' | 'mlp'; params is the flat theta vector.

    The mlp kind evaluates on a fixed per-state feature matrix.
    clamp, when set to (lo, hi), hard-clips the output and zeroes the
    gradient wherever the raw output saturates.
    """

    def __init__(self, kind, params, features=None, clamp=None, hidden=None):
        if kind not in ("tabular", "mlp"):
            raise ValueError("unknown reward kind %r" % (kind,))
        self.kind = kind
        self.params = np.asarray(params, dtype=float).copy()
        if self.params.ndim != 1 or not np.all(np.isfinite(self.params)):
            raise ValueError("params must be a finite flat vector")
        self.features = None if features is None else np.asarray(features, dtype=float)
        if kind == "mlp" and self.features is None:
            raise ValueError("mlp rewards need a feature matrix")
        if clamp is not None:
            lo, hi = float(clamp[0]), float(clamp[1])
            if not lo < hi:
                raise ValueError("clamp range must satisfy lo < hi")
            clamp = (lo, hi)
        self.clamp = clamp
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


def tabular_reward(n_states, clamp=None):
    """One parameter per state, initialized to zero."""
    return RewardModel("tabular", np.zeros(n_states), clamp=clamp)


def mlp_reward(features, hidden=(64, 64), seed=0, clamp=None):
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
    return RewardModel("mlp", np.concatenate(parts), features, clamp=clamp, hidden=hidden)


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


def _raw_reward(model):
    if model.kind == "tabular":
        return model.params.copy()
    return _mlp_forward(model)[2]


def reward_vector(model):
    """r_theta at every state, clamped if configured; a plain per-state
    vector passes through as floats."""
    if not isinstance(model, RewardModel):
        return np.asarray(model, dtype=float)
    raw = _raw_reward(model)
    if model.clamp is not None:
        raw = np.clip(raw, model.clamp[0], model.clamp[1])
    return raw


def reward_jacobian(model):
    """d r_theta(s) / d theta for every state, shape (S, n_params).

    Rows are zeroed where a configured clamp saturates.
    """
    if model.kind == "tabular":
        jac = np.eye(len(model.params))
    else:
        x = model.features
        w1, b1, w2, b2, w3, b3 = _mlp_unpack(model)
        a1, a2, _ = _mlp_forward(model)
        d2 = (1.0 - a2 * a2) * w3            # (S, h2)
        d1 = (d2 @ w2.T) * (1.0 - a1 * a1)   # (S, h1)
        s = x.shape[0]
        jac = np.concatenate([
            np.einsum("sf,sh->sfh", x, d1).reshape(s, -1),
            d1,
            np.einsum("sg,sh->sgh", a1, d2).reshape(s, -1),
            d2,
            a2,
            np.ones((s, 1)),
        ], axis=1)
    if model.clamp is not None:
        raw = _raw_reward(model)
        saturated = (raw < model.clamp[0]) | (raw > model.clamp[1])
        jac = jac.copy()
        jac[saturated] = 0.0
    return jac


def apply_update(model, delta):
    """New model with params + delta; the input model is untouched."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != model.params.shape:
        raise ValueError("delta has length %d, params have %d"
                         % (len(delta), len(model.params)))
    return RewardModel(model.kind, model.params + delta, model.features,
                       clamp=model.clamp, hidden=model.hidden)


def reward_to_dict(model):
    """JSON-ready description: kind, params, features, clamp, hidden."""
    return {
        "kind": model.kind,
        "params": model.params.tolist(),
        "clamp": list(model.clamp) if model.clamp is not None else None,
        "hidden": list(model.hidden) if model.hidden is not None else None,
        "features": model.features.tolist() if model.features is not None else None,
    }


def reward_from_dict(d):
    clamp = tuple(d["clamp"]) if d.get("clamp") else None
    hidden = tuple(d["hidden"]) if d.get("hidden") else None
    return RewardModel(d["kind"], np.asarray(d["params"], dtype=float),
                       features=d.get("features"), clamp=clamp, hidden=hidden)
