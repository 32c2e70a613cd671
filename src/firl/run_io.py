"""Run artifacts: JSON configs checked key by key against CONFIG_KEYS,
deterministic output directories, and CSV/JSON emission with
round-trip-exact floats.

An unknown key, a key repeated within one object and a non-finite
number are refused, integers are strict, and each refusal names its
key. The train block's types come from TrainConfig's fields;
TrainConfig.validate and the scenario builders own the bounds the table
leaves out.

write_csv owns the CSV format: a header row, a fixed column order, %d
integers, and floats with 17 significant digits so a re-read recovers
the exact double. One run owns one directory; the manifest is written
atomically at the end, lists every file the directory holds, and is
enough to reproduce the run.
"""

import json
import math
import os
import time
from dataclasses import fields

import numpy as np

from .reward_model import reward_from_dict, reward_to_dict, reward_vector
from .trainer import METRIC_COLUMNS, TrainConfig

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Bad config file or bad usage; maps to exit code 1."""


def fmt_float(x):
    x = float(x)
    if x != x:
        return "nan"
    return "%.17g" % x


def write_csv(path, columns, rows):
    """Header, then one newline-terminated line per dict in rows, in column
    order: integers as %d, strings as they are, others through fmt_float."""
    lines = [",".join(columns)]
    lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _cell(x):
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    return x if isinstance(x, str) else fmt_float(x)


def write_metrics_csv(path, metrics):
    """Learning-curve rows in METRIC_COLUMNS order."""
    return write_csv(path, METRIC_COLUMNS, metrics)


def emit_heatmap(model, mdp, path):
    """Per-state reward table as CSV (state, x, y, reward_value),
    ascending state order, byte-deterministic for fixed inputs."""
    vals = reward_vector(model)
    if vals.shape != (mdp.n_states,):
        raise ValueError("reward covers %d states, mdp has %d"
                         % (vals.size, mdp.n_states))
    cols = ("state", "x", "y", "reward_value")
    rows = enumerate(zip(mdp.coords[:, 0], mdp.coords[:, 1], vals))
    return write_csv(path, cols, [dict(zip(cols, (s,) + r)) for s, r in rows])


def write_reward_json(path, model):
    return write_json(path, reward_to_dict(model))


def read_reward_json(path):
    """Stored reward model; ConfigError naming the file if it is malformed."""
    try:
        with open(path) as fh:
            return reward_from_dict(json.load(fh))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError("reward file %s is malformed: %s: %s"
                          % (path, type(exc).__name__, exc))


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    return path


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError("cannot serialize %r" % type(obj))


def _number(x):
    return type(x) in (int, float)


def _numbers(x):
    return type(x) is list and all(map(_number, x))


def _int_from(low):
    return ("an integer >= %d" % low, lambda x: type(x) is int and x >= low)


# Each check is (meaning, predicate). Integers are strict: 2.0 and true
# are refused, as range() and numpy seeding would.
_INTEGER = ("an integer", lambda x: type(x) is int)
_NUMBER = ("a number", _number)
_POSITIVE = ("a number > 0", lambda x: _number(x) and x > 0)
_STRING = ("a string", lambda x: type(x) is str)
_OBJECT = ("an object", lambda x: type(x) is dict)
_GRID = ("two integers", lambda x: type(x) is list and len(x) == 2
         and all(type(v) is int for v in x))
# the top level owns the seed a nested scenario trains with
_SCENARIO = ("an object without seed or schema_version",
             lambda x: type(x) is dict and not {"seed", "schema_version"} & x.keys())

# Types only: TrainConfig.validate owns every bound and choice list.
_TRAIN_KEYS = {f.name: {int: _INTEGER, float: _NUMBER, str: _STRING}[f.type]
               for f in fields(TrainConfig) if f.name != "seed"}

_COMMON_KEYS = {
    "schema_version": ("%d" % SCHEMA_VERSION,
                       lambda x: type(x) is int and x == SCHEMA_VERSION),
    "seed": _int_from(0),
    # the run directory is <out root>/<name>/<stamp>; a name stays inside the root
    "name": ("a directory name other than '.' or '..', without '/' or NUL",
             lambda x: type(x) is str and x not in ("", ".", "..")
             and not {"/", os.sep, "\0"} & set(x)),
    "type": _STRING,
}

# config type -> (required keys, {key: check}). Bounds the library owns
# before the run directory exists: density_matching (shape),
# build_gridworld and mdp.validate (grid, horizon >= 1),
# irl_from_trajectories (pool_size) and modify_dynamics (slip_override).
CONFIG_KEYS = {
    "density_matching": (("shape",), {
        "shape": _STRING, "grid": _GRID, "horizon": _INTEGER,
        "sigma": _POSITIVE, "train": _OBJECT}),
    "irl_from_trajectories": (("n_expert_traj", "gt_reward"), {
        "n_expert_traj": _int_from(1), "grid": _GRID, "horizon": _INTEGER,
        "expert_alpha": _POSITIVE, "pool_size": _INTEGER,
        "gt_reward": ("an array of numbers, or an object whose values are numbers",
                      lambda x: _numbers(list(x.values()) if type(x) is dict else x)),
        "train": _OBJECT}),
    "prior_downstream": ((), {
        "prior_file": _STRING, "prior": ("an array of numbers", _numbers),
        # lambda = 0 is the unshaped control each cell is scored against
        "lambda_grid": ("an array of numbers that contains 0",
                        lambda x: _numbers(x) and 0 in x),
        "alpha_grid": ("a non-empty array of numbers > 0",
                       lambda x: _numbers(x) and len(x) > 0 and min(x) > 0),
        "horizon": _int_from(1),
        "gamma": ("a number in (0, 1]", lambda x: _number(x) and 0 < x <= 1)}),
    "transfer": (("scenario",), {
        "scenario": _SCENARIO, "slip_override": _NUMBER,
        "action_remap": _OBJECT, "alpha": _POSITIVE}),
    "eval": (("reward_file", "scenario"), {
        "reward_file": _STRING, "scenario": _SCENARIO}),
}


def load_config(path):
    """Read and check a run config; ConfigError on any problem."""
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_checked_pairs)
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    validate_config(cfg)
    return cfg


def _checked_pairs(pairs):
    """json.load's object hook. json keeps the last of a repeated key and
    reads NaN, Infinity and 1e400 as floats, which a "number" check
    admits; refuse both by key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError("config rejected: '%s' appears twice in one object"
                              % key)
        for x in value if isinstance(value, list) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError("%s must be finite, got %r" % (key, x))
        out[key] = value
    return out


def _check_keys(block, required, keys, where):
    """ConfigError naming the first key of block that is missing, then
    the first that keys does not name, then the first that fails its
    (meaning, predicate) check."""
    for key in required:
        if key not in block:
            raise ConfigError("config rejected: %s needs '%s'" % (where, key))
    for key in block:
        if key not in keys:
            raise ConfigError("config rejected: '%s' was unexpected in %s, which "
                              "takes %s" % (key, where, ", ".join(sorted(keys))))
    for key, value in block.items():
        meaning, check = keys[key]
        if not check(value):
            raise ConfigError("config rejected: %s in %s must be %s, got %r"
                              % (key, where, meaning, value))


def validate_config(cfg):
    """The key tables first, then TrainConfig.validate on the train block."""
    kind = cfg.get("type") if type(cfg) is dict else None
    if type(kind) is not str or kind not in CONFIG_KEYS:
        raise ConfigError("config rejected: a config is an object whose 'type' is "
                          "one of %s, got %r" % (", ".join(CONFIG_KEYS), kind))
    required, keys = CONFIG_KEYS[kind]
    _check_keys(cfg, ("schema_version", "seed") + required,
                dict(_COMMON_KEYS, **keys), "the %s config" % kind)
    _check_keys(cfg.get("train", {}), (), _TRAIN_KEYS, "the train block")
    try:
        TrainConfig(seed=cfg["seed"], **cfg.get("train", {})).validate()
    except ValueError as exc:
        raise ConfigError("config rejected: %s" % exc)
    return cfg


def default_out_root():
    return os.environ.get("FIRL_OUT_ROOT", "runs")


def make_run_dir(name, out_root=None):
    """runs/<name>/<utc timestamp>/, suffixed on collision."""
    root = out_root or default_out_root()
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    base = os.path.join(root, name, stamp)
    path = base
    n = 1
    while True:
        try:
            os.makedirs(path)
            return path
        except FileExistsError:
            path = "%s-%d" % (base, n)
            n += 1


def write_manifest(run_dir, config, started, ended, error=None):
    """Atomic manifest: config snapshot + seed + version + the files run_dir
    holds, and status "ok", or "failed" with the message error gives."""
    from . import __version__
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "seed": config["seed"],
        "version": __version__,
        "started": started,
        "ended": ended,
        "outputs": sorted(set(os.listdir(run_dir)) - {"manifest.json"}),
        "status": "ok" if error is None else "failed",
    }
    if error is not None:
        payload["error"] = error
    path = os.path.join(run_dir, "manifest.json")
    os.replace(write_json(path + ".tmp", payload), path)
    return path


def utc_now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
