"""Run artifacts: schema-validated JSON configs, deterministic output
directories, and CSV/JSON emission with round-trip-exact floats.

All CSVs carry a header row and a fixed column order; floats are
written with 17 significant digits so a re-read recovers the exact
double. One run owns one directory; the manifest is written atomically
at the end and is enough to reproduce the run.
"""

import json
import math
import os
import time
from dataclasses import fields

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match, relevance

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


def write_lines(path, lines):
    """Newline-terminated text file from a list of lines."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_csv(path, metrics):
    """Learning-curve rows in METRIC_COLUMNS order."""
    lines = [",".join(METRIC_COLUMNS)]
    for row in metrics:
        cells = ["%d" % row["iteration"]]
        cells += [fmt_float(row[c]) for c in METRIC_COLUMNS[1:]]
        lines.append(",".join(cells))
    write_lines(path, lines)


def emit_heatmap(model, mdp, path):
    """Per-state reward table as CSV (state, x, y, reward_value),
    ascending state order, byte-deterministic for fixed inputs."""
    vals = reward_vector(model)
    if vals.shape != (mdp.n_states,):
        raise ValueError("reward covers %d states, mdp has %d"
                         % (vals.size, mdp.n_states))
    lines = ["state,x,y,reward_value"]
    for s in range(mdp.n_states):
        lines.append("%d,%s,%s,%s" % (s, fmt_float(mdp.coords[s, 0]),
                                      fmt_float(mdp.coords[s, 1]),
                                      fmt_float(vals[s])))
    write_lines(path, lines)
    return path


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


# Types only: TrainConfig.validate owns every bound and choice list.
_JSON_TYPES = {int: "integer", float: "number", str: "string"}
_TRAIN_BLOCK = {"type": "object", "additionalProperties": False,
                "properties": {f.name: {"type": _JSON_TYPES[f.type]}
                               for f in fields(TrainConfig) if f.name != "seed"}}

_GRID = {"type": "array", "items": {"type": "integer", "minimum": 1},
         "minItems": 2, "maxItems": 2}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "seed", "type"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "name": {"type": "string"},
        "type": {"enum": ["density_matching", "irl_from_trajectories",
                          "prior_downstream", "transfer", "eval"]},
    },
    # refuses keys no branch below declares, such as a misspelt "horizn"
    "unevaluatedProperties": False,
    "allOf": [
        {
            "if": {"properties": {"type": {"const": "density_matching"}}},
            "then": {
                "required": ["shape"],
                "properties": {
                    "shape": {"enum": ["gaussian", "mixture2", "uniform"]},
                    "grid": _GRID,
                    "horizon": {"type": "integer", "minimum": 1},
                    "sigma": {"type": "number", "exclusiveMinimum": 0},
                    "train": _TRAIN_BLOCK,
                },
            },
        },
        {
            "if": {"properties": {"type": {"const": "irl_from_trajectories"}}},
            "then": {
                "required": ["n_expert_traj", "gt_reward"],
                "properties": {
                    "n_expert_traj": {"type": "integer", "minimum": 1},
                    "grid": _GRID,
                    "horizon": {"type": "integer", "minimum": 1},
                    "expert_alpha": {"type": "number", "exclusiveMinimum": 0},
                    "pool_size": {"type": "integer", "minimum": 1},
                    "gt_reward": {"type": ["array", "object"]},
                    "train": _TRAIN_BLOCK,
                },
            },
        },
        {
            "if": {"properties": {"type": {"const": "prior_downstream"}}},
            "then": {
                "properties": {
                    "prior_file": {"type": "string"},
                    "prior": {"type": "array", "items": {"type": "number"}},
                    # lambda = 0 is the unshaped control each cell is scored against
                    "lambda_grid": {"type": "array", "items": {"type": "number"},
                                    "minItems": 1, "contains": {"const": 0}},
                    "alpha_grid": {"type": "array", "minItems": 1,
                                   "items": {"type": "number",
                                             "exclusiveMinimum": 0}},
                    "horizon": {"type": "integer", "minimum": 1},
                    "gamma": {"type": "number", "exclusiveMinimum": 0,
                              "maximum": 1},
                },
            },
        },
        {
            "if": {"properties": {"type": {"const": "transfer"}}},
            "then": {
                "required": ["scenario"],
                "properties": {
                    "scenario": {"type": "object"},
                    "slip_override": {"type": "number", "minimum": 0,
                                      "exclusiveMaximum": 1},
                    "action_remap": {"type": "object"},
                    "alpha": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        {
            "if": {"properties": {"type": {"const": "eval"}}},
            "then": {
                "required": ["reward_file", "scenario"],
                "properties": {
                    "reward_file": {"type": "string"},
                    "scenario": {"type": "object"},
                },
            },
        },
    ],
}


def load_config(path):
    """Read and schema-check a run config; ConfigError on any problem."""
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_finite_pairs)
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    validate_config(cfg)
    return cfg


def _finite_pairs(pairs):
    """json.load's object hook: json reads NaN, Infinity and 1e400 as
    floats, which the schema's "number" admits; refuse them by key."""
    for key, value in pairs:
        for x in value if isinstance(value, list) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError("%s must be finite, got %r" % (key, x))
    return dict(pairs)


# jsonschema counts 2.0 as an integer; range() and numpy seeding do not.
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: type(x) is int))(CONFIG_SCHEMA)


def validate_config(cfg):
    """Schema first, then TrainConfig.validate on the train block."""
    # a failed branch leaves its keys unevaluated too: report the failure
    error = best_match(_VALIDATOR.iter_errors(cfg), key=lambda e: (
        e.validator != "unevaluatedProperties", relevance(e)))
    if error is not None:
        raise ConfigError("config rejected: %s" % error.message)
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


def write_manifest(run_dir, config, seed, outputs, started, ended, error=None):
    """Atomic manifest: config snapshot + seed + version + file list, and
    status "ok", or "failed" with the error message when error is given."""
    from . import __version__
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "seed": seed,
        "version": __version__,
        "started": started,
        "ended": ended,
        "outputs": sorted(outputs),
        "status": "ok" if error is None else "failed",
    }
    if error is not None:
        payload["error"] = error
    path = os.path.join(run_dir, "manifest.json")
    os.replace(write_json(path + ".tmp", payload), path)
    return path


def utc_now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
