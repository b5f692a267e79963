"""Configuration loading and validation for the command-line harness.

A single JSON file holds one block per subcommand; each subcommand reads only
its block. Validation happens before any computation and reports the JSON
path of the offending field. CLI flags may override only the seed and the
parallelism width; every scientific parameter lives in the file so outputs
are self-describing.
"""

import json

import jsonschema

from .errors import ConfigError
from .estimators import EstimatorPair
from .harness import ExperimentConfig

__all__ = ["load_config", "experiment_config_from_block", "CONFIG_SCHEMA"]

_PAIR_SCHEMA = {
    "type": "object",
    "properties": {
        "pick": {"enum": ["P", "CFG", "MD"]},
        "alpha": {"enum": ["GPWM", "ML"]},
    },
    "required": ["pick", "alpha"],
    "additionalProperties": False,
}

_MODEL_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "family": {"const": "logistic"},
                "psi": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "dim": {"type": "integer", "minimum": 2},
            },
            "required": ["family", "psi"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "family": {"const": "independence"},
                "dim": {"type": "integer", "minimum": 2},
            },
            "required": ["family"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "family": {"const": "extremal_t"},
                "rho": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
                "upsilon": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["family", "rho", "upsilon"],
            "additionalProperties": False,
        },
    ],
}


def _when_experiment(number, then):
    """Schema rule: a block whose `experiment` is `number` must also match `then`."""
    return {
        "if": {"properties": {"experiment": {"const": number}}, "required": ["experiment"]},
        "then": then,
    }


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "sample": {
            "type": "object",
            "properties": {
                "experiment": {"enum": [1, 2]},
                "psi": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "rho": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
                "upsilon": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "n": {"type": "integer", "minimum": 2},
                "d": {"type": "integer", "minimum": 2},
                "inner_size": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "stream": {"type": "integer", "minimum": 0},
            },
            "required": ["experiment", "alpha", "n"],
            "additionalProperties": False,
            "allOf": [
                _when_experiment(1, {"required": ["psi"]}),
                _when_experiment(
                    2, {"required": ["rho", "upsilon"], "properties": {"d": {"const": 2}}}
                ),
            ],
        },
        "estimate": {
            "type": "object",
            "properties": {
                "pairs": {"type": "array", "items": _PAIR_SCHEMA, "minItems": 1},
                "k": {"type": "integer", "minimum": 2},
                "grid_size": {"type": "integer", "minimum": 3},
                "corrected": {"type": "boolean"},
            },
            "required": ["pairs"],
            "additionalProperties": False,
        },
        "eval": {
            "type": "object",
            "properties": {
                "model": _MODEL_SCHEMA,
                "alpha": {"type": "number", "exclusiveMinimum": 0},
                "size_branch": {"enum": ["frechet", "gumbel"]},
                "branches": {
                    "type": "array",
                    "items": {
                        "enum": ["frechet_heavy", "frechet_unit", "frechet_light", "gumbel"]
                    },
                },
                "tail_z": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number", "minimum": 0},
                        "minItems": 2,
                    },
                },
                "tail_n": {"type": "integer", "minimum": 1},
                "lambda_mn": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                },
                "grid_size": {"type": "integer", "minimum": 3},
            },
            "required": ["model", "alpha"],
            "additionalProperties": False,
        },
        "experiment": {
            "type": "object",
            "properties": {
                "experiment": {"enum": [1, 2]},
                "alpha": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "minItems": 1,
                },
                "psi": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                "rho": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
                    "minItems": 1,
                },
                "upsilon": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "n": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 1,
                },
                "replications": {"type": "integer", "minimum": 2},
                "inner_size": {"type": "integer", "minimum": 1},
                "pairs": {"type": "array", "items": _PAIR_SCHEMA, "minItems": 1},
                "k": {"type": "integer", "minimum": 2},
                "grid_size": {"type": "integer", "minimum": 3},
                "corrected": {"type": "boolean"},
                "seed": {"type": "integer", "minimum": 0},
                "jobs": {"type": "integer", "minimum": 1},
            },
            "required": ["experiment", "alpha", "n", "replications", "pairs"],
            "additionalProperties": False,
            "allOf": [
                _when_experiment(1, {"required": ["psi"]}),
                _when_experiment(2, {"required": ["rho", "upsilon"]}),
            ],
        },
    },
    "additionalProperties": False,
}


def load_config(path):
    """Read and schema-validate a config file; returns the parsed dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", path=str(path)) from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path=str(path)) from None
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        path = first.json_path
        if first.validator == "required":
            # point at the missing field itself, e.g. $.sample.psi
            path += "." + next(k for k in first.validator_value if k not in first.instance)
        raise ConfigError(first.message, path=path)
    return data


def require_block(config, name):
    if name not in config:
        raise ConfigError(f"missing config block for this subcommand", path=f"$.{name}")
    return config[name]


def pairs_from_block(block):
    return tuple(EstimatorPair(p["pick"], p["alpha"]) for p in block["pairs"])


#: experiment-block keys whose ExperimentConfig field has another name
_EXPERIMENT_FIELDS = {
    "alpha": "alphas",
    "psi": "psis",
    "rho": "rhos",
    "upsilon": "upsilons",
    "n": "sizes",
}


def experiment_config_from_block(block, seed=None, jobs=None):
    """Build an ExperimentConfig from the `experiment` config block.

    Only the keys present are passed, so absent ones take the dataclass
    defaults; `seed` and `jobs`, when given, override the block.
    """
    fields = {
        _EXPERIMENT_FIELDS.get(key, key): tuple(value) if isinstance(value, list) else value
        for key, value in block.items()
    }
    fields["pairs"] = pairs_from_block(block)
    if seed is not None:
        fields["seed"] = seed
    if jobs is not None:
        fields["jobs"] = jobs
    return ExperimentConfig(**fields)
