"""Configuration loading and validation for the command-line harness.

A single JSON file holds one block per subcommand; each subcommand reads only
its block. `CONFIG_SCHEMA` states every rule once: each domain is one shared
sub-schema, and a field that the chosen settings never read is an error.
`read_config` reads the file once, for the parsed config and the digest
of its bytes, and checks it, and the rules JSON Schema cannot state,
before any output, naming the JSON path of the offending field;
`load_config` returns the config alone. Those rules are: each
`eval.tail_z` point has the model's dimension, no two `eval.lambda_mn`
entries give one quantity name, and with a GPWM pair every
`experiment.alpha` exceeds 1/k. Every scientific parameter lives in the
file. Besides `--config` and `--out`, `sample` takes `--seed`, `estimate`
takes `--input`, and `experiment` and `figures` take `--seed` and `--jobs`,
which override the block's values; `eval` takes no other flag.
"""

import dataclasses
import hashlib
import io
import json

import jsonschema

from .errors import ConfigError
from .estimators import EstimatorPair, FitSettings
from .harness import ExperimentConfig

__all__ = [
    "load_config",
    "read_config",
    "experiment_config_from_block",
    "lambda_mn_quantity",
    "CONFIG_SCHEMA",
]


def _integer(minimum):
    return {"type": "integer", "minimum": minimum}


def _grid(item):
    """An experiment grid: a nonempty list of `item` values."""
    return {"type": "array", "items": item, "minItems": 1}


def _forbidden(why):
    """A field that must be absent; load_config reports `why`."""
    return {"not": {}, "description": why}


def _closed(properties, required, *rules):
    """An object with no fields beyond `properties` that also matches `rules`."""
    schema = {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }
    if rules:
        schema["allOf"] = list(rules)
    return schema


_PSI = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
_RHO = {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_ALPHA = dict(_POSITIVE, exclusiveMaximum=1)
_SIZE = _integer(2)
_COUNT = _integer(1)
_SEED = _integer(0)

#: pairs and fit settings, shared by the `estimate` and `experiment` blocks
_FIT = {
    "pairs": dict(
        _grid(
            _closed(
                {"pick": {"enum": ["P", "CFG", "MD"]}, "alpha": {"enum": ["GPWM", "ML"]}},
                ["pick", "alpha"],
            )
        ),
        uniqueItems=True,
    ),
    "k": _integer(2),
    "grid_size": {
        "type": "integer",
        "minimum": 3,
        "not": {"multipleOf": 2},
        "description": "must be odd, so that w = 1/2 is a grid node",
    },
    "corrected": {"type": "boolean"},
}


def _pipeline_rules(**experiment2):
    """Rules of the `sample` and `experiment` blocks: each sets the dependence
    fields its pipeline reads and none it never reads; `experiment2` adds
    rules for pipeline 2."""
    rules = []
    for number, required, unread, extra in [
        (1, ["psi"], ["rho", "upsilon", "inner_size"], {}),
        (2, ["rho", "upsilon"], ["psi"], experiment2),
    ]:
        forbidden = {key: _forbidden(f"not read by experiment {number}") for key in unread}
        rules.append(
            {
                "if": {"properties": {"experiment": {"const": number}}, "required": ["experiment"]},
                "then": {"required": required, "properties": dict(forbidden, **extra)},
            }
        )
    return rules


#: a field that only means something for a tail index alpha in (0, 1)
_NEEDS_HEAVY_TAIL = _forbidden("needs alpha in (0, 1)")

#: a model of dimension 3 or more, which has no bivariate edge to tabulate
_MULTIVARIATE = {"properties": {"dim": {"minimum": 3}}, "required": ["dim"]}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "sample": _closed(
            {
                "experiment": {"enum": [1, 2]},
                "psi": _PSI,
                "rho": _RHO,
                "upsilon": _POSITIVE,
                "alpha": _ALPHA,
                "n": _SIZE,
                "d": _SIZE,
                "inner_size": _COUNT,
                "seed": _SEED,
                "stream": _SEED,
            },
            ["experiment", "alpha", "n"],
            *_pipeline_rules(d={"const": 2}),
        ),
        "estimate": _closed(_FIT, ["pairs"]),
        "eval": _closed(
            {
                "model": {
                    "oneOf": [
                        _closed(
                            {"family": {"const": "logistic"}, "psi": _PSI, "dim": _SIZE},
                            ["family", "psi"],
                        ),
                        _closed({"family": {"const": "independence"}, "dim": _SIZE}, ["family"]),
                        _closed(
                            {"family": {"const": "extremal_t"}, "rho": _RHO, "upsilon": _POSITIVE},
                            ["family", "rho", "upsilon"],
                        ),
                    ]
                },
                "alpha": _POSITIVE,
                "size_branch": {"enum": ["frechet", "gumbel"]},
                "tail_z": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number", "minimum": 0}},
                },
                "tail_n": _COUNT,
                "lambda_mn": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0, "maximum": 1},
                },
                "grid_size": _integer(3),
            },
            ["model", "alpha"],
            {
                "if": {"properties": {"alpha": {"minimum": 1}}, "required": ["alpha"]},
                "then": {
                    "properties": {"tail_z": _NEEDS_HEAVY_TAIL, "lambda_mn": _NEEDS_HEAVY_TAIL}
                },
            },
            {
                "if": {"not": {"required": ["tail_z"]}},
                "then": {"properties": {"tail_n": _forbidden("is read only with tail_z")}},
            },
            {
                "if": {"properties": {"model": _MULTIVARIATE}},
                "then": {
                    "properties": {"grid_size": _forbidden("is read only for a bivariate model")}
                },
            },
        ),
        "experiment": _closed(
            dict(
                _FIT,
                experiment={"enum": [1, 2]},
                alpha=_grid(_ALPHA),
                psi=_grid(_PSI),
                rho=_grid(_RHO),
                upsilon=_grid(_POSITIVE),
                n=_grid(_SIZE),
                replications=_integer(2),
                inner_size=_COUNT,
                seed=_SEED,
                jobs=_COUNT,
            ),
            ["experiment", "alpha", "n", "replications", "pairs"],
            *_pipeline_rules(),
        ),
    },
    "additionalProperties": False,
}


def _is_json_integer(checker, instance):
    return isinstance(instance, int) and not isinstance(instance, bool)


#: JSON Schema counts a whole float such as 3.0 as an integer; here every
#: count, size, order and seed must be written as a JSON integer
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", _is_json_integer
    ),
)


def load_config(path):
    """Read and validate a config file; returns the parsed dict."""
    return read_config(path)[0]


def read_config(path):
    """Read a config file once and validate it; returns the parsed dict and
    the SHA-256 hex digest of the bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # the text open(path, encoding="utf-8") reads, newlines translated
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}", path=str(path)) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", path=str(path)) from None
    validator = _VALIDATOR(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(data), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        path, message = first.json_path, first.message
        if first.validator == "required":
            # point at the missing field itself, e.g. $.sample.psi
            path += "." + next(k for k in first.validator_value if k not in first.instance)
        elif first.validator == "not":
            # a field a rule forbids or restricts; its schema says why
            message = first.schema.get("description", message)
        raise ConfigError(message, path=path)
    if "eval" in data:
        dim = data["eval"]["model"].get("dim", 2)
        for i, point in enumerate(data["eval"].get("tail_z", ())):
            if len(point) != dim:
                raise ConfigError(
                    f"must have the model's dimension {dim}", path=f"$.eval.tail_z[{i}]"
                )
        first = {}
        for i, lam in enumerate(data["eval"].get("lambda_mn", ())):
            name = lambda_mn_quantity(lam)
            if name in first:
                raise ConfigError(
                    f"gives the quantity name {name} of $.eval.lambda_mn[{first[name]}]",
                    path=f"$.eval.lambda_mn[{i}]",
                )
            first[name] = i
    if "experiment" in data and any(p["alpha"] == "GPWM" for p in data["experiment"]["pairs"]):
        # the GPWM fit uses the moment mu_(1,k-1), which exists only for alpha > 1/k
        k = fit_settings_from_block(data["experiment"]).k
        for i, alpha in enumerate(data["experiment"]["alpha"]):
            if alpha <= 1.0 / k:
                raise ConfigError(
                    f"GPWM needs alpha > 1/k = {1.0 / k:g} (k = {k}), got {alpha!r}",
                    path=f"$.experiment.alpha[{i}]",
                )
    return data, hashlib.sha256(raw).hexdigest()


def lambda_mn_quantity(lam):
    """The eval_summary.csv quantity name of one `eval.lambda_mn` entry."""
    return f"lambda_X_from_lambda_MN_{lam:g}"


def require_block(config, name):
    if name not in config:
        raise ConfigError(f"missing config block for this subcommand", path=f"$.{name}")
    return config[name]


def pairs_from_block(block):
    return tuple(EstimatorPair(p["pick"], p["alpha"]) for p in block["pairs"])


#: block keys that name FitSettings fields
_FIT_SETTINGS = tuple(f.name for f in dataclasses.fields(FitSettings))


def fit_settings_from_block(block):
    """The FitSettings of an `estimate` or `experiment` block; absent keys
    take the FitSettings defaults."""
    return FitSettings(**{key: block[key] for key in _FIT_SETTINGS if key in block})


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
        if key not in _FIT_SETTINGS
    }
    fields["pairs"] = pairs_from_block(block)
    fields["fit"] = fit_settings_from_block(block)
    if seed is not None:
        fields["seed"] = seed
    if jobs is not None:
        fields["jobs"] = jobs
    return ExperimentConfig(**fields)
