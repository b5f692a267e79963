"""Command-line entry point.

Subcommands: `sample` draws a paired sample to CSV, `estimate` fits the
composite estimators to an existing sample CSV, `eval` tabulates analytic
dependence quantities for a configured model, `experiment` runs a Monte
Carlo sweep, and `figures` additionally emits plot-ready tables. Every
output CSV gets a key=value metadata sidecar (<name>.meta); no timestamps
are written, so reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 2 config error, 3 input parse error, 4 estimation
failure, 5 I/O error.
"""

import argparse
import functools
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    experiment_config_from_block,
    load_config,
    pairs_from_block,
    require_block,
)
from .depcore import (
    AlphaScaled,
    ExtremalT,
    Independence,
    GevMargin,
    LimitLawQ,
    Logistic,
    astar_points,
    edge_grid,
    edge_points,
    extremal_coefficient,
    lambda_from_theta,
    lambda_inverse_link,
    tail_prob_approx,
)
from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    InputParseError,
    RandmaxError,
    RangeLinkError,
)
from .estimators import CompositeConfig, fit_pairs
from .harness import figure_tables, results_csv_text, run_experiment, run_report_text
from .samplers import PairedSample, RngStream, sample_experiment1, sample_experiment2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ESTIMATION = 4
EXIT_IO = 5


@functools.cache
def _build_description():
    """`git describe` of the source tree, run once per process."""
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"randmax-{__version__}"


def _write_text(path, text):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc}") from None


class _IoFailure(RandmaxError):
    pass


def _write_sidecar(path, entries):
    meta = dict(entries)
    meta["build"] = _build_description()
    lines = [f"{k}={meta[k]}" for k in sorted(meta)]
    _write_text(Path(str(path) + ".meta"), "\n".join(lines) + "\n")


def _config_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _model_from_block(block):
    family = block["family"]
    if family == "logistic":
        return Logistic(block["psi"], dim=block.get("dim", 2))
    if family == "independence":
        return Independence(dim=block.get("dim", 2))
    return ExtremalT(block["rho"], block["upsilon"])


def _present(block, *keys, **renamed):
    """Keyword arguments from the entries of `block` that it sets, under
    `keys` as they are and under `renamed` (argument name=block key);
    absent entries are left to the callee's defaults."""
    kwargs = {key: block[key] for key in keys if key in block}
    kwargs.update({name: block[key] for name, key in renamed.items() if key in block})
    return kwargs


def cmd_sample(config, args):
    block = require_block(config, "sample")
    seed = args.seed if args.seed is not None else block.get("seed", 0)
    stream = RngStream(seed=seed, stream_id=block.get("stream", 0))
    if block["experiment"] == 1:
        sample = sample_experiment1(
            block["psi"], block["alpha"], block["n"], stream, **_present(block, "d")
        )
    else:
        sample = sample_experiment2(
            block["rho"],
            block["upsilon"],
            block["alpha"],
            block["n"],
            stream,
            **_present(block, n_prime="inner_size"),
        )
    out = Path(args.out) / "sample.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        sample.to_csv(out)
    except OSError as exc:
        raise _IoFailure(f"cannot write {out}: {exc}") from None
    meta = {f"param_{k}": v for k, v in sample.meta.items()}
    meta.update({"seed": seed, "stream": block.get("stream", 0), "command": "sample",
                 "config_sha256": _config_digest(args.config)})
    _write_sidecar(out, meta)
    return EXIT_OK


def cmd_estimate(config, args):
    block = require_block(config, "estimate")
    if args.input is None:
        raise ConfigError("estimate requires --input <sample csv>", path="$.estimate")
    sample = PairedSample.from_csv(args.input)
    outdir = Path(args.out)
    pairs = pairs_from_block(block)
    # shared fit settings; the pick and tail method of this config are unused
    settings = CompositeConfig(**_present(block, "k", "grid_size", "corrected"))
    fits = fit_pairs((sample,), pairs, settings)[0]
    for pair in pairs:
        estimate = fits[pair.label]
        if isinstance(estimate, EstimationError):
            raise estimate
        out = outdir / f"estimate_{pair.label}.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        try:
            estimate.to_csv(out)
        except OSError as exc:
            raise _IoFailure(f"cannot write {out}: {exc}") from None
        _write_sidecar(
            out,
            {
                "command": "estimate",
                "input": Path(args.input).name,
                "estimator_pair": pair.label,
                "k": settings.k,
                "grid_size": settings.grid_size,
                "corrected": int(settings.corrected),
                "alpha_hat": repr(estimate.alpha_hat),
                "alpha_raw": repr(estimate.alpha_raw),
                "alpha_clamped": int(estimate.alpha_clamped),
                "clamped_nodes": estimate.n_clamped,
                "config_sha256": _config_digest(args.config),
            },
        )
    return EXIT_OK


_BRANCH_NAMES = {"frechet_heavy", "frechet_unit", "frechet_light", "gumbel"}


def _implied_branch(size_branch, alpha):
    if size_branch == "gumbel":
        return "gumbel"
    if alpha < 1.0:
        return "frechet_heavy"
    return "frechet_unit" if alpha == 1.0 else "frechet_light"


def cmd_eval(config, args):
    block = require_block(config, "eval")
    model = _model_from_block(block["model"])
    alpha = block["alpha"]
    size_branch = block.get("size_branch", "frechet")
    implied = _implied_branch(size_branch, alpha)
    branches = block.get("branches", [implied])
    for branch in branches:
        if branch != implied:
            raise ConfigError(
                f"branch {branch!r} is inconsistent with alpha={alpha!r}, "
                f"size_branch={size_branch!r} (implied branch {implied!r})",
                path="$.eval.branches",
            )
    margins = tuple(GevMargin("frechet") for _ in range(model.dim))
    law = LimitLawQ(base=model, margins=margins, alpha=alpha, size_branch=size_branch)
    theta_g = extremal_coefficient(model)
    rows = [("theta_G", theta_g), ("lambda_MN_of_G", lambda_from_theta(theta_g))]
    scaled = None
    if 0.0 < alpha < 1.0:
        scaled = AlphaScaled(model, alpha)
        theta_scaled = extremal_coefficient(scaled)
        rows.append(("theta_G_alpha", theta_scaled))
        if model.dim == 2:
            rows.append(("lambda_of_G_alpha", lambda_from_theta(theta_scaled)))
    for branch in branches:
        rows.append((f"theta_Q_{branch}", law.theta()))
    for lam in block.get("lambda_mn", []):
        if 0.0 < alpha < 1.0:
            rows.append((f"lambda_X_from_lambda_MN_{lam:g}", lambda_inverse_link(lam, alpha)))
    outdir = Path(args.out)
    summary = "quantity,value\n" + "".join(f"{k},{repr(float(v))}\n" for k, v in rows)
    _write_text(outdir / "eval_summary.csv", summary)
    meta = {
        "command": "eval",
        "alpha": repr(float(alpha)),
        "size_branch": size_branch,
        "config_sha256": _config_digest(args.config),
    }
    _write_sidecar(outdir / "eval_summary.csv", meta)
    # dependence curves along the bivariate edge
    if model.dim == 2:
        w = edge_grid(block.get("grid_size", 201))
        base_curve = model.curve(w)
        lines = ["t,A,A_alpha,A_star"]
        if scaled is not None:
            a_alpha = scaled.curve(w)
            a_star, _ = astar_points(a_alpha, edge_points(w), alpha)
        else:
            a_alpha = np.full(w.size, np.nan)
            a_star = np.full(w.size, np.nan)
        for i in range(w.size):
            lines.append(
                f"{repr(float(w[i]))},{repr(float(base_curve[i]))},"
                f"{repr(float(a_alpha[i]))},{repr(float(a_star[i]))}"
            )
        _write_text(outdir / "eval_curves.csv", "\n".join(lines) + "\n")
        _write_sidecar(outdir / "eval_curves.csv", meta)
    if "tail_z" in block and 0.0 < alpha < 1.0:
        n = block.get("tail_n", 100)
        lines = [",".join(f"z_{j + 1}" for j in range(model.dim)) + ",n,tail_prob"]
        for z in block["tail_z"]:
            if len(z) != model.dim:
                raise ConfigError(
                    f"tail_z entries must have dimension {model.dim}", path="$.eval.tail_z"
                )
            p = tail_prob_approx(model, alpha, np.asarray(z, dtype=float), n)
            lines.append(",".join(repr(float(v)) for v in z) + f",{n},{repr(float(p))}")
        _write_text(outdir / "eval_tailprob.csv", "\n".join(lines) + "\n")
        _write_sidecar(outdir / "eval_tailprob.csv", meta)
    return EXIT_OK


def _run_sweep(config, args):
    block = require_block(config, "experiment")
    cfg = experiment_config_from_block(block, seed=args.seed, jobs=args.jobs)
    results = run_experiment(cfg)
    outdir = Path(args.out)
    _write_text(outdir / "results.csv", results_csv_text(results))
    _write_sidecar(
        outdir / "results.csv",
        {
            "command": args.subcommand,
            "seed": cfg.seed,
            "jobs": cfg.jobs,
            "config_sha256": _config_digest(args.config),
        },
    )
    _write_text(outdir / "run_report.txt", run_report_text(results))
    return results, outdir


def cmd_experiment(config, args):
    _run_sweep(config, args)
    return EXIT_OK


def cmd_figures(config, args):
    results, outdir = _run_sweep(config, args)
    for name, text in figure_tables(results).items():
        _write_text(outdir / f"{name}.csv", text)
        _write_sidecar(
            outdir / f"{name}.csv",
            {"command": "figures", "config_sha256": _config_digest(args.config)},
        )
    return EXIT_OK


_COMMANDS = {
    "sample": cmd_sample,
    "estimate": cmd_estimate,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
    "figures": cmd_figures,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="randmax",
        description="Extremal dependence of maxima over a random number of observations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--jobs", type=int, default=None, help="override parallelism width")
        if name == "estimate":
            p.add_argument("--input", default=None, help="sample CSV to estimate from")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return _COMMANDS[args.subcommand](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, RangeLinkError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputParseError as exc:
        print(f"input parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EstimationError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (_IoFailure, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
