"""Command-line entry point.

Subcommands: `sample` draws a paired sample to CSV, `estimate` fits the
composite estimators to an existing sample CSV, `eval` tabulates analytic
dependence quantities for a configured model, `experiment` runs a Monte
Carlo sweep, and `figures` additionally emits plot-ready tables. Every
output CSV gets a key=value metadata sidecar (<name>.meta); no timestamps
are written, so reruns with the same config and seed are byte-identical.

This is the one module that reads or writes a data file (config.py reads
the config, once per command): the other modules format CSV text and parse
it, and every output goes through _write_output with its sidecar, whose
config_sha256 is the digest of the bytes that command parsed. The one
exception is the sweeps' run_report.txt, which _run_sweep writes directly
and without a sidecar: it carries wall times, so it is not deterministic.

Exit codes: 0 success, 2 config error, 3 input parse error, 4 estimation
failure, 5 I/O error.
"""

import argparse
import functools
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    experiment_config_from_block,
    fit_settings_from_block,
    lambda_mn_quantity,
    pairs_from_block,
    read_config,
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
    RangeLinkError,
)
from .estimators import fit_pairs
from .harness import figure_tables, results_csv_text, run_experiment, run_report_text
from .samplers import PairedBlock, PairedSample, RngStream, sample_experiment1, sample_experiment2

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


def _write_output(path, text, entries, config_sha256):
    """Write `text` to `path`, making its directory, and then the sidecar
    <path>.meta: `entries` plus the build and the config's digest."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    meta = dict(entries, build=_build_description(), config_sha256=config_sha256)
    lines = "".join(f"{k}={meta[k]}\n" for k in sorted(meta))
    Path(f"{path}.meta").write_text(lines, encoding="utf-8")


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


def cmd_sample(config, args, config_sha256):
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
    meta = {f"param_{k}": v for k, v in sample.meta.items()}
    meta.update({"seed": seed, "stream": block.get("stream", 0), "command": "sample"})
    _write_output(Path(args.out) / "sample.csv", sample.to_csv(), meta, config_sha256)
    return EXIT_OK


def _read_sample(path):
    """The PairedSample in the CSV file at `path`; its text is freed on
    return, before any fit runs."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise InputParseError(f"not UTF-8 text: {exc}", line=line) from None
    return PairedSample.from_csv(text)


def cmd_estimate(config, args, config_sha256):
    block = require_block(config, "estimate")
    sample = _read_sample(args.input)
    if sample.dim != 2:
        raise InputParseError(f"composite estimation needs 2 eta columns, got {sample.dim}", line=1)
    outdir = Path(args.out)
    pairs = pairs_from_block(block)
    settings = fit_settings_from_block(block)
    # a block of the one sample, as views of its arrays
    one = PairedBlock(sample.eta[np.newaxis], sample.xi[np.newaxis], sample.meta)
    fits = fit_pairs(one, pairs, settings)
    # a failed pair leaves no file behind, not even the pairs before it
    for fit in fits.values():
        if fit.errors[0] is not None:
            raise fit.errors[0]
    for pair in pairs:
        fit = fits[pair.label]
        _write_output(
            outdir / f"estimate_{pair.label}.csv",
            fit.to_csv(0),
            {
                "command": "estimate",
                "input": Path(args.input).name,
                "estimator_pair": pair.label,
                "k": settings.k,
                "grid_size": settings.grid_size,
                "corrected": int(settings.corrected),
                "alpha_hat": repr(fit.alpha_hat[0].item()),
                "alpha_raw": repr(fit.alpha_raw[0].item()),
                "alpha_clamped": int(fit.alpha_clamped[0]),
                "clamped_nodes": int(fit.n_clamped[0]),
            },
            config_sha256,
        )
    return EXIT_OK


def cmd_eval(config, args, config_sha256):
    block = require_block(config, "eval")
    model = _model_from_block(block["model"])
    alpha = block["alpha"]
    size_branch = block.get("size_branch", "frechet")
    margins = tuple(GevMargin("frechet") for _ in range(model.dim))
    law = LimitLawQ(base=model, margins=margins, alpha=alpha, size_branch=size_branch)
    theta_g = extremal_coefficient(model)
    # lambda = 2 - theta is the bivariate upper tail-dependence coefficient
    rows = [("theta_G", theta_g)]
    if model.dim == 2:
        rows.append(("lambda_MN_of_G", lambda_from_theta(theta_g)))
    scaled = None
    if 0.0 < alpha < 1.0:
        scaled = AlphaScaled(model, alpha)
        theta_scaled = extremal_coefficient(scaled)
        rows.append(("theta_G_alpha", theta_scaled))
        if model.dim == 2:
            rows.append(("lambda_of_G_alpha", lambda_from_theta(theta_scaled)))
    rows.append((f"theta_Q_{law.branch}", law.theta()))
    # the schema admits lambda_mn and tail_z only for alpha in (0, 1)
    for i, lam in enumerate(block.get("lambda_mn", [])):
        try:
            rows.append((lambda_mn_quantity(lam), lambda_inverse_link(lam, alpha)))
        except RangeLinkError as exc:
            raise ConfigError(str(exc), path=f"$.eval.lambda_mn[{i}]") from None
    outdir = Path(args.out)
    summary = "quantity,value\n" + "".join(f"{k},{repr(float(v))}\n" for k, v in rows)
    meta = {"command": "eval", "alpha": repr(float(alpha)), "size_branch": size_branch}
    _write_output(outdir / "eval_summary.csv", summary, meta, config_sha256)
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
        curves = "\n".join(lines) + "\n"
        _write_output(outdir / "eval_curves.csv", curves, meta, config_sha256)
    if "tail_z" in block:
        n = block.get("tail_n", 100)
        lines = [",".join(f"z_{j + 1}" for j in range(model.dim)) + ",n,tail_prob"]
        for z in block["tail_z"]:
            p = tail_prob_approx(model, alpha, np.asarray(z, dtype=float), n)
            lines.append(",".join(repr(float(v)) for v in z) + f",{n},{repr(float(p))}")
        tailprob = "\n".join(lines) + "\n"
        _write_output(outdir / "eval_tailprob.csv", tailprob, meta, config_sha256)
    return EXIT_OK


def _run_sweep(config, args, config_sha256):
    block = require_block(config, "experiment")
    cfg = experiment_config_from_block(block, seed=args.seed, jobs=args.jobs)
    results = run_experiment(cfg)
    outdir = Path(args.out)
    _write_output(
        outdir / "results.csv",
        results_csv_text(results),
        {"command": args.subcommand, "seed": cfg.seed, "jobs": cfg.jobs},
        config_sha256,
    )
    (outdir / "run_report.txt").write_text(run_report_text(results), encoding="utf-8")
    return results, outdir


def cmd_experiment(config, args, config_sha256):
    _run_sweep(config, args, config_sha256)
    return EXIT_OK


def cmd_figures(config, args, config_sha256):
    results, outdir = _run_sweep(config, args, config_sha256)
    for name, text in figure_tables(results).items():
        _write_output(outdir / f"{name}.csv", text, {"command": "figures"}, config_sha256)
    return EXIT_OK


_COMMANDS = {
    "sample": cmd_sample,
    "estimate": cmd_estimate,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
    "figures": cmd_figures,
}


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="randmax",
        description="Extremal dependence of maxima over a random number of observations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("sample", "experiment", "figures"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name in ("experiment", "figures"):
            p.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="override the number of processes that run replication blocks, "
                "this one included",
            )
        if name == "estimate":
            p.add_argument("--input", required=True, help="sample CSV to estimate from")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config, config_sha256 = read_config(args.config)
        return _COMMANDS[args.subcommand](config, args, config_sha256)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputParseError as exc:
        print(f"input parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EstimationError as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
