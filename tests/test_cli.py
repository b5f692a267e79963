import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randmax
from randmax import cli
from randmax.config import load_config
from randmax.depcore import AlphaScaled, GevMargin, LimitLawQ, Logistic, extremal_coefficient
from randmax.samplers import RngStream, sample_experiment1

# the CLI runs from the same source tree the tests import
_CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(randmax.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
)


def run_cli(*args):
    """Run `python -m randmax` in a subprocess, as a user does."""
    return subprocess.run(
        [sys.executable, "-m", "randmax", *args], capture_output=True, text=True, env=_CLI_ENV
    )


def run_in_process(capsys, *args):
    """Run the CLI in this process; returns (exit code, stderr). No message
    may print a numpy scalar's repr in place of its number."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    err = capsys.readouterr().err
    assert "np.float64(" not in err and "np.int64(" not in err, err
    return code, err


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


def write_sample(path, sample):
    path.write_text(sample.to_csv(0), encoding="utf-8")
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    return tmp_path


SAMPLE_BLOCK = {"experiment": 1, "psi": 0.5, "alpha": 0.5, "n": 100, "seed": 42}
SAMPLE2_BLOCK = {"experiment": 2, "rho": 0.5, "upsilon": 1.0, "alpha": 0.5, "n": 10}
EVAL_BLOCK = {"model": {"family": "logistic", "psi": 0.5}, "alpha": 0.5}


class TestSampleCommand:
    def test_deterministic_reruns(self, workspace, capsys):
        cfg = write_config(workspace / "c.json", {"sample": SAMPLE_BLOCK})
        for out in ("a", "b"):
            code, err = run_in_process(
                capsys, "sample", "--config", cfg, "--out", str(workspace / out)
            )
            assert code == 0, err
        a = (workspace / "a" / "sample.csv").read_bytes()
        b = (workspace / "b" / "sample.csv").read_bytes()
        assert a == b
        assert (workspace / "a" / "sample.csv.meta").exists()

    def test_row_count_and_dimension(self, workspace, capsys):
        block = dict(SAMPLE_BLOCK, d=3, n=37)
        cfg = write_config(workspace / "c.json", {"sample": block})
        code, err = run_in_process(capsys, "sample", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 0, err
        lines = (workspace / "o" / "sample.csv").read_text().strip().split("\n")
        assert lines[0] == "eta_1,eta_2,eta_3,xi"
        assert len(lines) == 38

    def test_seed_override_changes_output(self, workspace, capsys):
        cfg = write_config(workspace / "c.json", {"sample": SAMPLE_BLOCK})
        run_in_process(capsys, "sample", "--config", cfg, "--out", str(workspace / "a"))
        run_in_process(
            capsys, "sample", "--config", cfg, "--out", str(workspace / "b"), "--seed", "43"
        )
        assert (workspace / "a" / "sample.csv").read_bytes() != (
            workspace / "b" / "sample.csv"
        ).read_bytes()

    def test_schema_violation_reports_path(self, workspace):
        # the one test through `python -m randmax`: exit code and stderr of a real process
        cfg = write_config(workspace / "c.json", {"sample": dict(SAMPLE_BLOCK, psi=1.5)})
        r = run_cli("sample", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 2
        assert "$.sample.psi" in r.stderr

    def test_missing_config_file(self, workspace, capsys):
        missing, out = str(workspace / "nope.json"), str(workspace / "o")
        code, _ = run_in_process(capsys, "sample", "--config", missing, "--out", out)
        assert code == 2

    @pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
    def test_non_utf8_config_names_the_file(self, workspace, capsys, subcommand):
        cfg = workspace / "latin1.json"
        cfg.write_bytes(b'{"sample": {"note": "caf\xe9"}}')
        extra = ["--input", str(workspace / "s.csv")] if subcommand == "estimate" else []
        code, err = run_in_process(
            capsys, subcommand, "--config", str(cfg), "--out", str(workspace / "o"), *extra
        )
        assert code == 2
        assert err.startswith(f"config error: {cfg}: cannot read config file")
        assert not (workspace / "o").exists()

    def test_experiment2_sampling(self, workspace, capsys):
        block = {"experiment": 2, "rho": 0.5, "upsilon": 1.0, "alpha": 0.5, "n": 10,
                 "inner_size": 20, "seed": 7}
        cfg = write_config(workspace / "c.json", {"sample": block})
        code, err = run_in_process(capsys, "sample", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 0, err
        lines = (workspace / "o" / "sample.csv").read_text().strip().split("\n")
        assert len(lines) == 11

    def test_small_inner_size_names_the_field(self, workspace, capsys):
        block = {"experiment": 2, "rho": -0.5, "upsilon": 1.0, "alpha": 0.5, "n": 50,
                 "inner_size": 1, "seed": 7}
        cfg = write_config(workspace / "c.json", {"sample": block})
        code, err = run_in_process(capsys, "sample", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 2
        assert "inner_size" in err

    @pytest.mark.parametrize("subcommand", ["sample", "experiment"])
    def test_removed_cap_key_is_rejected(self, workspace, capsys, subcommand):
        # block sizes are no longer truncated, so a config that still sets the
        # old cap is an error; the key is assembled so that no source names it
        key = "_".join(["block", "cap"])
        block = SAMPLE2_BLOCK
        if subcommand == "experiment":
            block = {name: [value] for name, value in block.items() if name != "experiment"}
            block.update(experiment=2, replications=2, pairs=[{"pick": "P", "alpha": "GPWM"}])
        cfg = write_config(workspace / "c.json", {subcommand: dict(block, **{key: 10})})
        code, err = run_in_process(
            capsys, subcommand, "--config", cfg, "--out", str(workspace / "o")
        )
        assert code == 2
        assert key in err

    def test_build_description_runs_git_once(self, workspace, monkeypatch):
        calls = []

        def fake_run(*args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, stdout="v0-test\n", stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        cli._build_description.cache_clear()
        try:
            cli._write_output(workspace / "a.csv", "", {"command": "sample"}, "0" * 64)
            cli._write_output(workspace / "b.csv", "", {"command": "estimate"}, "0" * 64)
        finally:
            cli._build_description.cache_clear()
        assert len(calls) == 1
        assert "build=v0-test" in (workspace / "b.csv.meta").read_text()


class TestEstimateCommand:
    def _sampled(self, workspace, capsys):
        cfg = write_config(
            workspace / "c.json",
            {
                "sample": dict(SAMPLE_BLOCK, n=400),
                "estimate": {
                    "pairs": [{"pick": "CFG", "alpha": "ML"}, {"pick": "P", "alpha": "GPWM"}],
                    "grid_size": 41,
                },
            },
        )
        run_in_process(capsys, "sample", "--config", cfg, "--out", str(workspace / "s"))
        return cfg, workspace / "s" / "sample.csv"

    def test_round_trip(self, workspace, capsys):
        cfg, sample = self._sampled(workspace, capsys)
        out = str(workspace / "e")
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", out, "--input", str(sample)
        )
        assert code == 0, err
        for label in ("CFG-ML", "P-GPWM"):
            out = workspace / "e" / f"estimate_{label}.csv"
            lines = out.read_text().strip().split("\n")
            assert len(lines) == 42
            assert lines[0].startswith("t,A_alpha_hat,A_star_hat,A_hat,alpha_hat")

    def test_sidecars_digest_the_config_bytes_that_were_parsed(
        self, workspace, capsys, monkeypatch
    ):
        # the config is read once per command: a config edited after that read
        # must not give a sidecar the digest of bytes that were never parsed
        cfg, sample = self._sampled(workspace, capsys)
        parsed = Path(cfg).read_bytes()
        fit_pairs = cli.fit_pairs

        def edit_config_then_fit(*args, **kwargs):
            Path(cfg).write_text(json.dumps(json.loads(parsed)), encoding="utf-8")
            return fit_pairs(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_pairs", edit_config_then_fit)
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"),
            "--input", str(sample),
        )
        assert code == 0, err
        assert Path(cfg).read_bytes() != parsed
        sidecars = sorted((workspace / "e").glob("*.meta"))
        assert len(sidecars) == 2
        for meta in sidecars:
            lines = meta.read_text(encoding="utf-8").splitlines()
            assert f"config_sha256={hashlib.sha256(parsed).hexdigest()}" in lines, meta.name

    def test_ml_sidecar_holds_plain_numbers(self, workspace, capsys):
        # the sidecar must read back as numbers, not as a NumPy repr
        cfg = write_config(
            workspace / "c.json", {"estimate": {"pairs": [{"pick": "CFG", "alpha": "ML"}]}}
        )
        sample = workspace / "sample.csv"
        write_sample(sample, sample_experiment1(0.5, 0.5, 400, [RngStream(42)]))
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"),
            "--input", str(sample),
        )
        assert code == 0, err
        meta_text = (workspace / "e" / "estimate_CFG-ML.csv.meta").read_text()
        meta = dict(line.split("=", 1) for line in meta_text.splitlines())
        row = (workspace / "e" / "estimate_CFG-ML.csv").read_text().split("\n")[1].split(",")
        assert meta["alpha_clamped"] == "0"
        for key in ("alpha_hat", "alpha_raw"):
            assert meta[key] == repr(float(meta[key]))
            assert float(meta[key]) == float(row[4])

    @pytest.mark.parametrize(
        "settings, expected",
        [
            ({}, ("5", "201", "1")),
            ({"k": 3, "grid_size": 41, "corrected": False}, ("3", "41", "0")),
        ],
        ids=["defaults", "k3-grid41-uncorrected"],
    )
    def test_sidecar_records_fit_settings(self, workspace, capsys, settings, expected):
        block = dict(settings, pairs=[{"pick": "CFG", "alpha": "GPWM"}])
        cfg = write_config(workspace / "c.json", {"estimate": block})
        sample = workspace / "sample.csv"
        write_sample(sample, sample_experiment1(0.5, 0.5, 400, [RngStream(42)]))
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"),
            "--input", str(sample),
        )
        assert code == 0, err
        out = workspace / "e" / "estimate_CFG-GPWM.csv"
        meta = dict(line.split("=", 1) for line in Path(f"{out}.meta").read_text().splitlines())
        assert (meta["k"], meta["grid_size"], meta["corrected"]) == expected
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == int(expected[1])
        assert {row.split(",")[6] for row in rows} == {expected[2]}

    def test_crlf_sample_estimates_to_the_same_bytes(self, workspace, capsys):
        cfg, sample = self._sampled(workspace, capsys)
        crlf = workspace / "crlf.csv"
        crlf.write_bytes(sample.read_bytes().replace(b"\n", b"\r\n"))
        for source, out in ((sample, "lf"), (crlf, "crlf")):
            code, err = run_in_process(
                capsys, "estimate", "--config", cfg, "--out", str(workspace / out),
                "--input", str(source),
            )
            assert code == 0, err
        for name in ("estimate_CFG-ML.csv", "estimate_P-GPWM.csv"):
            from_lf, from_crlf = ((workspace / out / name).read_bytes() for out in ("lf", "crlf"))
            assert from_lf == from_crlf

    def test_missing_input_is_io_error(self, workspace, capsys):
        cfg, _ = self._sampled(workspace, capsys)
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"),
            "--input", str(workspace / "absent.csv"),
        )
        assert code == 5
        assert "absent.csv" in err

    def test_sample_text_is_freed_before_the_fit(self, workspace, capsys, monkeypatch):
        # no frame between main and the fit still holds the file's text
        cfg = write_config(
            workspace / "c.json", {"estimate": {"pairs": [{"pick": "CFG", "alpha": "GPWM"}]}}
        )
        sample = workspace / "sample.csv"
        write_sample(sample, sample_experiment1(0.5, 0.5, 2000, [RngStream(42)]))
        size = len(sample.read_text(encoding="utf-8"))
        fit_pairs = cli.fit_pairs
        callers, held = [], []

        def fit_and_look(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] == cli.__name__:
                callers.append(frame.f_code.co_name)
                held.extend(
                    (frame.f_code.co_name, name)
                    for name, value in frame.f_locals.items()
                    if isinstance(value, str) and len(value) >= size
                )
                frame = frame.f_back
            return fit_pairs(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_pairs", fit_and_look)
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"),
            "--input", str(sample),
        )
        assert code == 0, err
        assert callers == ["cmd_estimate", "main"]
        assert held == []

    def test_non_utf8_input_names_the_line(self, workspace, capsys):
        cfg, _ = self._sampled(workspace, capsys)
        bad = workspace / "latin1.csv"
        bad.write_bytes(b"eta_1,eta_2,xi\n1.0,2.0,2.0\n1.0,2.0,caf\xe9\n2.0,1.0,3.0\n")
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"), "--input", str(bad)
        )
        assert code == 3
        assert err.startswith("input parse error: line 3: not UTF-8 text")
        assert not (workspace / "e").exists()

    def test_missing_xi_column(self, workspace, capsys):
        cfg, _ = self._sampled(workspace, capsys)
        bad = workspace / "bad.csv"
        bad.write_text("eta_1,eta_2\n1.0,2.0\n2.0,1.0\n")
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"), "--input", str(bad)
        )
        assert code == 3

    def test_malformed_row_names_line(self, workspace, capsys):
        cfg, _ = self._sampled(workspace, capsys)
        bad = workspace / "bad.csv"
        bad.write_text("eta_1,eta_2,xi\n1.0,2.0,2.0\n1.0,zap,9.0\n")
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"), "--input", str(bad)
        )
        assert code == 3
        assert "line 3" in err

    @pytest.mark.parametrize(
        "rows, line",
        [
            # the blank line 3 is counted
            pytest.param("1.0,2.0,2.0\n\n1.0,-1.0,9.0\n2.0,1.0,0.0\n", 4, id="eta"),
            pytest.param("1.0,2.0,2.0\n1.0,2.0,inf\n", 3, id="xi"),
        ],
    )
    def test_nonpositive_value_names_line(self, workspace, capsys, rows, line):
        cfg, _ = self._sampled(workspace, capsys)
        bad = workspace / "bad.csv"
        bad.write_text("eta_1,eta_2,xi\n" + rows)
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"), "--input", str(bad)
        )
        assert code == 3
        assert f"line {line}: " in err
        assert not (workspace / "e").exists()

    def test_sample_that_is_not_bivariate_is_input_error(self, workspace, capsys):
        cfg, _ = self._sampled(workspace, capsys)
        trivariate = workspace / "d3.csv"
        write_sample(trivariate, sample_experiment1(0.5, 0.5, 50, [RngStream(42)], d=3))
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"),
            "--input", str(trivariate),
        )
        assert code == 3
        assert "line 1: " in err
        assert not list(workspace.glob("e/estimate_*.csv"))

    def test_estimation_failure_exit_code(self, workspace, capsys):
        cfg, _ = self._sampled(workspace, capsys)
        bad = workspace / "const.csv"
        rows = "".join(f"{1.0 + 0.001 * i},{2.0 - 0.001 * i},1.0\n" for i in range(20))
        bad.write_text("eta_1,eta_2,xi\n" + rows)
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"), "--input", str(bad)
        )
        assert code == 4

    def test_failing_pair_leaves_no_output(self, workspace, capsys):
        # GPWM fits this xi (and is clamped), ML finds no sign change; the
        # P-GPWM pair comes first, yet nothing may be written
        cfg = write_config(
            workspace / "c.json",
            {"estimate": {"pairs": [{"pick": "P", "alpha": "GPWM"}, {"pick": "P", "alpha": "ML"}]}},
        )
        bad = workspace / "flat.csv"
        rows = "".join(
            f"{1.0 + 0.001 * i},{2.0 - 0.001 * i},{1.0 + 0.001 * i}\n" for i in range(20)
        )
        bad.write_text("eta_1,eta_2,xi\n" + rows)
        code, err = run_in_process(
            capsys, "estimate", "--config", cfg, "--out", str(workspace / "e"), "--input", str(bad)
        )
        assert code == 4
        assert "ML" in err
        assert not list(workspace.glob("e/estimate_*"))


class TestEvalCommand:
    @pytest.mark.parametrize(
        "alpha, size_branch, branch",
        [
            pytest.param(0.5, "frechet", "frechet_heavy", id="frechet_heavy"),
            pytest.param(1.0, "frechet", "frechet_unit", id="frechet_unit"),
            pytest.param(1.5, "frechet", "frechet_light", id="frechet_light"),
            pytest.param(0.5, "gumbel", "gumbel", id="gumbel"),
        ],
    )
    def test_summary_values(self, workspace, capsys, alpha, size_branch, branch):
        # the implied branch names the theta_Q row
        cfg = write_config(
            workspace / "c.json",
            {
                "eval": {
                    "model": {"family": "logistic", "psi": 0.5},
                    "alpha": alpha,
                    "size_branch": size_branch,
                    "grid_size": 21,
                }
            },
        )
        code, err = run_in_process(capsys, "eval", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 0, err
        rows = dict(
            line.split(",")
            for line in (workspace / "o" / "eval_summary.csv").read_text().strip().split("\n")[1:]
        )
        assert float(rows["theta_G"]) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        margins = (GevMargin("frechet"), GevMargin("frechet"))
        law = LimitLawQ(Logistic(0.5), margins, alpha, size_branch)
        assert [key for key in rows if key.startswith("theta_Q_")] == [f"theta_Q_{branch}"]
        assert float(rows[f"theta_Q_{branch}"]) == pytest.approx(law.theta(), rel=1e-12)
        if branch == "frechet_light":
            assert float(rows["theta_Q_frechet_light"]) == pytest.approx(2.41421356, abs=1e-8)

    @pytest.mark.parametrize("key, value", [("tail_z", [[1.0, 0.0]]), ("lambda_mn", [0.5])])
    def test_heavy_tail_keys_need_alpha_below_one(self, workspace, capsys, key, value):
        # the outputs of these keys exist only for alpha in (0, 1)
        block = dict(EVAL_BLOCK, alpha=1.5, **{key: value})
        cfg = write_config(workspace / "c.json", {"eval": block})
        code, err = run_in_process(capsys, "eval", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 2
        assert f"$.eval.{key}" in err
        assert not (workspace / "o").exists()

    def test_heavy_branch_tables(self, workspace, capsys):
        cfg = write_config(
            workspace / "c.json",
            {
                "eval": {
                    "model": {"family": "logistic", "psi": 0.5},
                    "alpha": 0.5,
                    "tail_z": [[1.0, 0.0], [1.0, 1.0]],
                    "tail_n": 100,
                    "lambda_mn": [0.5857864376269049],
                    "grid_size": 21,
                }
            },
        )
        code, err = run_in_process(capsys, "eval", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 0, err
        rows = dict(
            line.split(",")
            for line in (workspace / "o" / "eval_summary.csv").read_text().strip().split("\n")[1:]
        )
        scaled = extremal_coefficient(AlphaScaled(Logistic(0.5), 0.5))
        assert float(rows["theta_G_alpha"]) == pytest.approx(scaled, rel=1e-12)
        assert float(rows["theta_G_alpha"]) == pytest.approx(1.18920712, abs=1e-8)
        assert float(rows["lambda_X_from_lambda_MN_0.585786"]) == pytest.approx(0.0, abs=1e-12)
        tail = (workspace / "o" / "eval_tailprob.csv").read_text().strip().split("\n")
        assert tail[1].split(",")[-1] == "0.1"
        assert (workspace / "o" / "eval_curves.csv").exists()

    @pytest.mark.parametrize(
        "model",
        [
            pytest.param({"family": "independence", "dim": 3}, id="independence"),
            pytest.param({"family": "logistic", "psi": 0.9, "dim": 3}, id="logistic"),
        ],
    )
    def test_trivariate_model_has_no_bivariate_lambda(self, workspace, capsys, model):
        # theta_G is 3 and 2.69 here, beyond the bivariate range [1, 2] of lambda = 2 - theta
        cfg = write_config(workspace / "c.json", {"eval": {"model": model, "alpha": 0.5}})
        code, err = run_in_process(capsys, "eval", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 0, err
        summary = (workspace / "o" / "eval_summary.csv").read_text()
        rows = dict(line.split(",") for line in summary.strip().split("\n")[1:])
        assert not [key for key in rows if key.startswith("lambda")]
        theta = 3.0 ** model.get("psi", 1.0)
        assert float(rows["theta_G"]) == pytest.approx(theta, rel=1e-12)


EXPERIMENT_BLOCK = {
    "experiment": 1,
    "alpha": [0.5],
    "psi": [0.5, 1.0],
    "n": [50],
    "replications": 6,
    "pairs": [{"pick": "CFG", "alpha": "GPWM"}, {"pick": "CFG", "alpha": "ML"}],
    "seed": 3,
    "grid_size": 41,
}


class TestExperimentCommands:
    def test_experiment_outputs(self, workspace, capsys):
        cfg = write_config(workspace / "c.json", {"experiment": EXPERIMENT_BLOCK})
        code, err = run_in_process(
            capsys, "experiment", "--config", cfg, "--out", str(workspace / "o")
        )
        assert code == 0, err
        assert (workspace / "o" / "results.csv").exists()
        assert (workspace / "o" / "run_report.txt").exists()

    def test_figures_outputs_and_idempotence(self, workspace, capsys):
        cfg = write_config(workspace / "c.json", {"experiment": EXPERIMENT_BLOCK})
        for out in ("a", "b"):
            code, err = run_in_process(
                capsys, "figures", "--config", cfg, "--out", str(workspace / out)
            )
            assert code == 0, err
        names = ["results.csv", "figure_mise_gpwm.csv", "figure_mise_ml.csv",
                 "figure_ratio_gpwm_ml.csv"]
        for name in names:
            assert (workspace / "a" / name).read_bytes() == (workspace / "b" / name).read_bytes()
        ratio = (workspace / "a" / "figure_ratio_gpwm_ml.csv").read_text().strip().split("\n")
        assert ratio[0].endswith("ratio_MISE,ratio_ISB,ratio_IV")
        assert len(ratio) == 3  # one row per (psi, pick)

    def test_jobs_override_keeps_bytes(self, workspace, capsys):
        cfg = write_config(workspace / "c.json", {"experiment": EXPERIMENT_BLOCK})
        run_in_process(capsys, "experiment", "--config", cfg, "--out", str(workspace / "a"))
        run_in_process(
            capsys, "experiment", "--config", cfg, "--out", str(workspace / "b"), "--jobs", "2"
        )
        assert (workspace / "a" / "results.csv").read_bytes() == (
            workspace / "b" / "results.csv"
        ).read_bytes()

    def test_missing_block_for_subcommand(self, workspace, capsys):
        cfg = write_config(workspace / "c.json", {"sample": SAMPLE_BLOCK})
        code, _ = run_in_process(
            capsys, "experiment", "--config", cfg, "--out", str(workspace / "o")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "subcommand, block",
        [
            pytest.param("experiment", {"experiment": EXPERIMENT_BLOCK}, id="experiment"),
            pytest.param("figures", {"experiment": EXPERIMENT_BLOCK}, id="figures"),
            pytest.param("sample", {"sample": SAMPLE_BLOCK}, id="sample"),
            pytest.param(
                "estimate",
                {"estimate": {"pairs": [{"pick": "CFG", "alpha": "GPWM"}]}},
                id="estimate",
            ),
            pytest.param("eval", {"eval": EVAL_BLOCK}, id="eval"),
        ],
    )
    def test_unwritable_output_is_io_error(self, workspace, capsys, subcommand, block):
        cfg = write_config(workspace / "c.json", block)
        drawn = sample_experiment1(0.5, 0.5, 100, [RngStream(4)])
        sample = write_sample(workspace / "s.csv", drawn)
        extra = ["--input", sample] if subcommand == "estimate" else []
        blocker = workspace / "blocker"
        blocker.write_text("not a directory")
        code, _ = run_in_process(
            capsys, subcommand, "--config", cfg, "--out", str(blocker / "sub"), *extra
        )
        assert code == 5


EXPERIMENT2_BLOCK = dict(
    {k: v for k, v in EXPERIMENT_BLOCK.items() if k != "psi"},
    experiment=2, rho=[0.5], upsilon=[1.0],
)


class TestCrossFieldRules:
    @pytest.mark.parametrize(
        "subcommand, payload, field",
        [
            (
                "sample",
                {"sample": {k: v for k, v in SAMPLE_BLOCK.items() if k != "psi"}},
                "$.sample.psi",
            ),
            (
                "experiment",
                {"experiment": {k: v for k, v in EXPERIMENT_BLOCK.items() if k != "psi"}},
                "$.experiment.psi",
            ),
            (
                "sample",
                {"sample": {k: v for k, v in SAMPLE2_BLOCK.items() if k != "upsilon"}},
                "$.sample.upsilon",
            ),
            ("sample", {"sample": dict(SAMPLE2_BLOCK, d=3)}, "$.sample.d"),
            (
                "estimate",
                {"estimate": {"pairs": EXPERIMENT_BLOCK["pairs"], "grid_size": 40}},
                "$.estimate.grid_size",
            ),
            ("experiment", {"experiment": dict(EXPERIMENT_BLOCK, grid_size=40)},
             "$.experiment.grid_size"),
            # fields the chosen pipeline never reads
            ("sample", {"sample": dict(SAMPLE_BLOCK, inner_size=20)}, "$.sample.inner_size"),
            ("sample", {"sample": dict(SAMPLE_BLOCK, rho=0.5)}, "$.sample.rho"),
            ("experiment", {"experiment": dict(EXPERIMENT_BLOCK, rho=[0.5])}, "$.experiment.rho"),
            ("sample", {"sample": dict(SAMPLE2_BLOCK, psi=0.5)}, "$.sample.psi"),
            ("experiment", {"experiment": dict(EXPERIMENT2_BLOCK, psi=[0.5])},
             "$.experiment.psi"),
            ("eval", {"eval": dict(EVAL_BLOCK, tail_n=100)}, "$.eval.tail_n"),
            ("eval", {"eval": dict(EVAL_BLOCK, tail_z=[[1.0, 0.0], [1.0, 1.0, 1.0]])},
             "$.eval.tail_z[1]"),
            # the theta_Q branch follows from alpha and size_branch, so it is not a key
            ("eval", {"eval": dict(EVAL_BLOCK, branches=["frechet_heavy"])}, "$.eval"),
            # only a bivariate model has eval_curves.csv
            (
                "eval",
                {"eval": dict(EVAL_BLOCK, model=dict(EVAL_BLOCK["model"], dim=3), grid_size=21)},
                "$.eval.grid_size",
            ),
            # the recovered coefficient 2 - 1.8^2 is negative
            ("eval", {"eval": dict(EVAL_BLOCK, lambda_mn=[0.9, 0.2])}, "$.eval.lambda_mn[1]"),
            # both entries would be named lambda_X_from_lambda_MN_0.8
            ("eval", {"eval": dict(EVAL_BLOCK, lambda_mn=[0.8, 0.8000001])},
             "$.eval.lambda_mn[1]"),
            ("eval", {"eval": dict(EVAL_BLOCK, lambda_mn=[0.8, 0.8])}, "$.eval.lambda_mn[1]"),
            # GPWM's moment mu_(1,k-1) exists only for alpha > 1/k
            ("experiment", {"experiment": dict(EXPERIMENT_BLOCK, alpha=[0.5, 0.2])},
             "$.experiment.alpha[1]"),
            ("experiment", {"experiment": dict(EXPERIMENT_BLOCK, k=2)}, "$.experiment.alpha[0]"),
            # a pair listed twice would write its rows and its file twice
            (
                "estimate",
                {"estimate": {"pairs": [{"pick": "CFG", "alpha": "GPWM"}] * 2}},
                "$.estimate.pairs",
            ),
            (
                "experiment",
                {"experiment": dict(EXPERIMENT_BLOCK, pairs=EXPERIMENT_BLOCK["pairs"] * 2)},
                "$.experiment.pairs",
            ),
        ],
    )
    def test_violation_exits_2_naming_the_field(
        self, workspace, capsys, subcommand, payload, field
    ):
        cfg = write_config(workspace / "c.json", payload)
        extra = ("--input", str(workspace / "sample.csv")) if subcommand == "estimate" else ()
        code, err = run_in_process(
            capsys, subcommand, "--config", cfg, "--out", str(workspace / "o"), *extra
        )
        assert code == 2
        assert f"{field}:" in err
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize(
        "block",
        [
            dict(EXPERIMENT_BLOCK, alpha=[0.21]),
            # the bound applies to GPWM pairs only
            dict(EXPERIMENT_BLOCK, alpha=[0.2], pairs=[{"pick": "CFG", "alpha": "ML"}]),
        ],
        ids=["gpwm-above-bound", "ml-only"],
    )
    def test_alpha_the_tail_fit_can_estimate_is_accepted(self, workspace, block):
        cfg = write_config(workspace / "c.json", {"experiment": block})
        assert load_config(cfg)["experiment"] == block

    def test_distinct_lambda_mn_names_are_accepted(self, workspace, capsys):
        block = dict(EVAL_BLOCK, lambda_mn=[0.8, 0.800001, 1])
        cfg = write_config(workspace / "c.json", {"eval": block})
        code, err = run_in_process(capsys, "eval", "--config", cfg, "--out", str(workspace / "o"))
        assert code == 0, err
        names = [
            line.split(",")[0]
            for line in (workspace / "o" / "eval_summary.csv").read_text().splitlines()
        ]
        assert names[-3:] == [
            "lambda_X_from_lambda_MN_0.8",
            "lambda_X_from_lambda_MN_0.800001",
            "lambda_X_from_lambda_MN_1",
        ]

    @pytest.mark.parametrize(
        "subcommand, flag", [("eval", "--jobs"), ("estimate", "--seed"), ("sample", "--jobs")]
    )
    def test_flag_the_subcommand_never_reads_exits_2(self, workspace, capsys, subcommand, flag):
        cfg = write_config(workspace / "c.json", {"sample": SAMPLE_BLOCK, "eval": EVAL_BLOCK})
        extra = ("--input", str(workspace / "sample.csv")) if subcommand == "estimate" else ()
        code, err = run_in_process(
            capsys, subcommand, "--config", cfg, "--out", str(workspace / "o"), flag, "1", *extra
        )
        assert code == 2
        assert flag in err
        assert not (workspace / "o").exists()


class TestConfigIntegers:
    # JSON Schema alone counts a whole float such as 3.0 as an integer; the
    # seed and replication count below then crashed with a TypeError
    @pytest.mark.parametrize(
        "subcommand, payload, field",
        [
            ("sample", {"sample": dict(SAMPLE_BLOCK, seed=1.0)}, "$.sample.seed"),
            ("sample", {"sample": dict(SAMPLE_BLOCK, n=20.0)}, "$.sample.n"),
            ("experiment", {"experiment": dict(EXPERIMENT_BLOCK, replications=3.0)},
             "$.experiment.replications"),
            ("experiment", {"experiment": dict(EXPERIMENT_BLOCK, n=[50.0])}, "$.experiment.n[0]"),
            ("experiment", {"experiment": dict(EXPERIMENT2_BLOCK, inner_size=20.0)},
             "$.experiment.inner_size"),
            ("estimate", {"estimate": {"pairs": EXPERIMENT_BLOCK["pairs"], "k": 3.0}},
             "$.estimate.k"),
            ("eval", {"eval": dict(EVAL_BLOCK, grid_size=21.0)}, "$.eval.grid_size"),
            # a bool is not an integer either
            ("sample", {"sample": dict(SAMPLE_BLOCK, seed=True)}, "$.sample.seed"),
        ],
    )
    def test_whole_float_exits_2_naming_the_field(
        self, workspace, capsys, subcommand, payload, field
    ):
        cfg = write_config(workspace / "c.json", payload)
        extra = ("--input", str(workspace / "sample.csv")) if subcommand == "estimate" else ()
        code, err = run_in_process(
            capsys, subcommand, "--config", cfg, "--out", str(workspace / "o"), *extra
        )
        assert code == 2
        assert f"{field}: " in err and "is not of type 'integer'" in err
        assert not (workspace / "o").exists()


def test_parser_is_built_once_and_parses_as_a_fresh_one():
    # main reuses one parser per process; each command line in turn must
    # give the Namespace a parser built for it alone gives
    assert cli.build_parser() is cli.build_parser()
    lines = [
        ["sample", "--config", "c.json", "--out", "o", "--seed", "3"],
        ["estimate", "--config", "c.json", "--out", "o", "--input", "s.csv"],
        ["figures", "--config", "c.json", "--out", "o", "--jobs", "2"],
        ["sample", "--config", "c.json", "--out", "o"],
    ]
    for argv in lines:
        fresh = cli.build_parser.__wrapped__().parse_args(argv)
        assert cli.build_parser().parse_args(argv) == fresh
