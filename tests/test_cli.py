import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randmax
from randmax.depcore import AlphaScaled, Logistic, extremal_coefficient

# the CLI runs from the same source tree the tests import
_CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(randmax.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "randmax", *args], capture_output=True, text=True, env=_CLI_ENV
    )


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    return tmp_path


SAMPLE_BLOCK = {"experiment": 1, "psi": 0.5, "alpha": 0.5, "n": 100, "seed": 42}


class TestSampleCommand:
    def test_deterministic_reruns(self, workspace):
        cfg = write_config(workspace / "c.json", {"sample": SAMPLE_BLOCK})
        for out in ("a", "b"):
            r = run_cli("sample", "--config", cfg, "--out", str(workspace / out))
            assert r.returncode == 0, r.stderr
        a = (workspace / "a" / "sample.csv").read_bytes()
        b = (workspace / "b" / "sample.csv").read_bytes()
        assert a == b
        assert (workspace / "a" / "sample.csv.meta").exists()

    def test_row_count_and_dimension(self, workspace):
        block = dict(SAMPLE_BLOCK, d=3, n=37)
        cfg = write_config(workspace / "c.json", {"sample": block})
        assert run_cli("sample", "--config", cfg, "--out", str(workspace / "o")).returncode == 0
        lines = (workspace / "o" / "sample.csv").read_text().strip().split("\n")
        assert lines[0] == "eta_1,eta_2,eta_3,xi"
        assert len(lines) == 38

    def test_seed_override_changes_output(self, workspace):
        cfg = write_config(workspace / "c.json", {"sample": SAMPLE_BLOCK})
        run_cli("sample", "--config", cfg, "--out", str(workspace / "a"))
        run_cli("sample", "--config", cfg, "--out", str(workspace / "b"), "--seed", "43")
        assert (workspace / "a" / "sample.csv").read_bytes() != (
            workspace / "b" / "sample.csv"
        ).read_bytes()

    def test_schema_violation_reports_path(self, workspace):
        cfg = write_config(workspace / "c.json", {"sample": dict(SAMPLE_BLOCK, psi=1.5)})
        r = run_cli("sample", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 2
        assert "$.sample.psi" in r.stderr

    def test_missing_config_file(self, workspace):
        r = run_cli("sample", "--config", str(workspace / "nope.json"), "--out", str(workspace / "o"))
        assert r.returncode == 2

    def test_experiment2_sampling(self, workspace):
        block = {"experiment": 2, "rho": 0.5, "upsilon": 1.0, "alpha": 0.5, "n": 10,
                 "inner_size": 20, "seed": 7}
        cfg = write_config(workspace / "c.json", {"sample": block})
        r = run_cli("sample", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 0, r.stderr
        lines = (workspace / "o" / "sample.csv").read_text().strip().split("\n")
        assert len(lines) == 11

    def test_small_inner_size_names_the_field(self, workspace):
        block = {"experiment": 2, "rho": -0.5, "upsilon": 1.0, "alpha": 0.5, "n": 50,
                 "inner_size": 1, "seed": 7}
        cfg = write_config(workspace / "c.json", {"sample": block})
        r = run_cli("sample", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 2
        assert "inner_size" in r.stderr

    @pytest.mark.parametrize("subcommand", ["sample", "experiment"])
    def test_removed_cap_key_is_rejected(self, workspace, subcommand):
        # block sizes are no longer truncated, so a config that still sets the
        # old cap is an error; the key is assembled so that no source names it
        key = "_".join(["block", "cap"])
        block = {"experiment": 2, "rho": 0.5, "upsilon": 1.0, "alpha": 0.5, "n": 10}
        if subcommand == "experiment":
            block = {name: [value] for name, value in block.items() if name != "experiment"}
            block.update(experiment=2, replications=2, pairs=[{"pick": "P", "alpha": "GPWM"}])
        cfg = write_config(workspace / "c.json", {subcommand: dict(block, **{key: 10})})
        r = run_cli(subcommand, "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 2
        assert key in r.stderr

    def test_build_description_runs_git_once(self, workspace, monkeypatch):
        from randmax import cli

        calls = []

        def fake_run(*args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, stdout="v0-test\n", stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        cli._build_description.cache_clear()
        try:
            cli._write_sidecar(workspace / "a.csv", {"command": "sample"})
            cli._write_sidecar(workspace / "b.csv", {"command": "estimate"})
        finally:
            cli._build_description.cache_clear()
        assert len(calls) == 1
        assert "build=v0-test" in (workspace / "b.csv.meta").read_text()


class TestEstimateCommand:
    def _sampled(self, workspace):
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
        run_cli("sample", "--config", cfg, "--out", str(workspace / "s"))
        return cfg, workspace / "s" / "sample.csv"

    def test_round_trip(self, workspace):
        cfg, sample = self._sampled(workspace)
        r = run_cli("estimate", "--config", cfg, "--out", str(workspace / "e"),
                    "--input", str(sample))
        assert r.returncode == 0, r.stderr
        for label in ("CFG-ML", "P-GPWM"):
            out = workspace / "e" / f"estimate_{label}.csv"
            lines = out.read_text().strip().split("\n")
            assert len(lines) == 42
            assert lines[0].startswith("t,A_alpha_hat,A_star_hat,A_hat,alpha_hat")

    def test_missing_xi_column(self, workspace):
        cfg, _ = self._sampled(workspace)
        bad = workspace / "bad.csv"
        bad.write_text("eta_1,eta_2\n1.0,2.0\n2.0,1.0\n")
        r = run_cli("estimate", "--config", cfg, "--out", str(workspace / "e"),
                    "--input", str(bad))
        assert r.returncode == 3

    def test_malformed_row_names_line(self, workspace):
        cfg, _ = self._sampled(workspace)
        bad = workspace / "bad.csv"
        bad.write_text("eta_1,eta_2,xi\n1.0,2.0,2.0\n1.0,zap,9.0\n")
        r = run_cli("estimate", "--config", cfg, "--out", str(workspace / "e"),
                    "--input", str(bad))
        assert r.returncode == 3
        assert "line 3" in r.stderr

    def test_estimation_failure_exit_code(self, workspace):
        cfg, _ = self._sampled(workspace)
        bad = workspace / "const.csv"
        rows = "".join(f"{1.0 + 0.001 * i},{2.0 - 0.001 * i},1.0\n" for i in range(20))
        bad.write_text("eta_1,eta_2,xi\n" + rows)
        r = run_cli("estimate", "--config", cfg, "--out", str(workspace / "e"),
                    "--input", str(bad))
        assert r.returncode == 4


class TestEvalCommand:
    def test_summary_values(self, workspace):
        cfg = write_config(
            workspace / "c.json",
            {
                "eval": {
                    "model": {"family": "logistic", "psi": 0.5},
                    "alpha": 1.5,
                    "grid_size": 21,
                }
            },
        )
        r = run_cli("eval", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 0, r.stderr
        rows = dict(
            line.split(",")
            for line in (workspace / "o" / "eval_summary.csv").read_text().strip().split("\n")[1:]
        )
        assert float(rows["theta_G"]) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert float(rows["theta_Q_frechet_light"]) == pytest.approx(2.41421356, abs=1e-8)

    def test_heavy_branch_tables(self, workspace):
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
        r = run_cli("eval", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 0, r.stderr
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

    def test_branch_mismatch_is_config_error(self, workspace):
        cfg = write_config(
            workspace / "c.json",
            {
                "eval": {
                    "model": {"family": "logistic", "psi": 0.5},
                    "alpha": 0.5,
                    "branches": ["frechet_unit"],
                }
            },
        )
        r = run_cli("eval", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 2
        assert "frechet_unit" in r.stderr


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
    def test_experiment_outputs(self, workspace):
        cfg = write_config(workspace / "c.json", {"experiment": EXPERIMENT_BLOCK})
        r = run_cli("experiment", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 0, r.stderr
        assert (workspace / "o" / "results.csv").exists()
        assert (workspace / "o" / "run_report.txt").exists()

    def test_figures_outputs_and_idempotence(self, workspace):
        cfg = write_config(workspace / "c.json", {"experiment": EXPERIMENT_BLOCK})
        for out in ("a", "b"):
            r = run_cli("figures", "--config", cfg, "--out", str(workspace / out))
            assert r.returncode == 0, r.stderr
        names = ["results.csv", "figure_mise_gpwm.csv", "figure_mise_ml.csv",
                 "figure_ratio_gpwm_ml.csv"]
        for name in names:
            assert (workspace / "a" / name).read_bytes() == (workspace / "b" / name).read_bytes()
        ratio = (workspace / "a" / "figure_ratio_gpwm_ml.csv").read_text().strip().split("\n")
        assert ratio[0].endswith("ratio_MISE,ratio_ISB,ratio_IV")
        assert len(ratio) == 3  # one row per (psi, pick)

    def test_jobs_override_keeps_bytes(self, workspace):
        cfg = write_config(workspace / "c.json", {"experiment": EXPERIMENT_BLOCK})
        run_cli("experiment", "--config", cfg, "--out", str(workspace / "a"))
        run_cli("experiment", "--config", cfg, "--out", str(workspace / "b"), "--jobs", "2")
        assert (workspace / "a" / "results.csv").read_bytes() == (
            workspace / "b" / "results.csv"
        ).read_bytes()

    def test_missing_block_for_subcommand(self, workspace):
        cfg = write_config(workspace / "c.json", {"sample": SAMPLE_BLOCK})
        r = run_cli("experiment", "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 2

    def test_unwritable_output_is_io_error(self, workspace):
        cfg = write_config(workspace / "c.json", {"experiment": EXPERIMENT_BLOCK})
        blocker = workspace / "blocker"
        blocker.write_text("not a directory")
        r = run_cli("experiment", "--config", cfg, "--out", str(blocker / "sub"))
        assert r.returncode == 5


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
                {"sample": {"experiment": 2, "rho": 0.5, "alpha": 0.5, "n": 10}},
                "$.sample.upsilon",
            ),
            (
                "sample",
                {"sample": {"experiment": 2, "rho": 0.5, "upsilon": 1.0, "alpha": 0.5, "n": 10,
                            "d": 3}},
                "$.sample.d",
            ),
        ],
    )
    def test_violation_exits_2_naming_the_field(self, workspace, subcommand, payload, field):
        cfg = write_config(workspace / "c.json", payload)
        r = run_cli(subcommand, "--config", cfg, "--out", str(workspace / "o"))
        assert r.returncode == 2
        assert field in r.stderr
