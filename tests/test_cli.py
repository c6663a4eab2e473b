import json
import os
import subprocess
import sys

import numpy as np
import pytest

from abtroika import cli, decoherence
from abtroika.config import ConfigError, RunConfig
from abtroika.cli import run

SMALL = """
# small, fast configuration for pipeline tests
beta = 0.3
lam = 1.0
eta = 0.01
sweep_beta = 0.2, 0.3
sweep_lambda = 0.5, 1.0, 2.0, 4.0
kmax_sigma_physical = 8.0
mode_grid_n = 4
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --------------------------------------------------------------------- config

def test_config_defaults_and_roundtrip():
    cfg = RunConfig()
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg


def test_config_parses_comments_and_lists():
    cfg = RunConfig.from_text("beta = 0.2  # speed\nsweep_lambda = 1, 2, 4\n")
    assert cfg.beta == 0.2
    assert cfg.sweep_lambda == (1.0, 2.0, 4.0)


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_text("betaa = 0.2\n")


def test_config_invariants_enforced():
    with pytest.raises(ConfigError, match="beta"):
        RunConfig.from_text("beta = 1.5\n")
    with pytest.raises(ConfigError, match="a < R"):
        RunConfig.from_text("a_over_r = 1.5\n")


def test_missing_config_exit_2(tmp_path):
    code = run("divergence", str(tmp_path / "nope.cfg"), str(tmp_path))
    assert code == 2


def test_invalid_beta_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, "beta = 1.5\n")
    assert run("divergence", cfg, str(tmp_path)) == 2
    assert "beta" in capsys.readouterr().err


def test_unknown_subcommand_exit_2(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\n")
    assert run("bogus", cfg, str(tmp_path)) == 2


# ------------------------------------------------------------------- pipeline

def test_divergence_stage_end_to_end(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\n")
    out = tmp_path / "out"
    assert run("divergence", cfg, str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["all_pass"] is True
    assert rep["checks"]["divergence_loglog_slope"]["pass"] is True
    assert rep["divergence"]["sign"] == "negative"
    csv_text = (out / "sweep_divergence.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "eps,a_regulated"
    assert len(lines) == 1 + len(RunConfig().eps_sequence)
    assert "\r" not in csv_text


def test_report_determinism_except_timestamps(tmp_path):
    cfg = write(tmp_path, "beta = 0.25\n")
    outs = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        assert run("divergence", cfg, str(out)) == 0
        rep = json.loads((out / "report.json").read_text())
        rep["provenance"].pop("timestamps")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_report_floats_17_digits(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\n")
    out = tmp_path / "out"
    assert run("divergence", cfg, str(out)) == 0
    text = (out / "report.json").read_text()
    rep = json.loads(text)
    # round-trip exactness of a representative float
    val = rep["divergence"]["a_regulated"][0]
    assert format(val, ".17g") in text


def test_config_echo_reparses(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\nsweep_lambda = 1, 2, 4\n")
    out = tmp_path / "out"
    assert run("divergence", cfg, str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    echoed = RunConfig.from_text(rep["provenance"]["config_echo"])
    assert echoed == RunConfig.from_file(cfg)


def test_decoherence_sweep_parallel_matches_serial(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\nsweep_beta = 0.3\n"
                          "sweep_lambda = 1.0, 2.0\nkmax_sigma_physical = 8.0\n")
    rows = {}
    for jobs, sub in ((1, "serial"), (2, "parallel")):
        out = tmp_path / sub
        assert run("decoherence", cfg, str(out), jobs=jobs) == 0
        rows[sub] = (out / "sweep_decoherence.csv").read_text()
    assert rows["serial"] == rows["parallel"]


def test_decoherence_stage_small(tmp_path):
    cfg = write(tmp_path, SMALL)
    out = tmp_path / "out"
    assert run("decoherence", cfg, str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"]["a1_lambda_slope"]["pass"] is True
    assert rep["checks"]["a2_over_a1_beta_squared"]["pass"] is True
    csv_lines = (out / "sweep_decoherence.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "beta,lambda,a1,a2,a_total,visibility,phase_c1,err_a1,err_a2"
    assert len(csv_lines) == 1 + 2 * 4


def test_decoherence_stage_bad_bessel_sum_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(decoherence, "jv",
                        lambda n, x: np.full(np.broadcast(n, x).shape, np.nan))
    cfg = write(tmp_path, SMALL)
    assert run("decoherence", cfg, str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "numerical failure in stage 'decoherence'" in err
    assert "beta = 0.3, lam = 1 on the k-segment" in err


def test_modes_stage_small(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\nmode_grid_n = 4\n")
    out = tmp_path / "out"
    assert run("modes", cfg, str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    mc = rep["mode_checks"]
    assert mc["riccati_stationarity"] == 0.0
    assert mc["constant_drive_vs_closed_form"] < 1e-8
    assert mc["overlap_identity_random"] < 1e-8
    assert rep["checks"]["photon_number_drift"]["pass"] is True
    snapshot = np.loadtxt(out / "mode_state.txt")
    assert snapshot.shape[1] == 7  # kx ky kz pol re im weight


def test_phases_stage_small(tmp_path):
    cfg = write(tmp_path, "beta = 0.1\n")
    out = tmp_path / "out"
    assert run("phases", cfg, str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"]["identity_eq15"]["pass"] is True
    assert rep["checks"]["naive_double_count"]["pass"] is True
    pr = rep["phase_report"]
    np.testing.assert_allclose(pr["phi2"], pr["phi21"] + pr["phi22"], rtol=1e-12)


def test_phases_stage_builds_one_solenoid_table(table_builds):
    # phi1 at eta and its 2 eta sensitivity rerun share one potential table
    cfg = RunConfig.from_text("beta = 0.3\nn_loops = 10\nrho_max_over_r = 2\n")
    payload, _ = cli.stage_phases(cfg)
    assert len(table_builds) == 1
    assert payload["phase_report"]["identity_residuals"]["phi1_eta_sensitivity"] > 0


def test_console_entry_point(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "abtroika.cli", "divergence", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "divergence_loglog_slope: pass" in proc.stdout


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        from abtroika.cli import main
        main(["phases"])  # --config missing
    assert exc.value.code == 2
