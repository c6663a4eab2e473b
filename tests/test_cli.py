import concurrent.futures
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from abtroika import cli, decoherence
from abtroika.config import ConfigError, RunConfig
from abtroika.geometry import Sense, SmearingProfile, SmearKind, TrajectoryHalfCircle
from abtroika.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent

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


@pytest.mark.parametrize("eta", ["0", "-0.01", "0.5"])
def test_invalid_eta_exit_2_without_report(tmp_path, capsys, eta):
    cfg = write(tmp_path, f"eta = {eta}\n")
    out = tmp_path / "out"
    assert run("phases", cfg, str(out)) == 2
    assert "eta" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("line, key", [
    ("flux = 0", "flux"),
    ("rho_max_over_r = 0", "rho_max_over_r"),
    ("sweep_beta = 0.1, 1.5", "sweep_beta"),
    ("sweep_lambda = 1.0, -1", "sweep_lambda"),
    ("kmax_sigma_physical = 0", "kmax_sigma_physical"),
    ("max_subdivisions = 0", "max_subdivisions"),
    ("seed = -5", "seed"),
])
def test_invalid_value_exit_2_without_report(tmp_path, capsys, line, key):
    cfg = write(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert run("all", cfg, str(out)) == 2
    assert key in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("line, key", [
    ("quad_abs_tol = nan", "quad_abs_tol"),
    ("rho_max_over_r = nan", "rho_max_over_r"),
    ("flux = nan", "flux"),
    ("kmax_sigma_physical = nan", "kmax_sigma_physical"),
    ("kmax_sigma = nan", "kmax_sigma"),
    ("lam = inf", "lam"),
    ("fine_structure = inf", "fine_structure"),
    ("sweep_lambda = 1.0, inf", "sweep_lambda"),
    ("eps_sequence = 0.02, 0.01, -inf", "eps_sequence"),
])
def test_non_finite_value_exit_2_without_report(tmp_path, capsys, line, key):
    # a NaN compares false with every bound, so range checks alone let it by
    cfg = write(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert run("all", cfg, str(out)) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_all_runs_the_module_stage_functions_in_order(tmp_path, monkeypatch):
    # the benchmark times stages by replacing cli.stage_*; run() must call
    # whatever is installed there when it runs
    order = []
    for name in ("phases", "decoherence", "modes", "divergence"):
        monkeypatch.setattr(cli, f"stage_{name}",
                            lambda *args, name=name: order.append(name) or ({}, []))
    assert run("all", write(tmp_path, "beta = 0.3\n"), str(tmp_path / "out")) == 0
    assert order == ["phases", "decoherence", "modes", "divergence"]


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


def test_report_floats_shortest_round_trip(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\n")
    out = tmp_path / "out"
    assert run("divergence", cfg, str(out)) == 0
    tokens = []
    json.loads((out / "report.json").read_text(),
               parse_float=lambda tok: tokens.append(tok) or float(tok))
    assert tokens
    # every float is written as repr(val): the shortest string that reads
    # back to the same double
    assert all(tok == repr(float(tok)) for tok in tokens)


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
    rows, reports = {}, {}
    for jobs, sub in ((1, "serial"), (2, "parallel")):
        out = tmp_path / sub
        assert run("decoherence", cfg, str(out), jobs=jobs) == 0
        rows[sub] = (out / "sweep_decoherence.csv").read_text()
        reports[sub] = json.loads((out / "report.json").read_text())
        reports[sub]["provenance"].pop("timestamps")
    assert rows["serial"] == rows["parallel"]
    assert reports["serial"] == reports["parallel"]


def test_decoherence_pool_no_larger_than_its_points(tmp_path, monkeypatch):
    # the pool is faked: no worker process is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = write(tmp_path, "beta = 0.3\nsweep_beta = 0.3\n"
                          "sweep_lambda = 1.0, 2.0\nkmax_sigma_physical = 8.0\n")
    assert run("decoherence", cfg, str(tmp_path / "out"), jobs=64) == 0
    assert sizes == [2]


def _counted_visibility_reports(monkeypatch):
    calls = []
    real = cli.visibility_report

    def counted(beta, lam, *args, **kwargs):
        calls.append((beta, lam))
        return real(beta, lam, *args, **kwargs)

    monkeypatch.setattr(cli, "visibility_report", counted)
    return calls


def test_decoherence_stage_evaluates_each_point_once(tmp_path, monkeypatch):
    # the main point (0.1, 2) of the benchmark config is also a sweep point
    ref_path = ROOT / "perfbench" / "reference" / "decoherence-sweep.json"
    ref = json.loads(ref_path.read_text())["report"]
    calls = _counted_visibility_reports(monkeypatch)
    cfg = write(tmp_path, ref["provenance"]["config_echo"])
    assert run("decoherence", cfg, str(tmp_path / "out"), jobs=1) == 1
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == 6


def test_decoherence_stage_main_point_off_grid(tmp_path, monkeypatch):
    calls = _counted_visibility_reports(monkeypatch)
    cfg = write(tmp_path, "beta = 0.3\nlam = 1.5\nsweep_beta = 0.2, 0.3\n"
                          "sweep_lambda = 1.0, 2.0\nkmax_sigma_physical = 8.0\n")
    out = tmp_path / "out"
    assert run("decoherence", cfg, str(out), jobs=1) == 0
    assert len(calls) == 2 * 2 + 1
    rep = json.loads((out / "report.json").read_text())
    params = rep["overlap_result"]["parameters"]
    assert (params["beta"], params["lam"]) == (0.3, 1.5)
    lines = (out / "sweep_decoherence.csv").read_text().strip().split("\n")[1:]
    assert [tuple(map(float, ln.split(",")[:2])) for ln in lines] == [
        (0.2, 1.0), (0.2, 2.0), (0.3, 1.0), (0.3, 2.0)]


def test_decoherence_stage_attaches_overlap_phase(tmp_path, monkeypatch):
    seen = []

    def stub(traj, smear):
        seen.append((traj, smear))
        return 3e-9, 0.01

    monkeypatch.setattr(cli, "phase_c1_check", stub)
    cfg = write(tmp_path, "beta = 0.3\nlam = 2.0\ncompute_phase = true\n"
                          "sweep_beta = 0.3\nsweep_lambda = 1.0, 2.0\n"
                          "kmax_sigma_physical = 8.0\n")
    out = tmp_path / "out"
    assert run("decoherence", cfg, str(out)) == 0
    # once, for the main point, on the unit-radius traverse and its line smear
    assert seen == [(TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT),
                     SmearingProfile(SmearKind.LINE_Z, 2.0))]
    rep = json.loads((out / "report.json").read_text())
    res = rep["overlap_result"]
    assert (res["overlap_phase"], res["phase_scale"]) == (3e-9, 0.01)
    assert [row[6] for row in rep["sweep"]["rows"]] == [0.0, 0.0]
    lines = (out / "sweep_decoherence.csv").read_text().strip().split("\n")[1:]
    assert [ln.split(",")[6] for ln in lines] == ["0", "0"]
    phase_check = rep["checks"]["overlap_phase_cancellation"]
    assert phase_check["value"] == 3e-9 / 0.01
    assert phase_check["pass"] is True


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


def test_decoherence_stage_matches_reference_structure(tmp_path):
    # the benchmark's reference report fixes the structure: no result field,
    # column, check or config key may appear or vanish without recapturing it
    ref_path = ROOT / "perfbench" / "reference" / "decoherence-sweep.json"
    ref = json.loads(ref_path.read_text())["report"]
    cfg = write(tmp_path, ref["provenance"]["config_echo"])
    out = tmp_path / "out"
    # the sweep keeps the beta = 0.05 points where a2_over_a1_beta_squared fails
    assert run("decoherence", cfg, str(out)) == 1
    rep = json.loads((out / "report.json").read_text())
    assert sorted(rep["overlap_result"]) == sorted(ref["overlap_result"])
    assert rep["sweep"]["header"] == ref["sweep"]["header"]
    assert sorted(rep["checks"]) == sorted(ref["checks"])
    assert sorted(rep["provenance"]["config"]) == sorted(ref["provenance"]["config"])


def test_decoherence_stage_bad_bessel_sum_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(decoherence, "_bessel_square_sums",
                        lambda x, c: np.full(c.shape[:1] + x.shape, np.nan))
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
    # kx ky kz pol re im weight: the k_z > 0 half of the 4^3 grid, two
    # in-plane polarizations, doubled weights
    assert snapshot.shape == (2 * 32, 7)
    assert np.all(snapshot[:, 2] > 0)
    assert set(snapshot[:, 3]) == {0.0, 1.0}
    dk = 2 * 6.0 / 4
    np.testing.assert_allclose(snapshot[:, 6], 2 * dk**3, rtol=1e-15)
    # the benchmark's reference report fixes the structure: no residual,
    # check or config key may appear or vanish without recapturing it
    ref_path = ROOT / "perfbench" / "reference" / "modes-n6.json"
    ref = json.loads(ref_path.read_text())["report"]
    assert sorted(mc) == sorted(ref["mode_checks"])
    assert sorted(rep["checks"]) == sorted(ref["checks"])
    assert sorted(rep["provenance"]["config"]) == sorted(ref["provenance"]["config"])


def test_modes_stage_free_run_calls_no_drive(tmp_path, monkeypatch):
    # past the traverse end the drive is identically zero: the free steps
    # of the photon-number drift check run with no drive attached
    cfg = RunConfig.from_file(write(tmp_path, "beta = 0.3\nmode_grid_n = 4\n"))
    T = cfg.trajectory().traverse_time
    runs = []
    real = cli.evolve_mode

    def recorded(state, dt, steps):
        calls = []
        if state.drive is not None:
            def counted(ts, drive=state.drive):
                calls.append(len(ts))
                return drive(ts)

            state = dataclasses.replace(state, drive=counted)
        out = real(state, dt, steps)
        runs.append((state.time, calls))
        return out

    monkeypatch.setattr(cli, "evolve_mode", recorded)
    cli.stage_modes(cfg, str(tmp_path))
    free = [calls for t0, calls in runs if t0 > T]
    assert free == [[]]
    assert all(calls for t0, calls in runs if t0 <= T)


def test_odd_mode_grid_exit_2(tmp_path, capsys):
    # an odd n puts k = 0 on the cartesian grid: bad input, not a numerical
    # failure
    cfg = write(tmp_path, "mode_grid_n = 5\n")
    out = tmp_path / "out"
    assert run("modes", cfg, str(out)) == 2
    assert "mode_grid_n must be even" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_phases_stage_small(tmp_path):
    cfg = write(tmp_path, "beta = 0.1\n")
    out = tmp_path / "out"
    assert run("phases", cfg, str(out)) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["checks"]["identity_eq15"]["pass"] is True
    assert rep["checks"]["naive_double_count"]["pass"] is True
    pr = rep["phase_report"]
    np.testing.assert_allclose(pr["phi2"], pr["phi21"] + pr["phi22"], rtol=1e-12)
    # the benchmark's reference report fixes the structure: no field, residual
    # or check may appear or vanish without recapturing it
    ref_path = ROOT / "perfbench" / "reference" / "phases-b01.json"
    ref = json.loads(ref_path.read_text())["report"]
    assert sorted(pr) == sorted(ref["phase_report"])
    assert (sorted(pr["identity_residuals"])
            == sorted(ref["phase_report"]["identity_residuals"]))
    assert sorted(rep["checks"]) == sorted(ref["checks"])


def test_console_entry_point(tmp_path):
    cfg = write(tmp_path, "beta = 0.3\n")
    # the child finds the package in src/, as pytest's own pythonpath does
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "abtroika.cli", "divergence", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "divergence_loglog_slope: pass" in proc.stdout


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")], ids=["unset", "preset-3"])
def test_blas_threads_default_to_one(preset, want):
    # the command line pins BLAS to one thread before numpy loads, unless the
    # caller chose a count
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                     os.environ.get("PYTHONPATH")]))
    if preset is not None:
        env.update(dict.fromkeys(blas, preset))
    code = ("import os, sys; import abtroika.cli; "
            "assert 'numpy' in sys.modules; "
            f"print(' '.join(os.environ[k] for k in {blas!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [want] * 3


def test_bad_jobs_environment_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ABTROIKA_JOBS", "abc")
    cfg = write(tmp_path, "beta = 0.3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["divergence", "--config", cfg, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    monkeypatch.setenv("ABTROIKA_JOBS", "2")
    assert cli.main(["divergence", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("flag, env", [(["--jobs", "0"], None), (["--jobs", "-3"], None),
                                       ([], "-3")],
                         ids=["jobs-0", "jobs-minus-3", "env-minus-3"])
def test_jobs_below_one_exit_2(tmp_path, monkeypatch, capsys, flag, env):
    if env is None:
        monkeypatch.delenv("ABTROIKA_JOBS", raising=False)
    else:
        monkeypatch.setenv("ABTROIKA_JOBS", env)
    cfg = write(tmp_path, "beta = 0.3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["divergence", "--config", cfg, "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        from abtroika.cli import main
        main(["phases"])  # --config missing
    assert exc.value.code == 2
