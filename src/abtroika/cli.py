"""Command-line orchestration: reproduction pipeline, report.json, sweep CSVs.

Subcommands: phases, decoherence, modes, divergence, all.  Exit status 0 when
every enabled check passes its tolerance, 1 on a failed check or numerical
error (the failing stage is named), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import ConfigError, RunConfig
from .decoherence import a_point_regulated, phase_c1_check, visibility_report
from .geometry import (
    Sense,
    SmearingProfile,
    SmearKind,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from .modes import (
    ModeGrid,
    ModeState,
    analytic_mode,
    b_relation_residual,
    electron_drive,
    evolve_mode,
    export_mode_state,
    free_rotation,
    overlap_gaussian_check,
    photon_number,
    random_smooth_state,
    riccati_stationarity,
)
from .phases import assemble_phase_report, phi1, phi21
from .quadrature import QuadratureError, QuadratureSpec, loglog_slope
from .report import bundle, check, write_report, write_sweep_csv

SWEEP_HEADER = ["beta", "lambda", "a1", "a2", "a_total", "visibility",
                "phase_c1", "err_a1", "err_a2"]


def stage_phases(cfg: RunConfig):
    if cfg.solenoid != "loops":
        raise ConfigError("the phases stage needs the finite-loop solenoid "
                          "(set solenoid = loops)")
    traj = cfg.trajectory()
    model = cfg.solenoid_model()
    point = SmearingProfile()
    spec = QuadratureSpec(cfg.quad_abs_tol, cfg.quad_rel_tol, cfg.max_subdivisions)
    rep = assemble_phase_report(traj, point, model, eta=cfg.eta,
                                rho_max=cfg.rho_max_over_r * cfg.radius,
                                spec=spec)
    # start-up ramp sensitivity of the radiated-field term
    ramped2 = dataclasses.replace(traj, ramp_fraction=2 * cfg.eta)
    p1_eta2 = phi1(ramped2, point, model,
                   rho_max=cfg.rho_max_over_r * cfg.radius, spec=spec)
    ideal = SolenoidModel(cfg.a_over_r * cfg.radius, cfg.flux,
                          SolenoidKind.IDEAL_INFINITE)
    p21_ideal = phi21(traj, ideal)
    quarter = 0.25 * traj.charge * cfg.flux
    id_tol = 0.02 if cfg.beta <= 0.15 else 0.05
    checks = [
        check("phi21_quarter_shift_ideal", p21_ideal / quarter - 1.0, 1e-10),
        check("phi21_finite_loops", rep.phi21 / quarter - 1.0, 0.02),
        check("identity_eq15", rep.identity_residuals["identity_eq15_rel"], id_tol),
        check("naive_double_count", rep.naive_total / rep.phi_ab - 2.0, 0.05),
        check("extra_phases_equal",
              (rep.extra_phase_el - rep.extra_phase_sol) / rep.extra_phase_el, 0.02),
        check("grand_total_half_shift",
              rep.grand_total / (0.5 * rep.phi_ab) - 1.0, 0.03),
        check("left_right_antisymmetry",
              rep.identity_residuals["left_right_antisymmetry"]
              / abs(rep.phi_total_right), 1e-8),
    ]
    payload = dataclasses.asdict(rep)
    payload["identity_residuals"]["phi1_eta_sensitivity"] = abs(
        p1_eta2.value - rep.phi1)
    return {"phase_report": payload}, checks


def _overlap_point(cfg: RunConfig, point):
    beta, lam = point
    return visibility_report(beta, lam, cfg.fine_structure,
                             k_max=cfg.kmax_sigma_physical / (lam * cfg.radius))


def _sweep_row(res):
    """One sweep_decoherence.csv row of a result, in SWEEP_HEADER order."""
    return [res.parameters.beta, res.parameters.lam, res.a1, res.a2,
            res.a_total, res.visibility, res.overlap_phase, res.err_a1,
            res.err_a2]


def stage_decoherence(cfg: RunConfig, out_dir: str, jobs: int = 1):
    grid = [(b, l) for b in cfg.sweep_beta for l in cfg.sweep_lambda]
    # each distinct (beta, lambda) once; the main point is usually on the grid
    points = list(dict.fromkeys([(cfg.beta, cfg.lam)] + grid))
    work = functools.partial(_overlap_point, cfg)
    if jobs > 1:
        # a forking pool starts all its workers at once: no more than points
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            results = dict(zip(points, pool.map(work, points)))
    else:
        results = {p: work(p) for p in points}
    res = results[(cfg.beta, cfg.lam)]
    rows = [_sweep_row(results[p]) for p in grid]
    write_sweep_csv(os.path.join(out_dir, "sweep_decoherence.csv"),
                    SWEEP_HEADER, rows)
    checks = [
        check("visibility_in_unit_interval", 0.0, 1.0,
              ok=(0.0 < res.visibility <= 1.0)),
        check("overlap_exponent_nonnegative", 0.0, 1.0, ok=(res.a_total >= 0.0)),
    ]
    # scaling-law summaries over the sweep (reduced self term): the log-log
    # slope of |a1| along one axis at each fixed value of the other, against
    # a1 ~ beta / lambda
    for name, axis, fixed, expected in (
            ("a1_lambda_slope", 1, cfg.sweep_beta, -1.0),
            ("a1_beta_slope", 0, cfg.sweep_lambda, 1.0)):
        slopes = []
        for v in fixed:
            sub = [(r[axis], abs(r[2])) for r in rows if r[1 - axis] == v]
            if len(sub) >= 3:
                slopes.append(loglog_slope(np.array(sub)))
        if slopes:
            checks.append(check(name, float(np.mean(slopes)) - expected, 0.2))
    ratios_ok = all(0.1 * r[0] ** 2 < abs(r[3] / r[2]) < 10 * r[0] ** 2 for r in rows)
    checks.append(check("a2_over_a1_beta_squared", 0.0, 1.0, ok=ratios_ok))
    if cfg.compute_phase:
        phase, scale = phase_c1_check(
            TrajectoryHalfCircle(1.0, cfg.beta, Sense.RIGHT),
            SmearingProfile(SmearKind.LINE_Z, cfg.lam))
        res = dataclasses.replace(res, overlap_phase=phase, phase_scale=scale)
        checks.append(check("overlap_phase_cancellation",
                            abs(phase) / max(scale, 1e-300), 1e-6))
    payload = {
        "overlap_result": dataclasses.asdict(res),
        "sweep": {"header": SWEEP_HEADER, "rows": rows},
    }
    return payload, checks


def stage_modes(cfg: RunConfig, out_dir: str = "."):
    sigma = cfg.lam * cfg.radius
    k_max = cfg.kmax_sigma / sigma
    # the traverse lies in the plane z = 0: its mode amplitudes are even in
    # k_z, so the k_z > 0 half with doubled weights carries every sum
    grid = ModeGrid.cartesian(cfg.mode_grid_n, k_max).fold_kz()
    traj = cfg.trajectory()
    smear = cfg.smearing()
    residuals = {}

    residuals["riccati_stationarity"] = riccati_stationarity(grid)

    # constant drive against the closed form
    om = grid.omega
    J0 = (0.2 + 0.05j) * np.ones((grid.n_modes, 2))
    t_end = 4.0 / om.min()
    steps = int(np.ceil(om.max() * t_end / 0.02))
    st = evolve_mode(
        ModeState.vacuum(grid, lambda t: np.broadcast_to(J0, (len(t),) + J0.shape)),
        t_end / steps, steps)
    closed = J0 * ((1 - np.exp(-1j * om * t_end)) / (om * np.sqrt(2 * om)))[:, None]
    residuals["constant_drive_vs_closed_form"] = float(
        np.max(np.abs(st.alpha - closed)))

    # traverse drive: integrator against direct quadrature
    T = traj.traverse_time
    drive = electron_drive(traj, smear, grid)
    st_a = analytic_mode(traj, smear, grid, T, drive=drive)
    steps = int(np.ceil(om.max() * T / 0.03))
    st_e = evolve_mode(ModeState.vacuum(grid, drive), T / steps, steps)
    residuals["traverse_drive_ode_vs_quadrature"] = float(
        np.max(np.abs(st_a.alpha - st_e.alpha)))

    residuals["b_relation"] = b_relation_residual(traj, smear, grid, 0.7 * T)

    # free evolution from just past T, where the drive has switched off:
    # detached, so that the free steps call no drive only to find it zero
    st_free = dataclasses.replace(free_rotation(st_a, 1e-9 * T), drive=None)
    n0 = photon_number(st_free)
    st_late = evolve_mode(st_free, 0.01 / om.max(), 10_000)
    residuals["photon_number_drift"] = abs(photon_number(st_late) - n0) / max(n0, 1e-300)

    rng = np.random.default_rng(cfg.seed)
    fft_grid = ModeGrid.fft_pair(8, 6.0 * cfg.radius)
    worst = 0.0
    for _ in range(50):
        sl = random_smooth_state(fft_grid, rng)
        sr = random_smooth_state(fft_grid, rng)
        lhs, rhs = overlap_gaussian_check(sl, sr)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    residuals["overlap_identity_random"] = worst

    stl = analytic_mode(traj, smear, fft_grid, T)
    str_ = analytic_mode(traj.mirrored(), smear, fft_grid, T,
                         drive=electron_drive(traj.mirrored(), smear, fft_grid))
    lhs, rhs = overlap_gaussian_check(stl, str_)
    residuals["overlap_identity_traverses"] = abs(lhs - rhs) / abs(lhs)

    export_mode_state(st_a, os.path.join(out_dir, "mode_state.txt"))

    checks = [
        check("riccati_stationarity", residuals["riccati_stationarity"], 1e-12),
        check("constant_drive_vs_closed_form",
              residuals["constant_drive_vs_closed_form"], 1e-8),
        check("traverse_drive_ode_vs_quadrature",
              residuals["traverse_drive_ode_vs_quadrature"], 1e-6),
        check("b_relation", residuals["b_relation"], 1e-8),
        check("photon_number_drift", residuals["photon_number_drift"], 1e-10),
        check("overlap_identity_random", residuals["overlap_identity_random"], 1e-8),
        check("overlap_identity_traverses",
              residuals["overlap_identity_traverses"], 1e-6),
    ]
    return {"mode_checks": residuals}, checks


def stage_divergence(cfg: RunConfig, out_dir: str):
    eps = list(cfg.eps_sequence)
    vals = [a_point_regulated(cfg.beta, e, cfg.fine_structure) for e in eps]
    mags = np.abs(vals)
    slope = loglog_slope(np.stack([eps, mags], axis=1))
    write_sweep_csv(os.path.join(out_dir, "sweep_divergence.csv"),
                    ["eps", "a_regulated"], list(zip(eps, vals)))
    checks = [
        check("divergence_monotone_growth", 0.0, 1.0,
              ok=bool(np.all(np.diff(mags) > 0))),
        check("divergence_loglog_slope", slope + 1.0, 0.2),
    ]
    payload = {"divergence": {"eps": eps, "a_regulated": list(map(float, vals)),
                              "slope": float(slope),
                              "sign": "negative" if vals[0] < 0 else "positive"}}
    return payload, checks


def run(subcommand: str, config_path: str, out_dir: str | None = None,
        jobs: int = 1) -> int:
    try:
        cfg = RunConfig.from_file(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    stages = {}
    checks = []
    timestamps = {"started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                  "wall_clock_s": {}}
    # built per run, so that the stage functions are looked up on the module
    # when they run: a wrapper installed on cli.stage_* takes effect
    table = {
        "phases": lambda: stage_phases(cfg),
        "decoherence": lambda: stage_decoherence(cfg, out, jobs),
        "modes": lambda: stage_modes(cfg, out),
        "divergence": lambda: stage_divergence(cfg, out),
    }
    if subcommand not in (*table, "all"):
        print(f"unknown subcommand '{subcommand}'", file=sys.stderr)
        return 2
    for name in table if subcommand == "all" else [subcommand]:
        t0 = time.monotonic()
        try:
            payload, cks = table[name]()
        except ConfigError as exc:
            print(f"config error in stage '{name}': {exc}", file=sys.stderr)
            return 2
        except (QuadratureError, RuntimeError, ValueError) as exc:
            print(f"numerical failure in stage '{name}': {exc}", file=sys.stderr)
            return 1
        stages.update(payload)
        checks.extend(cks)
        timestamps["wall_clock_s"][name] = time.monotonic() - t0
        for c in cks:
            status = "pass" if c["pass"] else "FAIL"
            print(f"[{name}] {c['name']}: {status} "
                  f"(value={c['value']:.6g}, tol={c['tolerance']:.6g})")
    timestamps["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_report(os.path.join(out, "report.json"),
                 bundle(cfg, stages, checks, timestamps))
    failed = [c["name"] for c in checks if not c["pass"]]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _jobs(text: str) -> int:
    """A --jobs value: a positive integer."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abtroika",
        description="Desk-scale numerical verification of the magnetic "
                    "interference phase shift and its radiated-field decoherence.")
    parser.add_argument("subcommand",
                        choices=["phases", "decoherence", "modes", "divergence", "all"])
    parser.add_argument("--config", required=True, help="flat key = value file")
    parser.add_argument("--out", default=None, help="output directory")
    # a string default goes through the type like a given value, so a bad
    # ABTROIKA_JOBS is a usage error (exit 2)
    parser.add_argument("--jobs", type=_jobs,
                        default=os.environ.get("ABTROIKA_JOBS", "1"),
                        help="decoherence worker processes (env: ABTROIKA_JOBS)")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
