"""Acceptance suite: one test per advertised claim, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Shared heavy computations (the beta = 0.05 exchange-identity parts) are
module-scoped fixtures so each criterion still runs at its stated tolerance
without repeating hour-scale work.
"""

import time

import numpy as np
import pytest

from abtroika.decoherence import (
    a1_smeared,
    a2_smeared,
    a_modes_crosscheck,
    a_point_regulated,
    phase_c1_check,
    visibility_report,
)
from abtroika.geometry import (
    Sense,
    SmearingProfile,
    SmearKind,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from abtroika.modes import (
    ModeGrid,
    ModeState,
    analytic_mode,
    electron_drive,
    evolve_mode,
    overlap_gaussian_check,
    photon_number,
    random_smooth_state,
)
from abtroika.phases import (
    arc_path,
    extra_phase_ledger,
    identity_eq15,
    interference_probability,
    naive_double_count,
    phi21,
    phi_ab_loop,
)
from abtroika.quadrature import loglog_slope, pv_integral_1d

IDEAL = SolenoidModel(0.5, 1.0, SolenoidKind.IDEAL_INFINITE)
LOOPS = SolenoidModel(0.5, 1.0, SolenoidKind.FINITE_LOOPS, n_loops=200, length=20.0)
POINT = SmearingProfile()
PHI_AB = 1.0  # charge * flux with the defaults above


def _verdict(num, label, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {label} ({detail})",
          flush=True)
    assert ok, f"criterion {num}: {label}: {detail}"


@pytest.fixture(scope="module")
def identity_beta005():
    tr = TrajectoryHalfCircle(1.0, 0.05, Sense.RIGHT)
    return identity_eq15(tr, POINT, LOOPS)


def test_criterion_01_line_integral_routes():
    t0 = time.time()
    tr = TrajectoryHalfCircle(1.0, 0.1, Sense.RIGHT)
    half_arc = phi_ab_loop(IDEAL, arc_path(1.0, -np.pi / 2, np.pi / 2),
                           n=64, closed=False)
    err_arc = abs(half_arc - 0.5 * PHI_AB)
    err_p21 = abs(2 * phi21(tr, IDEAL) - 0.5 * PHI_AB)
    dev_loops = abs(2 * phi21(tr, LOOPS) / (0.5 * PHI_AB) - 1.0)
    elapsed = time.time() - t0
    ok = err_arc < 1e-10 and err_p21 < 1e-10 and dev_loops < 0.02 and elapsed < 1.0
    _verdict(1, "half-traverse line integral gives half the shift",
             ok, f"arc err {err_arc:.1e}, 2*phi21 err {err_p21:.1e}, "
                 f"loops dev {dev_loops:.4f}, {elapsed:.2f}s")


def test_criterion_02_nonrelativistic_reciprocity():
    from abtroika.phases import phi22
    t0 = time.time()
    tr = TrajectoryHalfCircle(1.0, 0.01, Sense.RIGHT)
    p21 = phi21(tr, LOOPS)
    p22 = phi22(tr, POINT, LOOPS)
    rel = abs(p22 - p21) / p21
    elapsed = time.time() - t0
    ok = rel < 0.01 and elapsed < 300
    _verdict(2, "solenoid-in-electron-potential phase equals the line integral "
                "nonrelativistically", ok, f"rel dev {rel:.2e}, {elapsed:.1f}s")


def test_criterion_03_relativistic_identity(identity_beta005):
    t0 = time.time()
    rel_a = identity_beta005["residual_rel"]
    tr = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT)
    parts_b = identity_eq15(tr, POINT, LOOPS)
    rel_b = parts_b["residual_rel"]
    elapsed = time.time() - t0
    ok = rel_a < 0.02 and rel_b < 0.05 and elapsed < 1800
    _verdict(3, "radiation term closes the exchange identity",
             ok, f"beta=0.05: {rel_a:.2e} (<2%), beta=0.3: {rel_b:.2e} (<5%), "
                 f"{elapsed:.0f}s")


def test_criterion_04_naive_double_count():
    tr = TrajectoryHalfCircle(1.0, 0.01, Sense.RIGHT)
    ratio = naive_double_count(tr, LOOPS) / PHI_AB
    ok = abs(ratio - 2.0) < 0.05
    _verdict(4, "separable approximation doubles the shift", ok,
             f"ratio {ratio:.4f}")


def test_criterion_05_extra_phase_ledger(identity_beta005):
    tr = TrajectoryHalfCircle(1.0, 0.05, Sense.RIGHT)
    led = extra_phase_ledger(tr, POINT, LOOPS, parts=identity_beta005)
    dev_pair = abs(led.extra_el - led.extra_sol) / abs(led.extra_el)
    dev_total = abs(led.grand_total / (0.5 * PHI_AB) - 1.0)
    ok = dev_pair < 0.02 and dev_total < 0.03
    _verdict(5, "variational extra phases restore half the shift", ok,
             f"extra pair dev {dev_pair:.2e}, grand total dev {dev_total:.2e}")


def test_criterion_06_mode_solution():
    t0 = time.time()
    grid = ModeGrid.cartesian(16, 6.0)
    om = grid.omega
    J0 = (0.2 + 0.05j) * np.ones((grid.n_modes, 3))
    t_end = 4.0 / om.min()
    steps = int(np.ceil(om.max() * t_end / 0.02))
    st = evolve_mode(ModeState.vacuum(grid, lambda t: J0), t_end / steps, steps)
    closed = J0 * ((1 - np.exp(-1j * om * t_end)) / (om * np.sqrt(2 * om)))[:, None]
    err_const = float(np.max(np.abs(st.alpha - closed)))
    tr = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT)
    smear = SmearingProfile(SmearKind.LINE_Z, 1.0)
    drive = electron_drive(tr, smear, grid)
    T = tr.traverse_time
    st_a = analytic_mode(tr, smear, grid, T, drive=drive)
    steps = int(np.ceil(om.max() * T / 0.015))
    st_e = evolve_mode(ModeState.vacuum(grid, drive), T / steps, steps)
    err_ab = float(np.max(np.abs(st_a.alpha - st_e.alpha)))
    elapsed = time.time() - t0
    ok = err_const < 1e-8 and err_ab < 1e-6 and elapsed < 60
    _verdict(6, "driven-mode integrator matches the closed-form amplitudes",
             ok, f"constant drive {err_const:.1e} (<1e-8), traverse drive "
                 f"{err_ab:.1e} (<1e-6), {elapsed:.0f}s")


def test_criterion_07_overlap_identity():
    grid = ModeGrid.fft_pair(8, 6.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        sl = random_smooth_state(grid, rng)
        sr = random_smooth_state(grid, rng)
        lhs, rhs = overlap_gaussian_check(sl, sr)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    tr = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT)
    smear = SmearingProfile(SmearKind.LINE_Z, 1.0)
    T = tr.traverse_time
    stl = analytic_mode(tr.mirrored(), smear, grid, T)
    str_ = analytic_mode(tr, smear, grid, T)
    lhs, rhs = overlap_gaussian_check(stl, str_)
    err_ab = abs(lhs - rhs) / abs(lhs)
    ok = worst < 1e-8 and err_ab < 1e-6
    _verdict(7, "coherent and functional overlap forms are identical", ok,
             f"random fields worst {worst:.1e} (<1e-8), traverse pair "
             f"{err_ab:.1e} (<1e-6)")


def test_criterion_08_constant_of_motion():
    tr = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT)
    grid = ModeGrid.cartesian(8, 4.0)
    T = tr.traverse_time
    st = analytic_mode(tr, POINT, grid, T * (1 + 1e-9))
    n0 = photon_number(st)
    dt = 0.01 / grid.omega.max()
    st2 = evolve_mode(st, dt, 10_000)
    drift = abs(photon_number(st2) - n0) / n0
    ok = drift < 1e-10
    _verdict(8, "radiated quanta conserved under free evolution", ok,
             f"relative drift {drift:.1e} over 10^4 steps")


def test_criterion_09_phase_cancellation():
    tr = TrajectoryHalfCircle(1.0, 0.1, Sense.RIGHT)
    val, scale = phase_c1_check(tr, POINT)
    ratio = abs(val) / scale
    pert = TrajectoryHalfCircle(1.07, 0.1, Sense.LEFT, ramp_fraction=0.01)
    val2, scale2 = phase_c1_check(tr, POINT, traj_left=pert)
    control = abs(val2) / scale2
    ok = ratio < 1e-6 and control > 1e-3
    _verdict(9, "radiated overlap phase cancels by exchange symmetry", ok,
             f"ratio {ratio:.1e} (<1e-6), perturbed control {control:.1e}")


def test_criterion_10_principal_value_oracles():
    rng = np.random.default_rng(10)
    worst = 0.0
    for alpha in rng.uniform(0.05, 0.95, 20):
        v1 = pv_integral_1d(lambda z: 1.0 / (z**2 - alpha**2), alpha, (0.0, 1.0))
        c1 = np.log((1 - alpha) / (1 + alpha)) / (2 * alpha)
        v2 = pv_integral_1d(lambda z: z / (z**2 - alpha**2), alpha, (0.0, 1.0))
        c2 = np.log(1 + alpha) - np.log(alpha) + 0.5 * np.log((1 - alpha) / (1 + alpha))
        worst = max(worst, abs(v1 - c1), abs(v2 - c2))
    worst_out = 0.0
    for alpha in rng.uniform(1.05, 3.0, 10):
        v = pv_integral_1d(lambda z: 1.0 / (z**2 - alpha**2), alpha, (0.0, 1.0))
        c = np.log(abs((1 - alpha) / (1 + alpha))) / (2 * alpha)
        worst_out = max(worst_out, abs(v - c))
    ok = worst < 1e-8 and worst_out < 1e-8
    _verdict(10, "principal-value quadrature reproduces both closed forms", ok,
             f"pole inside worst {worst:.1e}, outside worst {worst_out:.1e}")


def test_criterion_11_point_charge_divergence():
    eps = [0.02, 0.01, 0.005, 0.0025]
    vals = [a_point_regulated(0.3, e, 1.0) for e in eps]
    mags = np.abs(vals)
    monotone = bool(np.all(np.diff(mags) > 0))
    slope = loglog_slope(np.stack([eps, mags], axis=1))
    ok = monotone and abs(slope + 1.0) < 0.2
    _verdict(11, "un-smeared coincidence amplitude diverges like 1/eps", ok,
             f"monotone={monotone}, slope {slope:.3f} (sign of the regulated "
             f"intermediate: {'negative' if vals[0] < 0 else 'positive'})")


def test_criterion_12_scaling_law():
    t0 = time.time()
    lams = np.array([0.5, 1.0, 2.0, 4.0])
    a1_l = np.array([abs(a1_smeared(0.1, L, 1.0)) for L in lams])
    slope_lam = loglog_slope(np.stack([lams, a1_l], axis=1))
    betas = np.array([0.05, 0.1, 0.2])
    a1_b = np.array([abs(a1_smeared(b, 1.0, 1.0)) for b in betas])
    slope_beta = loglog_slope(np.stack([betas, a1_b], axis=1))
    ratios_ok = True
    for b in betas:
        r = abs(a2_smeared(b, 1.0, 1.0) / a1_smeared(b, 1.0, 1.0))
        ratios_ok &= 0.1 * b**2 < r < 10 * b**2
    a2v, a2err = a2_smeared(0.2, 1.0, 1.0, with_error=True)
    elapsed = time.time() - t0
    ok = (abs(slope_lam + 1.0) < 0.2 and abs(slope_beta - 1.0) < 0.2
          and ratios_ok and a2err < 0.01 * a2v and elapsed < 600)
    _verdict(12, "smeared amplitude scales like (u/c)(R/sigma)", ok,
             f"lambda slope {slope_lam:.3f}, beta slope {slope_beta:.3f}, "
             f"a2/a1 in beta^2 bracket: {ratios_ok}, a2 err "
             f"{a2err / a2v:.2e} (<1%), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_13_cross_formulation():
    t0 = time.time()
    r24 = a_modes_crosscheck(0.1, 1.0, 1.0, grid_n=24)
    rels = [a_modes_crosscheck(0.1, 1.0, 1.0, grid_n=n)["rel_difference"]
            for n in (10, 12, 16)]
    rels.append(r24["rel_difference"])
    # genuine refinement window: the spherical grid reaches the method floor
    # by 16^3, so monotone improvement is checked from under-resolved sizes
    monotone = all(b < a * 1.05 + 1e-7 for a, b in zip(rels, rels[1:]))
    elapsed = time.time() - t0
    ok = r24["rel_difference"] < 0.05 and monotone
    _verdict(13, "current-current integral matches the mode-space quanta", ok,
             f"24^3 rel {r24['rel_difference']:.2e} (<5%), refinement "
             f"{['%.2e' % r for r in rels]}, {elapsed:.0f}s")


def test_criterion_14_visibility():
    t0 = time.time()
    res = visibility_report(0.1, 1.0, fine_structure=1.0 / 137.036,
                            compute_phase=False)
    p, m = interference_probability(0.5 * PHI_AB - (-0.5 * PHI_AB), res.a_total)
    elapsed = time.time() - t0
    ok = (res.a_total < 0.01 and res.visibility > 0.99
          and abs((p + m) - 1.0) < 1e-15 and 0 < res.visibility <= 1)
    _verdict(14, "physical coupling leaves maximum interference", ok,
             f"a(T) = {res.a_total:.2e} (<0.01), visibility {res.visibility:.6f} "
             f"(>0.99), probabilities sum to 1 within 1e-15, {elapsed:.0f}s")
