import numpy as np
import pytest
from scipy.special import jn_zeros, jv

from abtroika import cli, decoherence
from abtroika.config import RunConfig
from abtroika.decoherence import (
    a1_smeared,
    a2_smeared,
    a_current_current,
    a_modes_crosscheck,
    a_point_regulated,
    phase_c1_check,
    visibility_report,
)
from abtroika.geometry import Sense, SmearingProfile, SmearKind, TrajectoryHalfCircle
from abtroika.quadrature import QuadratureError, loglog_slope


# ------------------------------------------------------------ reduced terms

def test_a1_closed_vs_numeric_pv():
    closed = a1_smeared(0.1, 1.0, 1.0)
    numeric = a1_smeared(0.1, 1.0, 1.0, inner="numeric")
    assert abs(closed - numeric) / abs(closed) < 0.005


def test_a1_regression_value():
    # frozen from the build-time arbitration of the reduced form
    np.testing.assert_allclose(a1_smeared(0.1, 1.0, 1.0), -0.074430, rtol=1e-3)


def test_a1_sin_correction_is_beta_squared_small():
    base = a1_smeared(0.2, 1.0, 1.0)
    exact = a1_smeared(0.2, 1.0, 1.0, retain_sin_correction=True)
    assert abs(exact - base) / abs(base) < 10 * 0.2**2
    assert abs(exact - base) > 0.0


def test_a1_lambda_scaling_slope():
    lams = np.array([0.5, 1.0, 2.0, 4.0])
    vals = np.array([abs(a1_smeared(0.1, L, 1.0)) for L in lams])
    slope = loglog_slope(np.stack([lams, vals], axis=1))
    assert abs(slope + 1.0) < 0.2, f"lambda slope {slope:.3f}"


def test_a1_beta_scaling_slope():
    betas = np.array([0.05, 0.1, 0.2])
    vals = np.array([abs(a1_smeared(b, 1.0, 1.0)) for b in betas])
    slope = loglog_slope(np.stack([betas, vals], axis=1))
    assert abs(slope - 1.0) < 0.2, f"beta slope {slope:.3f}"


def test_a1_point_charge_rejected():
    with pytest.raises(ValueError):
        a1_smeared(0.1, 0.0, 1.0)


def test_a2_with_error_estimate():
    val, err = a2_smeared(0.2, 1.0, 1.0)
    assert val > 0
    assert err < 0.01 * val


def test_a2_ratio_to_a1_is_beta_squared_suppressed():
    for beta in (0.05, 0.1, 0.2):
        ratio = abs(a2_smeared(beta, 1.0, 1.0)[0] / a1_smeared(beta, 1.0, 1.0))
        assert 0.1 * beta**2 < ratio < 10 * beta**2, f"beta={beta}: {ratio:.4g}"


def test_a2_matches_physical_cross_term():
    # the reduced cross form resums the same object the k-space route computes
    a2, _ = a2_smeared(0.2, 1.0, 1.0)
    _, a_cross = a_current_current(0.2, 1.0, 1.0, k_max=30.0)
    assert abs(a2 - a_cross) / a_cross < 0.05


def test_coupling_linearity_exact():
    assert a1_smeared(0.1, 1.0, 100.0) == pytest.approx(
        100 * a1_smeared(0.1, 1.0, 1.0), rel=1e-14)
    assert a2_smeared(0.1, 1.0, 100.0)[0] == pytest.approx(
        100 * a2_smeared(0.1, 1.0, 1.0)[0], rel=1e-14)
    assert a_point_regulated(0.1, 0.05, 100.0) == pytest.approx(
        100 * a_point_regulated(0.1, 0.05, 1.0), rel=1e-14)


def test_triangle_reduction_identity():
    # the (tau1, tau2) -> (tau+, tau-) fold used everywhere:
    # Int_0^1 Int_0^1 F(|tau1 - tau2|) = 2 Int_0^1 (1 - tau) F(tau) dtau,
    # checked on the actual regulated kernel
    beta, eps = 0.3, 0.05

    def F(t):
        t = np.abs(t)
        den = (2 * beta / np.pi) ** 2 * np.sin(np.pi * t / 2) ** 2 - t**2
        return np.where(t >= eps, np.cos(np.pi * t) / np.where(t == 0, 1.0, den), 0.0)

    # unreduced: iterated 2D quadrature; exact inner limits at the excision
    # band |tau1 - tau2| = eps, inner panels clustered toward the band where
    # the kernel is largest, outer panels split at the geometric kinks
    xg, wg = np.polynomial.legendre.leggauss(32)

    def inner(ta):
        total = 0.0
        for lo, hi, toward_hi in ((0.0, ta - eps, True), (ta + eps, 1.0, False)):
            if hi - lo <= 0:
                continue
            off = np.geomspace(1e-8, hi - lo, 24)
            edges = np.unique(np.concatenate(
                [[lo, hi], (hi - off) if toward_hi else (lo + off)]))
            edges = edges[(edges >= lo) & (edges <= hi)]
            for e0, e1 in zip(edges[:-1], edges[1:]):
                tt = 0.5 * (e1 + e0) + 0.5 * (e1 - e0) * xg
                total += 0.5 * (e1 - e0) * np.sum(wg * F(ta - tt))
        return total

    unreduced = 0.0
    for p0, p1 in ((0.0, eps), (eps, 1 - eps), (1 - eps, 1.0)):
        tt = 0.5 * (p1 + p0) + 0.5 * (p1 - p0) * xg
        unreduced += 0.5 * (p1 - p0) * sum(w * inner(t) for w, t in zip(wg, tt))
    edges = np.geomspace(eps, 1.0, 60)
    xg2, wg2 = np.polynomial.legendre.leggauss(32)
    reduced = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        tt = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xg2
        reduced += 0.5 * (hi - lo) * np.sum(wg2 * 2 * (1 - tt) * F(tt))
    assert abs(unreduced - reduced) / abs(reduced) < 1e-6


# ------------------------------------------------------- regulated point law

def test_point_regulated_monotone_divergence():
    eps = [0.02, 0.01, 0.005, 0.0025]
    vals = [a_point_regulated(0.3, e, 1.0) for e in eps]
    assert all(v < 0 for v in vals)  # regulated intermediate is negative
    mags = np.abs(vals)
    assert np.all(np.diff(mags) > 0), "magnitude must grow as eps shrinks"
    slope = loglog_slope(np.stack([eps, mags], axis=1))
    assert abs(slope + 1.0) < 0.2, f"slope {slope:.3f}"


def test_point_regulated_vanishes_with_speed():
    small = a_point_regulated(0.001, 0.05, 1.0)
    big = a_point_regulated(0.1, 0.05, 1.0)
    assert abs(small) < 1e-3 * abs(big)


def test_point_regulated_epsilon_domain():
    with pytest.raises(ValueError):
        a_point_regulated(0.1, 0.0)
    with pytest.raises(ValueError):
        a_point_regulated(0.1, 1.5)


# ------------------------------------------------------------- cross-check

def test_current_current_self_positive():
    a_s, a_c = a_current_current(0.3, 1.0, 1.0, k_max=12.0)
    assert a_s > 0
    assert a_s + a_c > 0


def _a_current_current_per_order(beta, lam, fine_structure, k_max, n_mu=96,
                                 n_extra=25):
    """Oracle: the order sum over n = -nmax .. nmax with one jv call per
    order, k node and shifted order, as in the unfolded formula."""
    T = np.pi / beta
    xg, wg = np.polynomial.legendre.leggauss(int(min(max(8, 3 * T), 48)))
    nseg = int(np.ceil(k_max))
    xmu, wmu = np.polynomial.legendre.leggauss(n_mu)
    mu = 0.5 * (xmu + 1.0)
    a_self = a_cross = 0.0
    for s in range(nseg):
        lo, hi = s * k_max / nseg, (s + 1) * k_max / nseg
        for k, wk in zip(0.5 * (hi - lo) * xg + 0.5 * (hi + lo), 0.5 * (hi - lo) * wg):
            kperp = k * np.sqrt(1.0 - mu**2)
            S2 = SmearingProfile(SmearKind.LINE_Z, lam).fourier_factor(k * mu) ** 2
            nmax = int(k + n_extra)
            n = np.arange(-nmax, nmax + 1)
            JJ = (jv(n[None, :] - 1, kperp[:, None]) ** 2
                  + jv(n[None, :] + 1, kperp[:, None]) ** 2)
            Ep = decoherence._endpoint_factor(k + n * beta, T)
            Em = decoherence._endpoint_factor(k - n * beta, T)
            self_t = np.abs(Ep) ** 2 + np.abs(Em) ** 2
            cross_t = 2.0 * np.real(Ep * np.conj(Em))
            a_self += wk * k * float(np.dot(wmu, S2 * (JJ @ self_t)))
            a_cross += wk * k * float(np.dot(wmu, S2 * (JJ @ cross_t)))
    pref = fine_structure * beta**2 / (32.0 * np.pi**2)
    return pref * a_self, pref * a_cross


@pytest.mark.parametrize("beta, lam, k_max", [
    (0.1, 2.0, 4.0), (0.05, 4.0, 2.0), (0.2, 2.0, 4.0), (0.3, 1.0, 12.0),
    pytest.param(0.1, 1.0, 40.0, marks=pytest.mark.slow)])
def test_current_current_matches_per_order_sum(beta, lam, k_max):
    a_s, a_c = a_current_current(beta, lam, 1.0, k_max=k_max)
    ref_s, ref_c = _a_current_current_per_order(beta, lam, 1.0, k_max)
    assert abs(a_s - ref_s) <= 1e-12 * abs(ref_s)
    assert abs(a_c - ref_c) <= 1e-12 * abs(ref_c)


def test_bessel_recurrence_matches_jv():
    j0_zeros = [2.404825557695773, 5.520078110286311, 8.653727912911013]
    x = np.sort(np.concatenate([np.geomspace(1e-6, 100.0, 57), j0_zeros]))
    top = int(x.max()) + 30
    orders = np.arange(top + 1)
    # one coefficient set per order picks out J_m^2
    unit = np.eye(top + 1)[:, None, :]
    squares = decoherence._bessel_square_sums(x[None, :], unit)[:, 0, :]
    wanted = orders[:, None] <= x[None, :] + 30
    exact = jv(orders[:, None], x[None, :]) ** 2
    assert np.all(np.abs(squares - exact)[wanted] <= 1e-14)
    # above the turning point J_m decays without zeros; the recurrence must
    # hold it to rounding there too, up to the top order asked for
    decaying = (orders[:, None] > x[None, :] + 1) & (exact > 1e-280)
    rel = np.abs(squares - exact)[decaying] / exact[decaying]
    assert rel.max() <= 1e-12
    weights = np.random.default_rng(1).uniform(-1.0, 1.0, (1, 1, top + 1))
    total = decoherence._bessel_square_sums(x[None, :], weights)[0, 0]
    np.testing.assert_allclose(total, weights[0, 0] @ exact, rtol=1e-13, atol=1e-14)


def test_bessel_recurrence_near_zeros_of_j0_up_to_k80():
    # at a zero of J_0 the squares are normalised by the rest of Neumann's
    # sum; at k = 80 the recurrence runs over 80 + 25 orders and more
    zeros = jn_zeros(0, 26)
    x = np.sort(np.concatenate([zeros, zeros * (1 + 1e-9), zeros * (1 - 1e-9),
                                [79.0, 80.0]]))
    top = 80 + 25
    orders = np.arange(top + 1)
    unit = np.eye(top + 1)[:, None, :]
    squares = decoherence._bessel_square_sums(x[None, :], unit)[:, 0, :]
    exact = jv(orders[:, None], x[None, :]) ** 2
    assert np.all(np.abs(squares - exact) <= 1e-14)
    assert np.all(np.abs(squares[0] - exact[0]) <= 1e-15)
    weights = np.random.default_rng(2).uniform(0.0, 1.0, (1, 1, top + 1))
    total = decoherence._bessel_square_sums(x[None, :], weights)[0, 0]
    np.testing.assert_allclose(total, weights[0, 0] @ exact, rtol=1e-13)


def test_current_current_tiny_arguments():
    # k -> 0 and mu -> 1 drive the recurrence through its rescaling at every
    # step (growth 2m/x ~ 1e10); nothing may overflow or turn NaN
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        a_s, a_c = a_current_current(0.1, 1.0, 1.0, k_max=1e-4, n_mu=400)
    ref_s, ref_c = _a_current_current_per_order(0.1, 1.0, 1.0, 1e-4, n_mu=400)
    assert np.isfinite(a_s) and np.isfinite(a_c) and a_s > 0
    assert abs(a_s - ref_s) <= 1e-12 * ref_s
    assert abs(a_c - ref_c) <= 1e-12 * abs(ref_c)


def test_current_current_non_finite_sum_raises(monkeypatch):
    monkeypatch.setattr(decoherence, "_bessel_square_sums",
                        lambda x, c: np.full(c.shape[:1] + x.shape, np.nan))
    with pytest.raises(QuadratureError, match=r"beta = 0.2, lam = 1 on the k-segment \[0, 1\]"):
        a_current_current(0.2, 1.0, 1.0, k_max=4.0)


def test_modes_crosscheck_small_grid():
    r = a_modes_crosscheck(0.3, 1.0, 1.0, grid_n=14)
    assert r["rel_difference"] < 0.05
    assert r["a_current_current"] > 0 and r["a_modes"] > 0


def test_modes_crosscheck_folded_grid_matches_full():
    # the default grid is the k_z > 0 half of a spherical grid: the same
    # photon number as the full grid, bit for bit
    from abtroika.modes import ModeGrid
    full = ModeGrid.spherical(6.0, n_r=16, n_mu=6, n_phi=6, r_segments=4)
    r_full = a_modes_crosscheck(0.3, 1.0, 1.0, grid=full)
    r_half = a_modes_crosscheck(0.3, 1.0, 1.0, grid=full.fold_kz())
    assert r_half["a_modes"] == r_full["a_modes"]
    assert r_half["n_modes"] == r_full["n_modes"] // 2


def test_modes_crosscheck_identical_traverses_zero():
    # difference drive of two identical traverses vanishes identically
    from abtroika.modes import ModeGrid, analytic_mode, photon_number
    tr = TrajectoryHalfCircle(1.0, 0.2, Sense.RIGHT)
    smear = SmearingProfile(SmearKind.LINE_Z, 1.0)
    grid = ModeGrid.spherical(4.0, n_r=16, n_mu=4, n_phi=4)
    from abtroika.modes import electron_drive
    dr = electron_drive(tr, smear, grid)
    drive = lambda t: dr(t) - dr(t)
    st = analytic_mode(tr, smear, grid, tr.traverse_time, drive=drive)
    assert photon_number(st) == 0.0


def test_modes_crosscheck_cutoff_guard():
    with pytest.raises(ValueError):
        a_modes_crosscheck(0.3, 1.0, 1.0, kmax_sigma=3.0)


# ------------------------------------------------------------------ c1 phase

def test_phase_cancellation_and_negative_control():
    tr = TrajectoryHalfCircle(1.0, 0.1, Sense.RIGHT)
    val, scale = phase_c1_check(tr, SmearingProfile())
    assert scale > 0
    assert abs(val) < 1e-6 * scale
    pert = TrajectoryHalfCircle(1.07, 0.1, Sense.LEFT, ramp_fraction=0.01)
    val2, scale2 = phase_c1_check(tr, SmearingProfile(), traj_left=pert)
    assert abs(val2) > 1e-3 * scale2


def test_phase_c1_zero_without_current():
    import dataclasses
    tr = dataclasses.replace(TrajectoryHalfCircle(1.0, 0.1, Sense.RIGHT), charge=0.0)
    val, scale = phase_c1_check(tr, SmearingProfile(), rho_max=2.0, z_max=2.0)
    assert val == 0.0 and scale == 0.0


# ---------------------------------------------------------------- visibility

def test_visibility_physical_regime():
    res = visibility_report(0.1, 1.0, k_max=20.0)
    assert res.a_total < 0.01
    assert res.visibility > 0.99
    assert res.a_self >= 0 and res.a_total > 0
    assert 0 < res.visibility <= 1


def test_visibility_report_carries_both_layers():
    res = visibility_report(0.2, 1.0, fine_structure=1.0, k_max=12.0)
    # reduced self term is the (negative) scaling-law object
    assert res.a1 < 0
    assert res.a2 > 0
    np.testing.assert_allclose(res.visibility, np.exp(-res.a_total), rtol=1e-12)
    assert res.err_a2 < 0.01 * res.a2


def test_phase_c1_line_smear_cancellation():
    from abtroika.quadrature import QuadratureSpec
    val, scale = phase_c1_check(
        TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT),
        SmearingProfile(SmearKind.LINE_Z, 1.0),
        rho_max=2.5, z_max=3.0, n_phi=8, line_nodes=8,
        spec=QuadratureSpec(abs_tol=1e-4, rel_tol=1e-2, max_subdivisions=400))
    assert scale > 0
    assert abs(val) < 1e-6 * scale


def test_sweep_rows():
    cfg = RunConfig()
    results = [cli._overlap_point(cfg, (0.1, lam)) for lam in (0.5, 1.0)]
    rows = [cli._sweep_row(res) for res in results]
    assert [len(r) for r in rows] == [len(cli.SWEEP_HEADER)] * 2
    beta, lam, a1, a2, a_tot, vis, phase, e1, e2 = rows[0]
    assert (beta, lam) == (0.1, 0.5)
    assert a_tot > 0 and 0 < vis <= 1
    res = results[0]
    assert (a1, a2, a_tot, vis, e1, e2) == (res.a1, res.a2, res.a_total,
                                            res.visibility, res.err_a1, res.err_a2)
    # the worker leaves the overlap phase to the stage
    assert phase == 0.0 and res.phase_scale == 0.0
