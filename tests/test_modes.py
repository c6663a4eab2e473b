import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from abtroika.geometry import Sense, SmearingProfile, SmearKind, TrajectoryHalfCircle
from abtroika.modes import (
    ModeGrid,
    ModeState,
    _CHUNK_ELEMS,
    _SEGMENT_NODES,
    _fft_keep_mask,
    _fields_from_state,
    _rk4_chunk,
    _time_segments,
    analytic_mode,
    b_relation_residual,
    classical_field_modes,
    electron_drive,
    evolve_mode,
    export_mode_state,
    free_rotation,
    overlap_coherent,
    overlap_gaussian_check,
    photon_number,
    random_smooth_state,
    riccati_stationarity,
    traverse_difference_drive,
)

POINT = SmearingProfile()
LINE = SmearingProfile(SmearKind.LINE_Z, sigma=1.0)


def small_traj(beta=0.3):
    return TrajectoryHalfCircle(1.0, beta, Sense.RIGHT)


# -------------------------------------------------------------------- grids

def _assert_negation_symmetric(g, atol):
    """The points -k are the points k: both sets lexsorted on keys rounded
    to 1e-9, then compared at atol."""
    def ordered(pts):
        return pts[np.lexsort(np.round(pts, 9).T)]

    np.testing.assert_allclose(ordered(-g.k_points), ordered(g.k_points),
                               rtol=0, atol=atol)


def test_cartesian_grid_symmetric_no_zero():
    g = ModeGrid.cartesian(8, 4.0)
    assert g.n_modes == 512
    assert g.omega.min() > 0
    _assert_negation_symmetric(g, atol=0)


def test_spherical_grid_symmetric():
    g = ModeGrid.spherical(6.0, n_r=16, n_mu=6, n_phi=8)
    _assert_negation_symmetric(g, atol=1e-12)
    # weights integrate d3k over the ball to a decent accuracy
    vol = g.weights.sum()
    np.testing.assert_allclose(vol, 4 / 3 * np.pi * 6.0**3, rtol=1e-6)


def test_fft_grid_pairing():
    g = ModeGrid.fft_pair(8, 6.0)
    assert g.n_modes == 7**3 - 1  # paired band only: Nyquist rows and k=0 dropped
    _assert_negation_symmetric(g, atol=1e-12)


# ---------------------------------------------------------------- evolution

def test_evolve_zero_drive_stays_vacuum():
    g = ModeGrid.cartesian(4, 2.0)
    st = evolve_mode(ModeState.vacuum(g), 0.05, 200)
    assert np.all(st.alpha == 0)
    assert st.c_phase == 0


def test_evolve_step_size_violation_names_mode():
    g = ModeGrid.cartesian(4, 2.0)
    with pytest.raises(ValueError, match="mode"):
        evolve_mode(ModeState.vacuum(g), 1.0, 1)


def test_evolve_constant_drive_closed_form():
    g = ModeGrid.cartesian(4, 3.0)
    J0 = (0.3 + 0.1j) * np.ones((g.n_modes, 3))

    def drive(t):
        return np.broadcast_to(J0, (len(t),) + J0.shape)

    om = g.omega
    t_end = 4.0
    steps = int(np.ceil(om.max() * t_end / 0.02))
    st = evolve_mode(ModeState.vacuum(g, drive), t_end / steps, steps)
    expected = J0 * ((1.0 - np.exp(-1j * om * t_end)) / (om * np.sqrt(2 * om)))[:, None]
    err = np.max(np.abs(st.alpha - expected))
    assert err < 1e-8, f"max mode error {err:.2e}"


def test_drive_off_after_traverse_alpha_modulus_constant():
    # evolve from just past the traverse end: the attached drive has switched
    # off, so per-mode |alpha| must be conserved by the integrator
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(4, 2.0)
    T = tr.traverse_time
    st_T = analytic_mode(tr, POINT, g, T * (1 + 1e-9))
    n1 = np.abs(st_T.alpha)
    dt = 0.01 / g.omega.max()
    st_late = evolve_mode(st_T, dt, int(0.5 * T / dt))  # on to ~1.5 T
    n2 = np.abs(st_late.alpha)
    assert np.max(np.abs(n1 - n2)) < 1e-10


def test_analytic_matches_evolution_ab_drive():
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 3.0)
    drive = electron_drive(tr, POINT, g)
    T = tr.traverse_time
    st_a = analytic_mode(tr, POINT, g, T)
    steps = int(np.ceil(g.omega.max() * T / 0.03))
    st_e = evolve_mode(ModeState.vacuum(g, drive), T / steps, steps)
    err = np.max(np.abs(st_a.alpha - st_e.alpha))
    assert err < 1e-6, f"max mode error {err:.2e}"
    # phases agree too
    assert abs(st_a.c_phase - st_e.c_phase) < 1e-6


def test_analytic_alpha_zero_at_start():
    tr = small_traj()
    g = ModeGrid.cartesian(4, 2.0)
    st = analytic_mode(tr, POINT, g, 0.0)
    assert np.allclose(st.alpha, 0.0)


def _neg_index(grid):
    """Index of the k -> -k partner of every mode, by a lookup on rounded keys."""
    key = np.round(grid.k_points / (np.abs(grid.k_points).max() * 1e-12)).astype(np.int64)
    lookup = {tuple(row): i for i, row in enumerate(key)}
    return np.array([lookup[tuple(-row)] for row in key])


def _fields_oracle(state):
    """Real A and Adot on the fft cube from the conjugate-symmetrised modes
    At = (alpha(k) + alpha(-k)*) / sqrt(2 omega) and
    Vt = -i sqrt(omega / 2) (alpha(k) - alpha(-k)*), one inverse transform
    per polarization."""
    g = state.grid
    n, p = g.fft_n, state.alpha.shape[1]
    neg = _neg_index(g)
    om = g.omega[:, None]
    At = (state.alpha + np.conj(state.alpha[neg])) / np.sqrt(2 * om)
    Vt = -1j * np.sqrt(om / 2) * (state.alpha - np.conj(state.alpha[neg]))
    keep = _fft_keep_mask(n)
    fac = (2 * np.pi / g.box_length) ** 3 * n**3 / (2 * np.pi) ** 1.5
    fields = []
    for modes in (At, Vt):
        full = np.zeros((n**3, p), complex)
        full[keep] = modes
        out = np.empty((n, n, n, p))
        for i in range(p):
            out[..., i] = np.fft.ifftn(full[:, i].reshape(n, n, n)).real * fac
        fields.append(out)
    return fields


@pytest.mark.parametrize("p", [2, 3])
def test_fields_from_state_match_symmetrised_transform(p):
    # the one-sided sum 2 Re[...] equals the field built from the explicitly
    # conjugate-symmetrised mode functions
    g = ModeGrid.fft_pair(8, 6.0)
    rng = np.random.default_rng(7)
    alpha = rng.normal(size=(g.n_modes, p)) + 1j * rng.normal(size=(g.n_modes, p))
    st = ModeState(g, alpha, 0j, 0.0)
    for field, want in zip(_fields_from_state(st), _fields_oracle(st)):
        assert field.shape == (8, 8, 8, p)
        assert _rel(field, want) <= 1e-13


# ------------------------------------------------------------ photon number

def test_photon_number_vacuum_and_single_mode():
    g = ModeGrid.cartesian(4, 2.0)
    assert photon_number(ModeState.vacuum(g)) == 0.0
    alpha = np.zeros((g.n_modes, 3), complex)
    alpha[5, 1] = 2.0
    st = ModeState(g, alpha, 0j, 0.0)
    np.testing.assert_allclose(photon_number(st), 4.0 * g.weights[5], rtol=1e-15)


def test_photon_number_free_evolution_invariant():
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(4, 2.0)
    T = tr.traverse_time
    st = analytic_mode(tr, POINT, g, T * (1 + 1e-9))  # drive already off
    n0 = photon_number(st)
    dt = 0.01 / g.omega.max()
    st2 = evolve_mode(st, dt, 2000)
    assert abs(photon_number(st2) - n0) <= 1e-10 * max(n0, 1.0)


def test_photon_number_continuous_across_switch_off():
    # the drive is off after T, so the quadratures must give N(T) again just
    # past it: no Gauss segment may straddle the switch-off
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 6.0)
    T = tr.traverse_time
    om = g.omega[:, None]

    def numbers(t):
        At, Vt = classical_field_modes(tr, POINT, g, t)
        classical = np.sum(g.weights[:, None] * np.abs(om * At + 1j * Vt) ** 2 / (2 * om))
        return photon_number(analytic_mode(tr, POINT, g, t)), classical

    for at_T, after in zip(numbers(T), numbers(T * (1 + 1e-9))):
        assert abs(after - at_T) <= 1e-13 * at_T


# ------------------------------------------- batched drive against oracles
# The per-time drive, the per-step RK4 and the nested-loop quadratures below
# are the references for the time-batched forms in abtroika.modes.

def _drive_oracle(traj, smear, grid):
    """Traverse current one time at a time: t -> (n_modes, 3)."""
    pref = (2 * np.pi) ** (-1.5) * traj.charge
    S = smear.fourier_factor(grid.k_points[:, 2])
    T = traj.traverse_time

    def drive(t):
        if t < 0.0 or t > T * (1 + 1e-13):
            return np.zeros((grid.n_modes, 3), complex)
        pos, vel = traj.point_velocity_extended(np.asarray(min(t, T)))
        phase = np.exp(-1j * (grid.k_points @ pos.reshape(3)))
        return pref * (S * phase)[:, None] * vel.reshape(1, 3)

    return drive


def _evolve_oracle(state, dt, steps, drive):
    """RK4 with four scalar-time drive calls per step, on three polarization
    components (the state's own ones padded with zeros); returns (alpha, c)."""
    om = state.grid.omega
    w = state.grid.weights
    sq = np.sqrt(2.0 * om)

    def rhs(t, alpha):
        J = drive(t)
        dalpha = -1j * (om[:, None] * alpha) + 1j * J / sq[:, None]
        dc = 1j * np.sum(w[:, None] * np.conj(J) * alpha / sq[:, None])
        return dalpha, dc

    alpha = np.zeros((state.grid.n_modes, 3), complex)
    alpha[:, :state.alpha.shape[1]] = state.alpha
    c = complex(state.c_phase)
    t0 = state.time
    for i in range(steps):
        t = t0 + i * dt
        k1a, k1c = rhs(t, alpha)
        k2a, k2c = rhs(t + dt / 2, alpha + dt / 2 * k1a)
        k3a, k3c = rhs(t + dt / 2, alpha + dt / 2 * k2a)
        k4a, k4c = rhs(t + dt, alpha + dt * k3a)
        alpha = alpha + dt / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
        c = c + dt / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
    return alpha, c


def _analytic_oracle(grid, t, T, drive):
    """analytic_mode by nested per-node loops; returns (alpha, c)."""
    om = grid.omega
    sq = np.sqrt(2.0 * om)
    w = grid.weights
    xg, wg = np.polynomial.legendre.leggauss(8)
    S = np.zeros((grid.n_modes, 3), complex)
    c_im = 0.0
    edges = _time_segments(t, float(om.max()), T)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        tsub = mid + half * xg
        Jsub = [drive(ts) for ts in tsub]
        for gi, ts in enumerate(tsub):
            ihalf, imid = 0.5 * (ts - lo), 0.5 * (ts + lo)
            part = np.zeros_like(S)
            for gj, ti in enumerate(imid + ihalf * xg):
                part += (ihalf * wg[gj]) * drive(ti) * np.exp(1j * om[:, None] * ti)
            alpha_here = 1j / sq[:, None] * np.exp(-1j * om[:, None] * ts) * (S + part)
            integrand = 1j * np.sum(w[:, None] * np.conj(Jsub[gi]) * alpha_here / sq[:, None])
            c_im += (half * wg[gi]) * integrand.imag
        for gj in range(8):
            S = S + (half * wg[gj]) * Jsub[gj] * np.exp(1j * om * tsub[gj])[:, None]
    alpha = 1j / sq[:, None] * np.exp(-1j * om[:, None] * t) * S
    return alpha, -0.5 * np.sum(w[:, None] * np.abs(alpha) ** 2) + 1j * c_im


def _classical_oracle(grid, t, T, drive):
    """classical_field_modes by a per-node loop; returns (At, Vt)."""
    om = grid.omega
    xg, wg = np.polynomial.legendre.leggauss(8)
    Ssin = np.zeros((grid.n_modes, 3), complex)
    Scos = np.zeros_like(Ssin)
    edges = _time_segments(t, float(om.max()), T)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        for gj in range(8):
            ts = mid + half * xg[gj]
            J = drive(ts)
            Ssin += (half * wg[gj]) * J * np.sin(om[:, None] * ts)
            Scos += (half * wg[gj]) * J * np.cos(om[:, None] * ts)
    s, c = np.sin(om * t)[:, None], np.cos(om * t)[:, None]
    return (s * Scos - c * Ssin) / om[:, None], c * Scos + s * Ssin


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _in_plane(a):
    """x, y columns of a three-component oracle result, whose z column must
    be exactly zero (the orbit lies in the plane z = 0)."""
    assert np.all(a[..., 2] == 0)
    return a[..., :2]


@pytest.mark.parametrize("smear", [POINT, LINE])
def test_drive_batch_matches_per_time_oracle(smear):
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(4, 2.0)
    T = tr.traverse_time
    drive = electron_drive(tr, smear, g)
    oracle = _drive_oracle(tr, smear, g)
    ts = np.array([-0.1, -1e-300, 0.0, 0.37 * T, 0.999 * T, T, T * (1 + 5e-14),
                   T * (1 + 1e-12), 2.0 * T])
    got = drive(ts)
    assert got.shape == (len(ts), g.n_modes, 2)
    np.testing.assert_allclose(got, _in_plane(np.stack([oracle(t) for t in ts])),
                               rtol=1e-14, atol=0)
    # zero outside the support, the final sample at T by a few ulp past it
    assert np.all(got[[0, 1, 7, 8]] == 0)
    assert np.all(got[6] == got[5]) and np.any(got[6] != 0)
    assert drive(np.empty(0)).shape == (0, g.n_modes, 2)
    diff = traverse_difference_drive(tr, smear, g)(ts)
    mirror = electron_drive(tr.mirrored(), smear, g)(ts)
    np.testing.assert_array_equal(diff, got - mirror)


def test_drive_calls_per_chunk_and_none_after_support(monkeypatch):
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(4, 2.0)
    T = tr.traverse_time
    dt = 0.05 / g.omega.max()
    chunk = _rk4_chunk(g.n_modes, 2)
    drive = electron_drive(tr, POINT, g)
    batches = []

    def counted(ts):
        batches.append(len(ts))
        return drive(ts)

    steps = 2 * chunk + 1
    vacuum = ModeState.vacuum(g, counted)
    assert vacuum.alpha.shape == (g.n_modes, 2) and batches == [0]
    batches.clear()
    evolve_mode(vacuum, dt, steps)
    assert len(batches) == math.ceil(steps / chunk)
    assert batches == [2 * chunk + 1, 2 * chunk + 1, 3]

    # on the folded grids of mode_grid_n = 6 and 16 (108 and 2048 modes x 2)
    # each per-step work array of a chunk, (m, n_modes, 2), fits
    # _CHUNK_ELEMS, and one more step would not
    for n in (6, 16):
        big = ModeGrid.cartesian(n, 3.0).fold_kz()
        big_drive = electron_drive(tr, POINT, big)
        sizes = []

        def counted_big(ts):
            sizes.append(len(ts))
            return big_drive(ts)

        evolve_mode(ModeState.vacuum(big, counted_big), 0.05 / big.omega.max(),
                    _rk4_chunk(big.n_modes, 2) + 1)
        m = (sizes[1] - 1) // 2
        assert m * 2 * big.n_modes <= _CHUNK_ELEMS < (m + 1) * 2 * big.n_modes
        assert sizes[2] == 3

    # without a drive no drive values are made: the free steps allocate
    # less than one chunk's per-step array
    tracemalloc.start()
    try:
        evolve_mode(replace(vacuum, drive=None), dt, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * _CHUNK_ELEMS

    st_T = analytic_mode(tr, POINT, g, T * (1 + 1e-9), drive=drive)
    lookups = []
    real = TrajectoryHalfCircle.point_velocity_extended

    def lookup(self, t):
        lookups.append(np.size(t))
        return real(self, t)

    monkeypatch.setattr(TrajectoryHalfCircle, "point_velocity_extended", lookup)
    evolve_mode(st_T, dt, 3 * chunk)
    assert lookups == []


def test_free_evolution_bit_identical_to_per_step_oracle():
    # the rounding of free evolution sets the photon-number drift check, so
    # the batched RK4 must not move it by a single bit
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 3.0)
    T = tr.traverse_time
    st = analytic_mode(tr, POINT, g, T * (1 + 1e-9))
    dt = 0.01 / g.omega.max()
    chunk = _rk4_chunk(g.n_modes, 2)
    for steps in (1, chunk - 1, chunk, chunk + 1):
        for start in (st, replace(st, drive=None)):
            got = evolve_mode(start, dt, steps)
            alpha, c = _evolve_oracle(st, dt, steps, _drive_oracle(tr, POINT, g))
            alpha = _in_plane(alpha)
            np.testing.assert_array_equal(got.alpha, alpha)
            assert got.c_phase == c
            assert photon_number(got) == photon_number(replace(got, alpha=alpha))


def test_traverse_evolution_matches_per_step_oracle():
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 3.0)
    T = tr.traverse_time
    chunk = _rk4_chunk(g.n_modes, 2)
    drive = electron_drive(tr, LINE, g)
    oracle = _drive_oracle(tr, LINE, g)
    # dt * omega_max = 0.5 is the largest step evolve_mode takes
    for dt in (0.1 / g.omega.max(), 0.5 / g.omega.max()):
        cases = [(0.0, n) for n in (1, chunk - 1, chunk, chunk + 1)]
        # t0 != 0; the support ending on a half step and inside a step mid-chunk
        cases += [(0.3 * T, 2 * chunk + 1), (T - 5.5 * dt, chunk + 1),
                  (T - 4.3 * dt, chunk + 1)]
        # a chunk driven for its first half and zero for the rest, then
        # chunks that are zero throughout
        cases += [(T - chunk // 2 * dt, 3 * chunk)]
        for t0, steps in cases:
            start = ModeState(g, np.zeros((g.n_modes, 2), complex), 0j, t0, drive)
            if t0:
                start = replace(start, alpha=analytic_mode(tr, LINE, g, t0).alpha,
                                c_phase=0.1 + 0.2j)
            got = evolve_mode(start, dt, steps)
            alpha, c = _evolve_oracle(start, dt, steps, oracle)
            assert _rel(got.alpha, _in_plane(alpha)) <= 1e-13, (dt, t0, steps)
            assert abs(got.c_phase - c) <= 1e-13 * abs(c), (dt, t0, steps)
            assert got.time == t0 + steps * dt


@pytest.mark.parametrize("n", [4, 6])
def test_quadratures_match_nested_loop_oracles(n):
    # the oracle takes c's inner integral up to each node by a nested Gauss
    # rule on [lo, t_j]: a rule for c independent of analytic_mode's
    # collocation on the segment's own nodes
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(n, 3.0)
    T = tr.traverse_time
    oracle = _drive_oracle(tr, LINE, g)
    for t in (0.6 * T, T):
        st = analytic_mode(tr, LINE, g, t)
        alpha, c = _analytic_oracle(g, t, T, oracle)
        assert _rel(st.alpha, _in_plane(alpha)) <= 1e-13
        assert abs(st.c_phase - c) <= 1e-13 * abs(c)
        At, Vt = classical_field_modes(tr, LINE, g, t)
        At_o, Vt_o = _classical_oracle(g, t, T, oracle)
        assert _rel(At, _in_plane(At_o)) <= 1e-13
        assert _rel(Vt, _in_plane(Vt_o)) <= 1e-13


def test_analytic_mode_one_drive_call_per_segment():
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(4, 3.0)
    T = tr.traverse_time
    drive = electron_drive(tr, LINE, g)
    for t in (0.6 * T, 1.3 * T):
        batches = []

        def counted(ts):
            batches.append(len(ts))
            return drive(ts)

        analytic_mode(tr, LINE, g, t, drive=counted)
        segments = len(_time_segments(t, float(g.omega.max()), T)) - 1
        # the empty polarization probe, then the Gauss nodes of each segment
        assert batches == [0] + [_SEGMENT_NODES] * segments


def test_analytic_phase_is_the_rk4_limit_at_fourth_order():
    # evolve_mode's c tends to analytic_mode's as dt^4: halving dt divides
    # their difference by 16
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 3.0)
    T = tr.traverse_time
    drive = electron_drive(tr, LINE, g)
    c = analytic_mode(tr, LINE, g, T, drive=drive).c_phase
    steps = int(np.ceil(g.omega.max() * T / 0.2))
    errs = np.array([
        abs(evolve_mode(ModeState.vacuum(g, drive), T / s, s).c_phase - c)
        for s in (steps, 2 * steps, 4 * steps)])
    ratios = errs[:-1] / errs[1:]
    assert np.all((ratios > 15) & (ratios < 17)), ratios


# ------------------------------------------------------------ k_z symmetry
# The orbit lies in the plane z = 0.  The drive with all three current
# components is the oracle for the in-plane drive, and the full cartesian
# grid the oracle for its k_z > 0 half.

def _drive3_oracle(traj, smear, grid):
    """The batched traverse drive with all three current components."""
    pS = (2 * np.pi) ** (-1.5) * traj.charge * smear.fourier_factor(grid.k_points[:, 2])
    kT = grid.k_points.T.copy()
    T = traj.traverse_time

    def drive(ts):
        out = np.zeros((len(ts), grid.n_modes, 3), complex)
        on = (ts >= 0.0) & (ts <= T * (1 + 1e-13))
        if on.any():
            pos, vel = traj.point_velocity_extended(np.minimum(ts[on], T))
            out[on] = (pS * np.exp(-1j * (pos @ kT)))[..., None] * vel[:, None, :]
        return out

    return drive


def _kz_mirror(n):
    """Index of the k_z -> -k_z partner of every point of ModeGrid.cartesian(n, .)."""
    return np.arange(n**3).reshape(n, n, n)[:, :, ::-1].ravel()


@pytest.mark.parametrize("smear", [POINT, LINE])
def test_drive_is_in_plane_part_of_three_component_drive(smear):
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 3.0)
    T = tr.traverse_time
    ts = np.append(np.linspace(-0.1 * T, 1.1 * T, 41), T)
    np.testing.assert_array_equal(electron_drive(tr, smear, g)(ts),
                                  _in_plane(_drive3_oracle(tr, smear, g)(ts)))


@pytest.mark.parametrize("smear", [POINT, LINE])
def test_amplitudes_even_in_kz(smear):
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 3.0)
    mirror = _kz_mirror(6)
    np.testing.assert_array_equal(g.k_points[mirror], g.k_points * [1, 1, -1])
    T = tr.traverse_time
    drive = electron_drive(tr, smear, g)
    st_a = analytic_mode(tr, smear, g, T, drive=drive)
    steps = int(np.ceil(g.omega.max() * T / 0.03))
    st_e = evolve_mode(ModeState.vacuum(g, drive), T / steps, steps)
    for alpha in (st_a.alpha, st_e.alpha):
        np.testing.assert_array_equal(alpha[mirror], alpha)


@pytest.mark.parametrize("smear", [POINT, LINE])
def test_folded_grid_reproduces_full_grid(smear):
    # the modes stage's photon number and max-residual checks read the same
    # on the k_z > 0 half-grid as on the full grid, bit for bit
    tr = small_traj(0.3)
    full = ModeGrid.cartesian(6, 3.0)
    half = full.fold_kz()
    upper = full.k_points[:, 2] > 0
    np.testing.assert_array_equal(half.k_points, full.k_points[upper])
    np.testing.assert_array_equal(half.weights, 2 * full.weights[upper])
    T = tr.traverse_time

    def checks(g):
        drive = electron_drive(tr, smear, g)
        st_a = analytic_mode(tr, smear, g, T, drive=drive)
        steps = int(np.ceil(g.omega.max() * T / 0.03))
        st_e = evolve_mode(ModeState.vacuum(g, drive), T / steps, steps)
        diff = analytic_mode(tr, smear, g, T,
                             drive=traverse_difference_drive(tr, smear, g))
        return st_a.alpha, (photon_number(st_a), photon_number(diff),
                            float(np.max(np.abs(st_a.alpha - st_e.alpha))),
                            b_relation_residual(tr, smear, g, 0.7 * T))

    alpha_half, half_checks = checks(half)
    alpha_full, full_checks = checks(full)
    np.testing.assert_array_equal(alpha_half, alpha_full[upper])
    assert half_checks == full_checks


def test_fold_kz_rejects_grids_without_the_mirror():
    g = ModeGrid.cartesian(4, 2.0)
    with pytest.raises(ValueError, match="k_z -> -k_z"):
        ModeGrid(g.k_points + [0.0, 0.0, 0.1], g.weights).fold_kz()
    w = g.weights.copy()
    w[0] *= 1.5
    with pytest.raises(ValueError, match="weights"):
        ModeGrid(g.k_points, w).fold_kz()
    with pytest.raises(ValueError, match="k_z = 0"):
        ModeGrid.fft_pair(8, 6.0).fold_kz()


def test_fold_kz_spherical_keeps_the_volume():
    g = ModeGrid.spherical(6.0, n_r=16, n_mu=6, n_phi=8)
    h = g.fold_kz()
    assert h.n_modes == g.n_modes // 2 and np.all(h.k_points[:, 2] > 0)
    np.testing.assert_allclose(h.weights.sum(), g.weights.sum(), rtol=1e-14)


def test_free_rotation_is_free_evolution():
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(6, 3.0).fold_kz()
    T = tr.traverse_time
    st = analytic_mode(tr, LINE, g, T)
    start = free_rotation(st, 1e-9 * T)
    assert start.time == T + 1e-9 * T
    assert start.c_phase == st.c_phase and start.drive is st.drive
    n0 = photon_number(st)
    assert abs(photon_number(start) - n0) <= 1e-15 * n0
    # the RK4 integrator agrees with the exact rotation after the drive is off
    dt = 0.01 / g.omega.max()
    got = evolve_mode(start, dt, 200)
    assert _rel(got.alpha, free_rotation(start, 200 * dt).alpha) <= 1e-8


# ----------------------------------------------------------------- overlaps

def _coherent_state(grid, alpha, gamma=0.0):
    c = -0.5 * np.sum(grid.weights[:, None] * np.abs(alpha) ** 2) + 1j * gamma
    return ModeState(grid, alpha, complex(c), 0.0)


def test_overlap_identical_states_pure_phase():
    g = ModeGrid.cartesian(4, 2.0)
    rng = np.random.default_rng(0)
    alpha = rng.normal(size=(g.n_modes, 3)) + 1j * rng.normal(size=(g.n_modes, 3))
    st = _coherent_state(g, alpha, gamma=0.37)
    ov = overlap_coherent(st, st)
    np.testing.assert_allclose(abs(ov), 1.0, rtol=1e-12)


def test_overlap_modulus_is_displacement_gaussian():
    g = ModeGrid.cartesian(4, 2.0)
    rng = np.random.default_rng(1)
    aL = rng.normal(size=(g.n_modes, 3)) + 1j * rng.normal(size=(g.n_modes, 3))
    aR = rng.normal(size=(g.n_modes, 3)) + 1j * rng.normal(size=(g.n_modes, 3))
    ov = overlap_coherent(_coherent_state(g, aL), _coherent_state(g, aR))
    expected = np.exp(-0.5 * np.sum(g.weights[:, None] * np.abs(aR - aL) ** 2))
    np.testing.assert_allclose(abs(ov), expected, rtol=1e-10)


def test_overlap_modulus_matches_photon_number_on_traverses():
    # two code paths for the decoherence exponent of the traverse pair:
    # -ln|<L|R>| against half the photon number of the difference state
    tr = small_traj(0.3)
    smear = SmearingProfile(SmearKind.LINE_Z, sigma=1.0)
    g = ModeGrid.cartesian(6, 3.0)
    T = tr.traverse_time
    stR = analytic_mode(tr, smear, g, T)
    stL = analytic_mode(tr.mirrored(), smear, g, T)
    ov = overlap_coherent(stL, stR)
    diff = ModeState(g, stR.alpha - stL.alpha, 0j, T)
    np.testing.assert_allclose(-np.log(abs(ov)), 0.5 * photon_number(diff),
                               rtol=1e-10)


def test_overlap_grid_mismatch_rejected():
    g1 = ModeGrid.cartesian(4, 2.0)
    g2 = ModeGrid.cartesian(4, 3.0)
    with pytest.raises(ValueError):
        overlap_coherent(ModeState.vacuum(g1), ModeState.vacuum(g2))


def test_gaussian_overlap_identity_random_fields():
    g = ModeGrid.fft_pair(8, 6.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        stL = random_smooth_state(g, rng)
        stR = random_smooth_state(g, rng)
        lhs, rhs = overlap_gaussian_check(stL, stR)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-8, f"worst relative mismatch {worst:.2e}"


def test_gaussian_overlap_identical_configurations():
    g = ModeGrid.fft_pair(8, 6.0)
    rng = np.random.default_rng(3)
    st = random_smooth_state(g, rng)
    lhs, rhs = overlap_gaussian_check(st, st)
    np.testing.assert_allclose(abs(lhs), 1.0, rtol=1e-12)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_gaussian_overlap_needs_fft_grid():
    g = ModeGrid.cartesian(4, 2.0)
    with pytest.raises(ValueError):
        overlap_gaussian_check(ModeState.vacuum(g), ModeState.vacuum(g))


# ------------------------------------------------- kernel / field relations

def test_riccati_stationary_kernel():
    g = ModeGrid.cartesian(4, 2.0)
    assert riccati_stationarity(g) == 0.0


def test_riccati_wrong_kernel_flagged():
    g = ModeGrid.cartesian(4, 2.0)
    res = riccati_stationarity(g, kernel=lambda om: om)
    expected = np.max(np.abs(-2 * g.omega**2 + g.omega**2 / 2))
    np.testing.assert_allclose(res, expected, rtol=1e-12)
    assert res > 1.0


def test_b_relation_from_classical_field():
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(4, 2.0)
    res = b_relation_residual(tr, POINT, g, 0.7 * tr.traverse_time)
    assert res < 1e-8, f"b-relation residual {res:.2e}"


# ------------------------------------------------------------------- export

def test_export_text(tmp_path):
    g = ModeGrid.cartesian(4, 2.0)
    rng = np.random.default_rng(9)
    alpha = rng.normal(size=(g.n_modes, 3)) + 1j * rng.normal(size=(g.n_modes, 3))
    st = _coherent_state(g, alpha)
    txt = tmp_path / "state.txt"
    export_mode_state(st, txt)
    table = np.loadtxt(txt)
    assert table.shape == (3 * g.n_modes, 7)
    np.testing.assert_allclose(table[: g.n_modes, :3], g.k_points)
    np.testing.assert_allclose(table[: g.n_modes, 4], alpha[:, 0].real)


def test_export_in_plane_state(tmp_path):
    tr = small_traj(0.3)
    g = ModeGrid.cartesian(4, 2.0).fold_kz()
    st = analytic_mode(tr, LINE, g, tr.traverse_time)
    txt = tmp_path / "state.txt"
    export_mode_state(st, txt)
    table = np.loadtxt(txt)
    assert table.shape == (2 * g.n_modes, 7)
    np.testing.assert_array_equal(table[:, 3], np.repeat([0.0, 1.0], g.n_modes))
    np.testing.assert_allclose(table[g.n_modes:, 4], st.alpha[:, 1].real)
