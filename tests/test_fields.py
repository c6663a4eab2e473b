import numpy as np
import pytest

from abtroika import fields
from abtroika.fields import (
    SingularFieldPoint,
    a_dot_electron,
    a_electron_retarded,
    a_solenoid,
    loop_a_phi,
)
from abtroika.geometry import (
    Sense,
    SmearKind,
    SmearingProfile,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
    mirror_map,
)
from abtroika.quadrature import retarded_time_solve

IDEAL = SolenoidModel(1.0, np.pi, SolenoidKind.IDEAL_INFINITE)
LOOPS = SolenoidModel(0.5, 1.0, SolenoidKind.FINITE_LOOPS, n_loops=200, length=10.0)
POINT = SmearingProfile(SmearKind.POINT)


class _UniformCircularOrbit:
    """Charge circling forever at constant speed (static-loop test harness)."""

    def __init__(self, radius, speed, phase, charge):
        self.radius = radius
        self.speed = speed
        self.phase = phase
        self.charge = charge

    def point_velocity_extended(self, t):
        t = np.asarray(t, dtype=float)
        phi = self.phase + self.speed * t / self.radius
        c, s = np.cos(phi), np.sin(phi)
        pos = np.stack([self.radius * c, self.radius * s, np.zeros_like(phi)], axis=-1)
        vel = self.speed * np.stack([-s, c, np.zeros_like(phi)], axis=-1)
        return pos, vel

    def separation(self, x, t):
        # the general form, from the (N, 3) position and velocity
        pos, vel = self.point_velocity_extended(t)
        rvec = x - pos
        return np.linalg.norm(rvec, axis=-1), np.einsum("ij,ij->i", rvec, vel)

    def source_terms(self, x, t):
        # the general form, from the (N, 3) position, velocity and
        # acceleration (centripetal only)
        pos, vel = self.point_velocity_extended(t)
        acc = -(self.speed / self.radius) ** 2 * pos
        rvec = x - pos
        r, rv = self.separation(x, t)
        return (r, rv, np.einsum("ij,ij->i", rvec, acc),
                np.einsum("ij,ij->i", vel, vel), (vel[:, 0], vel[:, 1]),
                (acc[:, 0], acc[:, 1]))

    def acceleration_bound(self, t):
        return np.full(np.shape(t), self.speed**2 / self.radius)


def circle_points(radius, n, z=0.0):
    th = 2 * np.pi * (np.arange(n) + 0.5) / n
    return np.stack([radius * np.cos(th), radius * np.sin(th), np.full(n, z)], axis=-1), th


def test_ideal_solenoid_magnitude_and_stokes():
    pts, th = circle_points(2.0, 256)
    A = a_solenoid(IDEAL, pts)
    mags = np.linalg.norm(A, axis=-1)
    np.testing.assert_allclose(mags, np.pi / (2 * np.pi * 2.0), rtol=1e-12)
    # circulation around the loop equals the enclosed flux (Stokes oracle)
    tang = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=-1)
    circ = (A * tang).sum(axis=-1).sum() * (2 * np.pi * 2.0 / len(th))
    np.testing.assert_allclose(circ, np.pi, rtol=1e-12)
    # azimuthal direction
    radial = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    assert np.max(np.abs((A * radial).sum(axis=-1))) < 1e-14


def test_ideal_solenoid_interior_and_axis():
    A_axis = a_solenoid(IDEAL, np.array([[0.0, 0.0, 0.3]]))
    np.testing.assert_array_equal(A_axis, np.zeros((1, 3)))
    A_in = a_solenoid(IDEAL, np.array([[0.5, 0.0, 0.0]]))
    np.testing.assert_allclose(A_in[0, 1], np.pi * 0.5 / (2 * np.pi * 1.0**2), rtol=1e-12)


def test_loop_a_phi_against_line_integral():
    # magnetostatic oracle: A_phi = (I/4pi) Int dl cos(phi') / |x - x'|
    a, current = 0.7, 1.3
    th = np.linspace(0.0, 2 * np.pi, 20001)[:-1]
    dth = th[1] - th[0]
    for rho, z in [(1.5, 0.4), (0.2, 0.9), (0.71, 2.0)]:
        src = np.stack([a * np.cos(th), a * np.sin(th), np.zeros_like(th)], axis=-1)
        obs = np.array([rho, 0.0, z])
        dist = np.linalg.norm(obs - src, axis=-1)
        # only the component along phi-hat at the observer (y direction) survives
        integrand = np.cos(th) / dist
        aphi_oracle = current * a * dth * integrand.sum() / (4 * np.pi)
        np.testing.assert_allclose(loop_a_phi(a, current, rho, z), aphi_oracle,
                                   rtol=1e-8, err_msg=f"rho={rho}, z={z}")


def _loop_a_phi_mpmath(a, current, rho, z):
    """loop_a_phi's closed form at 50 digits, from the exact float inputs."""
    import mpmath

    with mpmath.workdps(50):
        a, rho, z = mpmath.mpf(a), mpmath.mpf(rho), mpmath.mpf(z)
        mm = 4 * a * rho / ((a + rho) ** 2 + z**2)
        return float(current / (mpmath.pi * mpmath.sqrt(mm)) * mpmath.sqrt(a / rho)
                     * ((1 - mm / 2) * mpmath.ellipk(mm) - mpmath.ellipe(mm)))


def test_loop_a_phi_relative_accuracy_small_m():
    # 50-digit oracle of the closed form over m in [1e-8, 0.9]; near the axis
    # or far along it (small m) the bracket (1 - m/2) K - E cancels to
    # pi m^2 / 32 in double precision
    a, current, rho = 0.5, 1.0, 0.3
    for m in np.geomspace(1e-8, 0.9, 60):
        z = np.sqrt(4 * a * rho / m - (a + rho) ** 2)
        np.testing.assert_allclose(loop_a_phi(a, current, rho, z),
                                   _loop_a_phi_mpmath(a, current, rho, z),
                                   rtol=1e-10, err_msg=f"m={m:.3g}")


@pytest.mark.parametrize("dist", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-9])
def test_loop_a_phi_relative_accuracy_near_the_wire(dist):
    # k'^2 = 1 - m is formed as a ratio, not by subtraction: at 1e-8 a from
    # the wire 1 - m kept no correct digit
    a, current = 0.5, 1.0
    d = dist * a
    for rho, z in [(a - d, 0.0), (a + d, 0.0), (a, d)]:
        exact = _loop_a_phi_mpmath(a, current, rho, z)
        np.testing.assert_allclose(loop_a_phi(a, current, rho, z), exact,
                                   rtol=1e-13, err_msg=f"rho={rho!r}, z={z!r}")


def test_loop_a_phi_axis_limit():
    assert loop_a_phi(0.7, 1.0, 0.0, 0.5) == 0.0
    small = loop_a_phi(0.7, 1.0, 1e-9, 0.5)
    assert 0 < small < 1e-8


def test_finite_loops_approaches_ideal_at_midplane():
    ideal_match = SolenoidModel(0.5, 1.0, SolenoidKind.IDEAL_INFINITE)
    long_loops = SolenoidModel(0.5, 1.0, SolenoidKind.FINITE_LOOPS,
                               n_loops=200, length=20.0)
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.5, 0.0]])
    A_l = a_solenoid(long_loops, pts)
    A_i = a_solenoid(ideal_match, pts)
    err = np.linalg.norm(A_l - A_i, axis=-1) / np.linalg.norm(A_i, axis=-1)
    assert np.max(err) < 0.02


def test_solenoid_wire_singularity():
    zs = LOOPS.loop_positions()
    with pytest.raises(SingularFieldPoint):
        a_solenoid(LOOPS, np.array([[0.5, 0.0, zs[0]]]))


def test_retarded_causality_zero_before_arrival():
    traj = TrajectoryHalfCircle(1.0, 0.2, Sense.RIGHT)
    x = np.array([[0.0, -1.0, 5.0]])  # distance 5 from the start point
    np.testing.assert_array_equal(a_electron_retarded(traj, POINT, x, 4.9),
                                  np.zeros((1, 3)))
    assert np.linalg.norm(a_electron_retarded(traj, POINT, x, 5.5)) > 0.0


def test_retarded_static_loop_oracle():
    # many slow charges on a circle reproduce the magnetostatic loop potential
    a_l, u, m = 1.0, 1e-4, 256
    qs = 1.0 / m
    orbits = [_UniformCircularOrbit(a_l, u, 2 * np.pi * j / m, qs) for j in range(m)]
    current = m * qs * u / (2 * np.pi * a_l)
    t = 50.0
    pts = np.array([[1.7, 0.3, 0.4], [0.4, -0.2, 0.8]])
    A = np.zeros_like(pts)
    for orb in orbits:
        A += a_electron_retarded(orb, POINT, pts, t)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    phihat = np.stack([-pts[:, 1] / rho, pts[:, 0] / rho, np.zeros(len(pts))], axis=-1)
    expected = loop_a_phi(a_l, current, rho, pts[:, 2])[:, None] * phihat
    np.testing.assert_allclose(A, expected, rtol=0, atol=1e-6 * np.abs(expected).max())


def test_retarded_point_reuses_the_solver_state(monkeypatch):
    # the potential comes from the solver's source terms, which are the
    # trajectory's at t_r, so re-evaluating them there gives the same field
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.01)
    t = traj.traverse_time
    x = np.random.default_rng(9).uniform(-6.0, 6.0, (2000, 3))
    tr = retarded_time_solve(traj, x, t)[0]
    ok = ~np.isnan(tr)
    r, rv, _, _, vel, _ = traj.source_terms(x[ok], tr[ok])
    expected = np.zeros_like(x)
    for i in (0, 1):
        expected[ok, i] = traj.charge / (4 * np.pi * (r - rv)) * vel[i]

    points = []

    def counted(method):
        lookup = getattr(TrajectoryHalfCircle, method)

        def call(self, *args):
            points.append((method, np.size(args[-1])))
            return lookup(self, *args)
        return call

    for method in ("point_velocity_extended", "source_terms"):
        monkeypatch.setattr(TrajectoryHalfCircle, method, counted(method))
    A = a_electron_retarded(traj, POINT, x, t)
    field_points = list(points)
    points.clear()
    retarded_time_solve(traj, x, t)
    assert field_points == points  # no lookup beyond the solver's own
    np.testing.assert_array_equal(A, expected)


def test_retarded_mirror_antisymmetry():
    right = TrajectoryHalfCircle(1.0, 0.25, Sense.RIGHT)
    left = right.mirrored()
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.5, 2.5, (12, 3))
    t = 0.7 * right.traverse_time
    ar = a_electron_retarded(right, POINT, x, t)
    al = a_electron_retarded(left, POINT, mirror_map(x), t)
    np.testing.assert_allclose(al, mirror_map(ar), atol=1e-10)


def test_line_smear_reduces_to_point():
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT)
    x = np.array([[1.5, 0.7, 0.2]])
    t = 0.6 * traj.traverse_time
    ap = a_electron_retarded(traj, POINT, x, t)
    line = SmearingProfile(SmearKind.LINE_Z, 1e-6)
    al = a_electron_retarded(traj, line, x, t)
    np.testing.assert_allclose(al, ap, rtol=1e-6)
    # the Gauss weights of the line nodes sum to exactly one charge
    np.testing.assert_allclose(line.offsets_weights(16)[1].sum(), 1.0, rtol=1e-14)


def test_nonrelativistic_laplacian_matches_current():
    # Gauss-theorem form of -Lap A_el ~ J_el: the flux of grad A^i through a
    # small sphere around the electron equals -e u^i up to O(beta^2).
    beta = 0.01
    traj = TrajectoryHalfCircle(1.0, beta, Sense.RIGHT)
    t = 0.6 * traj.traverse_time
    pos, vel = traj.point_velocity_extended(np.asarray(t))
    pos, vel = pos.reshape(3), vel.reshape(3)
    r0, dr = 0.05, 0.004
    nth, nph = 24, 48
    xg, wg = np.polynomial.legendre.leggauss(nth)
    th = np.arccos(xg)
    ph = 2 * np.pi * (np.arange(nph) + 0.5) / nph
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    nhat = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH),
                     np.cos(TH)], axis=-1).reshape(-1, 3)
    wts = np.repeat(wg, nph) * (2 * np.pi / nph)  # weights on the unit sphere
    flux = np.zeros(3)
    Ap = a_electron_retarded(traj, POINT, pos + (r0 + dr) * nhat, t)
    Am = a_electron_retarded(traj, POINT, pos + (r0 - dr) * nhat, t)
    dAdr = (Ap - Am) / (2 * dr)
    flux = (wts[:, None] * dAdr).sum(axis=0) * r0**2
    np.testing.assert_allclose(-flux, traj.charge * vel,
                               atol=0.01 * traj.charge * np.linalg.norm(vel))


def test_a_dot_zero_at_start_and_outside_cone():
    traj = TrajectoryHalfCircle(1.0, 0.2, Sense.RIGHT, ramp_fraction=0.02)
    x = np.array([[1.0, 0.0, 0.5]])
    np.testing.assert_array_equal(a_dot_electron(traj, POINT, x, 0.0), np.zeros((1, 3)))
    far = np.array([[0.0, 30.0, 0.0]])
    np.testing.assert_array_equal(a_dot_electron(traj, POINT, far, 3.0),
                                  np.zeros((1, 3)))


def _richardson_a_dot(traj, smear, x, t, h):
    """Finite-difference oracle: centred differences of the retarded
    potential at steps h and h/2, Richardson-extrapolated."""
    def centred(hh):
        return (a_electron_retarded(traj, smear, x, t + hh)
                - a_electron_retarded(traj, smear, x, t - hh)) / (2 * hh)
    return (4.0 * centred(0.5 * h) - centred(h)) / 3.0


def _points_at_retarded_time(traj, tr, t, rng, planar=False):
    """Points whose retarded time at t is tr (tr < 0: not yet reached),
    along random directions (in the orbit plane if planar) from the source
    position at tr."""
    pos, _ = traj.point_velocity_extended(np.asarray(tr, dtype=float))
    n = rng.normal(size=(len(tr), 3))
    if planar:
        n[:, 2] = 0.0
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    return pos + (t - tr)[:, None] * n


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.9])
@pytest.mark.parametrize("eta", [0.01, 0.02])
def test_a_dot_matches_finite_difference_oracle(beta, eta):
    # retarded times on both sides of the start-up front (t_r = 0) and of
    # the ramp's end (t_r = eta T), far enough from each that the oracle's
    # stencil stays on one side, plus points well inside the traverse.  For
    # the line, in-plane directions keep every node's retarded time within
    # about dz^2 / (2 d) of the centre's, so no node crosses a front either.
    traj = TrajectoryHalfCircle(1.0, beta, Sense.RIGHT, ramp_fraction=eta)
    T = traj.traverse_time
    rng = np.random.default_rng(int(100 * beta + 1000 * eta))
    fracs = np.array([-0.3, -0.05, 0.05, 0.3, 0.7, 0.95, 1.05, 1.3, 10.0, 40.0])
    tr = np.repeat(fracs * eta * T, 8)
    for smear in (POINT, SmearingProfile(SmearKind.LINE_Z, 0.01)):
        x = _points_at_retarded_time(traj, tr, T, rng, planar=smear is not POINT)
        got = a_dot_electron(traj, smear, x, T)
        ref = _richardson_a_dot(traj, smear, x, T, 1e-4 * eta * T)
        err = np.linalg.norm(got - ref, axis=-1)
        scale = np.linalg.norm(ref, axis=-1)
        assert np.all(err <= 1e-7 * scale), (
            f"{smear.kind}: worst {np.max(err / np.where(scale > 0, scale, 1)):.2e}")
        if smear is POINT:
            assert np.all(scale[tr < 0] == 0.0) and np.all(scale[tr > 0] > 0.0)


def test_a_dot_causal_and_resolved_across_the_start_up_front():
    # At t = T the start-up front is the sphere |x - x_start| = T.  The
    # sin^2 ramp starts with zero acceleration, so dA/dt vanishes on the
    # front and grows like q a(delta) / (4 pi d) a depth delta = T - d
    # behind it.  Across a shell 4h wide (h = 5e-4 T, a typical
    # centred-difference step) the values must stay within that range:
    # zero outside, the near-front law inside.
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.01)
    T = traj.traverse_time
    t_ramp = traj.ramp_fraction * T
    h = 5e-4 * T
    x0, _ = traj.point_velocity_extended(np.zeros(1))
    ray = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    d = T + np.linspace(-2 * h, 2 * h, 41)
    mag = np.linalg.norm(a_dot_electron(traj, POINT, x0 + d[:, None] * ray, T),
                         axis=-1)
    outside = d >= T
    np.testing.assert_array_equal(mag[outside], 0.0)
    delta = T - d[~outside]
    accel = traj.speed * np.pi / (2 * t_ramp) * np.sin(np.pi * delta / t_ramp)
    near_front = traj.charge * accel / (4 * np.pi * d[~outside])
    np.testing.assert_allclose(mag[~outside], near_front, rtol=0.02)


def test_a_dot_rejects_an_impulsive_start():
    sharp = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.0)
    with pytest.raises(ValueError, match="ramp"):
        a_dot_electron(sharp, POINT, np.array([[0.0, -1.0, 3.0]]), 3.0)


@pytest.mark.parametrize("smear, solves", [
    (POINT, 1), (SmearingProfile(SmearKind.LINE_Z, 0.5), 16)])
def test_a_dot_takes_one_retarded_solve_per_line_node(monkeypatch, smear, solves):
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.01)
    calls = []

    def counted(*args):
        calls.append(1)
        return retarded_time_solve(*args)

    monkeypatch.setattr(fields, "retarded_time_solve", counted)
    x = np.random.default_rng(3).uniform(-4.0, 4.0, (50, 3))
    a_dot_electron(traj, smear, x, traj.traverse_time)
    assert len(calls) == solves


def test_wave_equation_residual_converges():
    # d2A/dt2 - Lap A = 0 off the source; finite-difference residual should
    # shrink with observed order >= 1.5
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.05)
    x0 = np.array([2.0, 0.5, 0.3])
    t0 = 6.0

    def residual(h):
        stencil = [x0]
        for d in range(3):
            for s in (+1, -1):
                p = x0.copy()
                p[d] += s * h
                stencil.append(p)
        stencil = np.array(stencil)
        A0 = a_electron_retarded(traj, POINT, stencil, t0)
        lap = (A0[1:].sum(axis=0) - 6 * A0[0]) / h**2
        Ap = a_electron_retarded(traj, POINT, x0[None, :], t0 + h)[0]
        Am = a_electron_retarded(traj, POINT, x0[None, :], t0 - h)[0]
        dtt = (Ap + Am - 2 * A0[0]) / h**2
        return np.linalg.norm(dtt - lap), np.linalg.norm(lap)

    r1, scale1 = residual(0.08)
    r2, scale2 = residual(0.04)
    order = np.log2(r1 / r2)
    assert order >= 1.5, f"observed order {order:.2f}"
    assert r2 < 0.02 * scale2  # residual small against the term size

