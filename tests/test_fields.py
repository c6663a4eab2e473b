import dataclasses

import numpy as np
import pytest

from abtroika.fields import (
    SingularFieldPoint,
    a_dot_electron,
    a_electron_retarded,
    a_solenoid,
    loop_a_phi,
    sample_fields,
    solenoid_table,
)
from abtroika.geometry import (
    Sense,
    SmearKind,
    SmearingProfile,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
    mirror_map,
    mirror_vector,
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


def test_solenoid_table_built_once_per_model_and_extent(table_builds):
    model = SolenoidModel(0.5, 1.0, SolenoidKind.FINITE_LOOPS, n_loops=4, length=2.0)
    table = solenoid_table(model, 3.0, 4.0)
    # an equal model built separately is the same cache key
    assert solenoid_table(dataclasses.replace(model), 3.0, 4.0) is table
    assert len(table_builds) == 1
    other_model = solenoid_table(dataclasses.replace(model, n_loops=6), 3.0, 4.0)
    other_rho = solenoid_table(model, 2.5, 4.0)
    assert len(table_builds) == 3
    assert other_model is not table and other_rho is not table
    # the row-chunked build still reproduces the exact loop sum
    x = np.array([[1.3, 0.4, 0.7], [0.1, -2.0, 1.9]])
    np.testing.assert_allclose(table(x), a_solenoid(model, x), rtol=1e-6)


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
    # the potential comes from the source state of the solver's last
    # iterate; re-evaluating the trajectory at t_r gives the same field
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.01)
    t = traj.traverse_time
    x = np.random.default_rng(9).uniform(-6.0, 6.0, (2000, 3))
    tr = retarded_time_solve(traj, x, t)[0]
    ok = ~np.isnan(tr)
    pos, vel = traj.point_velocity_extended(tr[ok])
    rvec = x[ok] - pos
    denom = np.linalg.norm(rvec, axis=-1) - np.einsum("ij,ij->i", rvec, vel)
    expected = np.zeros_like(x)
    expected[ok] = traj.charge * vel / (4 * np.pi * denom[:, None])

    points = []
    lookup = TrajectoryHalfCircle.point_velocity_extended

    def counted(self, s):
        points.append(np.size(s))
        return lookup(self, s)

    monkeypatch.setattr(TrajectoryHalfCircle, "point_velocity_extended", counted)
    A = a_electron_retarded(traj, POINT, x, t)
    field_points = sum(points)
    points.clear()
    retarded_time_solve(traj, x, t)
    assert field_points == sum(points)  # no lookup beyond the solver's own
    np.testing.assert_allclose(A, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def test_retarded_mirror_antisymmetry():
    right = TrajectoryHalfCircle(1.0, 0.25, Sense.RIGHT)
    left = right.mirrored()
    rng = np.random.default_rng(5)
    x = rng.uniform(-2.5, 2.5, (12, 3))
    t = 0.7 * right.traverse_time
    ar = a_electron_retarded(right, POINT, x, t)
    al = a_electron_retarded(left, POINT, mirror_map(x), t)
    np.testing.assert_allclose(al, mirror_vector(ar), atol=1e-10)


def test_line_smear_reduces_to_point():
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT)
    x = np.array([[1.5, 0.7, 0.2]])
    t = 0.6 * traj.traverse_time
    ap = a_electron_retarded(traj, POINT, x, t)
    al = a_electron_retarded(traj, SmearingProfile(SmearKind.LINE_Z, 1e-6), x, t)
    np.testing.assert_allclose(al, ap, rtol=1e-6)


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


def test_a_dot_error_estimate_and_strict_mode():
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.02)
    x = np.array([[2.0, 0.5, 0.3]])
    val, err = a_dot_electron(traj, POINT, x, 6.0, with_error=True)
    assert err[0] < 1e-4 * (np.linalg.norm(val) + 1e-12) + 1e-12
    # a point right on the start-up front with an impulsive start fails loudly
    sharp = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.0)
    front = np.array([[0.0, -1.0, 3.0]])
    with pytest.raises(SingularFieldPoint):
        a_dot_electron(sharp, POINT, front, 3.0, strict=True)


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


def test_sample_fields_bundle():
    traj = TrajectoryHalfCircle(1.0, 0.2, Sense.RIGHT, ramp_fraction=0.02)
    fs = sample_fields(traj, POINT, LOOPS, [1.5, 0.4, 0.2], 4.0)
    np.testing.assert_allclose(fs.a_cl, fs.a_el + fs.a_sol)
    np.testing.assert_allclose(fs.a_dot_cl, fs.a_dot_el)
