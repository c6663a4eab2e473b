import numpy as np
import pytest

from abtroika.geometry import (
    Sense,
    SmearingProfile,
    SmearKind,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
    UnitsAndCouplings,
    mirror_map,
)


def make_traj(sense=Sense.RIGHT, beta=0.1, eta=0.0):
    return TrajectoryHalfCircle(radius=1.0, speed=beta, sense=sense, ramp_fraction=eta)


def test_couplings_validation():
    UnitsAndCouplings(beta=0.5, lam=1.0)
    with pytest.raises(ValueError):
        UnitsAndCouplings(beta=1.5, lam=1.0)
    with pytest.raises(ValueError):
        UnitsAndCouplings(beta=0.5, lam=0.0)
    with pytest.raises(ValueError):
        UnitsAndCouplings(beta=0.5, lam=1.0, fine_structure=-1.0)


def test_right_traverse_endpoints():
    traj = make_traj()
    pos0, vel0 = traj.point_velocity_extended(0.0)
    np.testing.assert_allclose(pos0.ravel(), [0.0, -1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(vel0.ravel(), [traj.speed, 0.0, 0.0], atol=1e-14)
    posT, _ = traj.point_velocity_extended(traj.traverse_time)
    np.testing.assert_allclose(posT.ravel(), [0.0, 1.0, 0.0], atol=1e-12)


def test_left_traverse_start():
    traj = make_traj(Sense.LEFT)
    pos0, vel0 = traj.point_velocity_extended(0.0)
    np.testing.assert_allclose(pos0.ravel(), [0.0, -1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(vel0.ravel(), [-traj.speed, 0.0, 0.0], atol=1e-14)


def test_traverse_time():
    traj = make_traj(beta=0.25)
    assert traj.traverse_time == np.pi * 1.0 / 0.25


def test_position_norm_and_speed():
    traj = make_traj(beta=0.3)
    t = np.linspace(0.0, traj.traverse_time, 201)
    pos, vel = traj.point_velocity_extended(t)
    np.testing.assert_allclose(np.linalg.norm(pos, axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(vel, axis=-1), 0.3, atol=1e-12)


def test_ramp_speed_profile():
    traj = make_traj(beta=0.2, eta=0.1)
    T = traj.traverse_time
    _, vel0 = traj.point_velocity_extended(0.0)
    assert np.linalg.norm(vel0) == 0.0
    t = np.linspace(0.15 * T, T, 50)
    _, vel = traj.point_velocity_extended(t)
    np.testing.assert_allclose(np.linalg.norm(vel, axis=-1), 0.2, atol=1e-12)
    # position still on the circle throughout the ramp
    t = np.linspace(0.0, T, 101)
    pos, _ = traj.point_velocity_extended(t)
    np.testing.assert_allclose(np.linalg.norm(pos, axis=-1), 1.0, atol=1e-12)


def _full_array_arc_speed(traj, t):
    """Oracle: the sin^2 ramp's arc and speed evaluated at every time, and
    selected afterwards."""
    t = np.asarray(t, dtype=float)
    u, t_ramp = traj.speed, traj.ramp_fraction * traj.traverse_time
    tc = np.clip(t, 0.0, None)
    in_ramp = tc < t_ramp
    spd = np.where(in_ramp, u * np.sin(np.pi * tc / (2 * t_ramp)) ** 2, u)
    spd = np.where(t >= 0.0, spd, 0.0)
    arc_ramp = u * (tc / 2 - (t_ramp / (2 * np.pi)) * np.sin(np.pi * tc / t_ramp))
    return np.where(in_ramp, arc_ramp, u * t_ramp / 2 + u * (tc - t_ramp)), spd


def _unramped_arc_speed(traj, t):
    """Oracle without a ramp: uniform motion from t = 0."""
    t = np.asarray(t, dtype=float)
    return traj.speed * np.clip(t, 0.0, None), np.where(t >= 0.0, traj.speed, 0.0)


@pytest.mark.parametrize("t_over_T", [
    -0.3, 0.0, 0.004, 0.01, 0.7, 1.2,
    np.linspace(-0.1, 1.1, 1201), np.array([-1.0, 0.0, 0.005, 0.01, 2.0]), -0.0, 1.0])
def test_ramp_arc_speed_matches_full_array_form(t_over_T):
    # the ramp terms are evaluated only inside [0, eta T): before t = 0,
    # inside the ramp, after it and on 0-d input the values are unchanged;
    # eta = 0 takes the same form with an empty ramp, and each case checks
    # it against uniform motion from t = 0, sign bits included
    for eta, oracle in ((0.01, _full_array_arc_speed), (0.0, _unramped_arc_speed)):
        traj = make_traj(beta=0.3, eta=eta)
        t = np.asarray(t_over_T) * traj.traverse_time
        got = traj._arc_speed(t)
        for g, ref in zip(got, oracle(traj, t)):
            assert np.shape(g) == np.shape(t)
            assert np.asarray(g).tobytes() == ref.tobytes()


def _forbid_the_general_form(monkeypatch):
    """Make np.clip and np.where raise, so only the constant-speed path runs."""
    def forbidden(*args, **kwargs):
        raise AssertionError("general form evaluated")
    monkeypatch.setattr(np, "clip", forbidden)
    monkeypatch.setattr(np, "where", forbidden)


@pytest.mark.parametrize("eta", [0.0, 0.01])
@pytest.mark.parametrize("t_over_T", [
    np.linspace(0.01, 1.1, 1201), np.array([0.01, 0.5, 1.0, 2.0]),
    np.array([[0.3, 1.0], [0.02, 0.7]]), 0.7])
def test_arc_speed_past_the_ramp_takes_the_constant_speed_path(
        monkeypatch, eta, t_over_T):
    # every time at or past the end of the ramp (its first instant
    # included): the same bytes as the full-array form, without it
    traj = make_traj(beta=0.3, eta=eta)
    t = np.asarray(t_over_T) * traj.traverse_time
    if eta == 0.0:
        t = np.append(t, [0.0, -0.0])  # an empty ramp ends at t = 0
    ref = _full_array_arc_speed(traj, t) if eta else _unramped_arc_speed(traj, t)
    _forbid_the_general_form(monkeypatch)
    for g, want in zip(traj._arc_speed(t), ref):
        assert np.shape(g) == np.shape(t)
        assert np.asarray(g).tobytes() == want.tobytes()


def test_arc_speed_before_the_ramp_end_takes_the_general_form(monkeypatch):
    traj = make_traj(beta=0.3, eta=0.01)
    t = np.array([0.5, 0.004]) * traj.traverse_time  # one time inside the ramp
    _forbid_the_general_form(monkeypatch)
    with pytest.raises(AssertionError, match="general form"):
        traj._arc_speed(t)


@pytest.mark.parametrize("shape", [(), (5,), (2, 3), (0,)])
@pytest.mark.parametrize("eta", [0.0, 0.01])
def test_acceleration_bound_past_the_ramp_is_a_full_centripetal_array(
        monkeypatch, shape, eta):
    traj = make_traj(beta=0.3, eta=eta)
    T = traj.traverse_time
    t = np.full(shape, 0.5 * T)
    if t.size:
        t.flat[0] = eta * T  # the end of the ramp itself
    inside = traj.acceleration_bound(np.full(shape, 0.5 * eta * T))
    _forbid_the_general_form(monkeypatch)
    bound = traj.acceleration_bound(t)
    assert isinstance(bound, np.ndarray) and bound.dtype == float
    assert bound.shape == t.shape
    assert np.all(bound == traj.speed**2 / traj.radius)
    # inside the ramp the tangential term adds to it
    assert inside.shape == t.shape
    assert np.all(inside > bound) if eta else np.all(inside == bound)


@pytest.mark.parametrize("sense", list(Sense))
@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_angle_speed_gives_position_and_velocity(sense, eta):
    traj = make_traj(sense, beta=0.4, eta=eta)
    t = np.linspace(-0.1, 1.1, 97) * traj.traverse_time
    phi, v_s = traj.angle_speed(t)
    pos, vel = traj.point_velocity_extended(t)
    np.testing.assert_array_equal(pos[:, :2], np.stack([np.cos(phi), np.sin(phi)], -1))
    np.testing.assert_array_equal(vel[:, :2], v_s[:, None] * np.stack(
        [-np.sin(phi), np.cos(phi)], -1))
    np.testing.assert_allclose(np.abs(v_s), np.linalg.norm(vel, axis=-1), rtol=1e-15)
    assert np.all(pos[:, 2] == 0.0) and np.all(vel[:, 2] == 0.0)


@pytest.mark.parametrize("sense", list(Sense))
@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_separation_matches_position_and_velocity(sense, eta):
    # r and (x - x_el) . v from the angle agree with the (N, 3) form
    traj = make_traj(sense, beta=0.4, eta=eta)
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 3.0, (400, 3))
    t = rng.uniform(-0.1, 1.1, 400) * traj.traverse_time
    r, rv = traj.separation(x, t)
    pos, vel = traj.point_velocity_extended(t)
    rvec = x - pos
    np.testing.assert_allclose(r, np.linalg.norm(rvec, axis=-1), rtol=1e-14)
    np.testing.assert_allclose(rv, np.einsum("ij,ij->i", rvec, vel), rtol=0, atol=1e-14)


def _cartesian_acceleration(traj, t, pos, vel):
    """The (N, 3) acceleration: centripetal -|v|^2 x_el / R^2, plus the
    sin^2 ramp's tangential part inside [0, eta T)."""
    R = traj.radius
    acc = -(np.einsum("ij,ij->i", vel, vel) / R**2)[:, None] * pos
    t_ramp = traj.ramp_fraction * traj.traverse_time
    if t_ramp > 0.0:
        in_ramp = (t >= 0.0) & (t < t_ramp)
        dspd = np.where(in_ramp, traj.speed * np.pi / (2 * t_ramp)
                        * np.sin(np.pi * t / t_ramp), 0.0)
        tang = (traj.angle_rate_sign / R) * np.stack(
            [-pos[:, 1], pos[:, 0], np.zeros(len(t))], axis=-1)
        acc += dspd[:, None] * tang
    return acc


@pytest.mark.parametrize("sense", list(Sense))
@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_source_terms_match_the_cartesian_form(sense, eta):
    # the field kernel's terms from the angle agree with the (N, 3) form,
    # times inside the ramp included
    traj = make_traj(sense, beta=0.4, eta=eta)
    rng = np.random.default_rng(12)
    x = rng.uniform(-3.0, 3.0, (400, 3))
    T = traj.traverse_time
    t = np.concatenate([rng.uniform(-0.1, 1.1, 300) * T,
                        rng.uniform(-0.5, 1.5, 100) * eta * T])
    r, rv, ra, v2, vel, acc = traj.source_terms(x, t)
    pos, vel3 = traj.point_velocity_extended(t)
    acc3 = _cartesian_acceleration(traj, t, pos, vel3)
    rvec = x - pos
    np.testing.assert_array_equal((r, rv), traj.separation(x, t))
    np.testing.assert_allclose(r, np.linalg.norm(rvec, axis=-1), rtol=1e-14)
    np.testing.assert_allclose(rv, np.einsum("ij,ij->i", rvec, vel3), rtol=0, atol=1e-14)
    np.testing.assert_allclose(v2, np.einsum("ij,ij->i", vel3, vel3), rtol=1e-15)
    np.testing.assert_allclose(np.stack(vel, -1), vel3[:, :2], rtol=0, atol=1e-16)
    a_scale = traj.speed**2 / traj.radius + (
        traj.speed * np.pi / (2 * eta * T) if eta else 0.0)
    np.testing.assert_allclose(np.stack(acc, -1), acc3[:, :2], rtol=0,
                               atol=1e-15 * a_scale)
    np.testing.assert_allclose(ra, np.einsum("ij,ij->i", rvec, acc3), rtol=0,
                               atol=1e-14 * a_scale)
    assert np.all(acc3[:, 2] == 0.0) and np.all(vel3[:, 2] == 0.0)
    # the acceleration bound holds at every later time
    late = np.linspace(-0.1, 1.1, 4001) * T
    p_late, v_late = traj.point_velocity_extended(late)
    mag = np.linalg.norm(_cartesian_acceleration(traj, late, p_late, v_late), axis=-1)
    bound = traj.acceleration_bound(t)
    assert bound.shape == t.shape
    for ti, b in zip(t, bound):
        assert np.all(mag[late >= max(ti, 0.0)] <= b * (1 + 1e-15))


def test_mirror_map_basics():
    np.testing.assert_allclose(mirror_map([1.0, 2.0, 3.0]), [-1.0, 2.0, -3.0])
    x = np.array([0.3, -1.2, 0.7])
    np.testing.assert_allclose(mirror_map(mirror_map(x)), x)


def test_mirror_maps_right_onto_left():
    right = make_traj(Sense.RIGHT, beta=0.4)
    left = make_traj(Sense.LEFT, beta=0.4)
    T = right.traverse_time
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        pr, vr = right.point_velocity_extended(frac * T)
        pl, vl = left.point_velocity_extended(frac * T)
        np.testing.assert_allclose(mirror_map(pr), pl, atol=1e-12)
        np.testing.assert_allclose(mirror_map(vr), vl, atol=1e-12)


def test_solenoid_loop_current_reproduces_flux():
    model = SolenoidModel(solenoid_radius=0.5, flux=1.0,
                          kind=SolenoidKind.FINITE_LOOPS, n_loops=200, length=20.0)
    a, n, L = model.solenoid_radius, model.n_loops, model.length
    # ideal-limit interior field times the cross-section equals the flux
    b_inside = model.loop_current * n / L
    np.testing.assert_allclose(b_inside * np.pi * a**2, model.flux, rtol=1e-12)
    zs = model.loop_positions()
    assert len(zs) == 200
    np.testing.assert_allclose(zs.mean(), 0.0, atol=1e-12)
    assert zs.min() > -L / 2 and zs.max() < L / 2


def test_solenoid_validation():
    with pytest.raises(ValueError):
        SolenoidModel(solenoid_radius=-1.0, flux=1.0)
    with pytest.raises(ValueError):
        SolenoidModel(solenoid_radius=0.5, flux=1.0, n_loops=1)


def test_smearing_fourier_factor():
    kz = np.array([-3.0, -1e-40, 0.0, 1e-40, 0.5, 2 * np.pi, 7.0])
    np.testing.assert_array_equal(SmearingProfile().fourier_factor(kz), np.ones(7))
    # the centred line of extent sigma: sin(x) / x with x = k_z sigma / 2
    sigma = 2.0
    got = SmearingProfile(SmearKind.LINE_Z, sigma).fourier_factor(kz)
    np.testing.assert_allclose(got, np.sinc(kz * sigma / (2 * np.pi)), rtol=1e-14, atol=1e-16)
    assert got[1] == got[2] == got[3] == 1.0
