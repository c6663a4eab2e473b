"""Classical vector potentials: solenoid (static) and electron (retarded).

The field equation is d2A/dt2 = Lap A + J, whose static limit normalises the
potential as A(x) = Int d3x' J(x') / (4 pi |x - x'|).  Coulomb parts are
omitted throughout: a charge at rest carries no vector potential here, so the
electron's potential vanishes outside the light cone of its motion.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipe, ellipk

from .geometry import (
    SmearingProfile,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from .quadrature import retarded_time_solve

__all__ = [
    "FieldSample",
    "SingularFieldPoint",
    "SolenoidPotentialTable",
    "solenoid_table",
    "a_solenoid",
    "a_electron_retarded",
    "a_dot_electron",
    "sample_fields",
    "loop_a_phi",
]


class SingularFieldPoint(ValueError):
    """Field requested on (or numerically too close to) a source point."""


@dataclass(frozen=True)
class FieldSample:
    """Potentials at one spacetime point; a_cl = a_el + a_sol, and the
    solenoid part is static so the time derivative is the electron's alone."""

    at: tuple
    a_el: np.ndarray
    a_sol: np.ndarray
    a_dot_el: np.ndarray

    @property
    def a_cl(self) -> np.ndarray:
        return self.a_el + self.a_sol

    @property
    def a_dot_cl(self) -> np.ndarray:
        return self.a_dot_el


def loop_a_phi(loop_radius: float, current: float, rho, z):
    """Azimuthal potential of a single circular loop at height z = 0.

    A_phi = (I/(pi k)) sqrt(a/rho) [(1 - m/2) K(m) - E(m)],
    m = k^2 = 4 a rho / ((a + rho)^2 + z^2); series used for small m.
    """
    a = loop_radius
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    denom = (a + rho) ** 2 + z**2
    m = 4.0 * a * rho / denom
    out = np.zeros(np.broadcast_shapes(rho.shape, z.shape))
    small = m < 1e-6
    # near-axis expansion: A_phi ~ I a^2 rho / (4 ((a+rho)^2 + z^2)^{3/2})
    out = np.where(small, current * a**2 * rho / (4.0 * denom**1.5) * (1.0 + 0.75 * m), out)
    ms = np.where(small | (m >= 1.0), 0.5, m)
    k = np.sqrt(ms)
    rho_safe = np.where(rho == 0.0, 1.0, rho)
    full = (current / (np.pi * k)) * np.sqrt(a / rho_safe) * (
        (1.0 - 0.5 * ms) * ellipk(ms) - ellipe(ms))
    return np.where(small, out, full)


class SolenoidPotentialTable:
    """Cubic-spline table of the finite-loop azimuthal potential A_phi(rho, z).

    The potential is axisymmetric and even in z, so one quarter-plane table
    serves all points; a thin band around the winding wires (where A_phi has
    integrable log spikes) falls back to the exact loop sum.  Used to make
    volume quadratures over many points affordable.
    """

    def __init__(self, model: SolenoidModel, rho_max: float, z_max: float,
                 n_rho: int = 320, n_z: int = 640):
        from scipy.interpolate import RectBivariateSpline

        self.model = model
        a = model.solenoid_radius
        self.rho = np.linspace(0.0, rho_max, n_rho)
        self.z = np.linspace(0.0, z_max, n_z)
        zs = model.loop_positions()
        vals = np.zeros((n_rho, n_z))
        chunk = max(1, int(2e6 // (len(zs) * n_z)))  # rows of ~2e6 loop terms
        for i0 in range(0, n_rho, chunk):
            sl = slice(i0, min(i0 + chunk, n_rho))
            rr = self.rho[sl][:, None, None]
            zz = self.z[None, :, None] - zs[None, None, :]
            vals[sl] = loop_a_phi(a, model.loop_current, rr, zz).sum(axis=-1)
        self._spl = RectBivariateSpline(self.rho, self.z, vals, kx=3, ky=3)
        self._drho = self.rho[1] - self.rho[0]
        self._dz = self.z[1] - self.z[0]

    def a_phi(self, rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.abs(np.asarray(z, dtype=float))
        out = self._spl(rho, z, grid=False)
        m = self.model
        near_wire = (np.abs(rho - m.solenoid_radius) < 4 * self._drho) & (
            z < m.length / 2 + 4 * self._dz)
        if np.any(near_wire):
            zs = m.loop_positions()
            out[near_wire] = loop_a_phi(
                m.solenoid_radius, m.loop_current, rho[near_wire][:, None],
                z[near_wire][:, None] - zs[None, :]).sum(axis=-1)
        return out

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rho = np.hypot(pts[:, 0], pts[:, 1])
        mag = self.a_phi(rho, pts[:, 2])
        out = np.zeros_like(pts)
        rs = np.where(rho == 0.0, 1.0, rho)
        out[:, 0] = -pts[:, 1] / rs * mag
        out[:, 1] = pts[:, 0] / rs * mag
        return out


@functools.lru_cache(maxsize=4)
def solenoid_table(model: SolenoidModel, rho_max: float,
                   z_max: float) -> SolenoidPotentialTable:
    """The potential table of one solenoid over one extent, built once and
    shared by every later caller (the table is never modified)."""
    return SolenoidPotentialTable(model, rho_max, z_max)


def a_solenoid(model: SolenoidModel, x):
    """Static solenoid vector potential at points x of shape (N, 3).

    IDEAL_INFINITE: azimuthal, flux/(2 pi rho) outside, flux rho/(2 pi a^2)
    inside.  FINITE_LOOPS: sum of the single-loop potentials.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rho = np.hypot(x[:, 0], x[:, 1])
    a = model.solenoid_radius
    if model.kind is SolenoidKind.IDEAL_INFINITE:
        mag = np.where(rho >= a,
                       model.flux / (2 * np.pi * np.where(rho == 0, 1.0, rho)),
                       model.flux * rho / (2 * np.pi * a**2))
        mag = np.where(rho == 0.0, 0.0, mag)
    else:
        zs = model.loop_positions()
        wire_d2 = (rho[:, None] - a) ** 2 + (x[:, 2, None] - zs[None, :]) ** 2
        if np.any(wire_d2 < (1e-9 * a) ** 2):
            raise SingularFieldPoint("field point on a solenoid winding")
        mag = loop_a_phi(a, model.loop_current, rho[:, None],
                         x[:, 2, None] - zs[None, :]).sum(axis=1)
    out = np.zeros_like(x)
    rs = np.where(rho == 0.0, 1.0, rho)
    out[:, 0] = -x[:, 1] / rs * mag
    out[:, 1] = x[:, 0] / rs * mag
    return out


def _retarded_point(traj, x, t, charge_fraction=1.0):
    """Exact retarded potential of the (point) moving charge at (x, t).

    A = q u(t_r) / (4 pi (r - r_vec . u)), the velocity-corrected retarded
    denominator; zero where the start-up signal has not arrived.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if np.all(np.asarray(t) <= 0.0):
        return np.zeros((n, 3))  # currents vanish before the motion starts
    _, reached, pos, vel = retarded_time_solve(traj, x, t)
    out = np.zeros((n, 3))
    rvec = x[reached] - pos
    r = np.linalg.norm(rvec, axis=-1)
    denom = r - np.einsum("ij,ij->i", rvec, vel)
    if np.any(denom < 1e-12 * max(traj.radius, 1.0)):
        raise SingularFieldPoint("field point on the electron itself")
    q = traj.charge * charge_fraction
    out[reached] = q * vel / (4 * np.pi * denom[:, None])
    return out


def a_electron_retarded(traj: TrajectoryHalfCircle, smear: SmearingProfile, x, t,
                        line_nodes: int = 16):
    """Retarded vector potential of the (possibly line-smeared) electron.

    For LINE_Z each line element is retarded independently (smear first,
    retard per element); the element fields are summed with Gauss weights.
    Vectorized over x of shape (N, 3); t scalar or (N,).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    offs, wts = smear.offsets_weights(line_nodes)
    if len(offs) == 1:
        return _retarded_point(traj, x, t)
    out = np.zeros_like(x)
    shift = np.zeros(3)
    for dz, w in zip(offs, wts):
        shift[2] = dz
        out += w * _retarded_point(traj, x - shift, t)
    return out


def a_dot_electron(traj: TrajectoryHalfCircle, smear: SmearingProfile, x, t,
                   step: float | None = None, with_error: bool = False,
                   strict: bool = False, line_nodes: int = 16,
                   fast: bool = False):
    """Time derivative of the electron potential by centred differences.

    Richardson-extrapolated from steps h and h/2; the step-halving error
    estimate is |D(h/2) - D(h)| / 3 per point.  The trajectory continues its
    circular motion smoothly past the traverse time, so centred stencils at
    t = T probe the still-moving source rather than an artificial stop.
    With strict=True a non-converged difference (wavefront in the stencil)
    raises SingularFieldPoint naming the front radius.  fast=True skips the
    halving (single centred difference, for use inside adaptive quadratures).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    T = traj.traverse_time
    if step is None:
        step = 1e-3 * T
        if traj.ramp_fraction > 0:
            step = min(step, 0.05 * traj.ramp_fraction * T)
    h = min(step, 0.49 * t) if t > 0 else step

    def deriv(hh):
        ap = a_electron_retarded(traj, smear, x, t + hh, line_nodes)
        am = a_electron_retarded(traj, smear, x, t - hh, line_nodes)
        return (ap - am) / (2 * hh)

    d1 = deriv(h)
    if fast:
        return d1
    d2 = deriv(0.5 * h)
    err = np.linalg.norm(d2 - d1, axis=-1) / 3.0
    val = (4.0 * d2 - d1) / 3.0
    if strict:
        scale = np.linalg.norm(val, axis=-1) + 1e-30
        bad = err > 0.05 * scale + 1e-12
        if np.any(bad):
            pos0, _ = traj.point_velocity_extended(np.zeros(1))
            rfront = np.linalg.norm(x[bad][0] - pos0[0])
            raise SingularFieldPoint(
                f"time derivative not converged near the start-up wavefront "
                f"(|x - x_start| = {rfront:.4g}, ct = {t:.4g}); use a ramped "
                f"start (ramp_fraction > 0) or a smaller step")
    if with_error:
        return val, err
    return val


def sample_fields(traj, smear, model, x, t) -> FieldSample:
    """Bundle of the classical potentials at one spacetime point."""
    x = np.asarray(x, dtype=float).reshape(1, 3)
    return FieldSample(
        at=(tuple(x.ravel()), float(t)),
        a_el=a_electron_retarded(traj, smear, x, t)[0],
        a_sol=a_solenoid(model, x)[0],
        a_dot_el=a_dot_electron(traj, smear, x, t)[0],
    )
