"""Classical vector potentials: solenoid (static) and electron (retarded).

The field equation is d2A/dt2 = Lap A + J, whose static limit normalises the
potential as A(x) = Int d3x' J(x') / (4 pi |x - x'|).  Coulomb parts are
omitted throughout: a charge at rest carries no vector potential here, so the
electron's potential vanishes outside the light cone of its motion.
"""

from __future__ import annotations

import numpy as np

from .geometry import (
    SmearingProfile,
    SmearKind,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from .quadrature import retarded_time_solve

__all__ = [
    "SingularFieldPoint",
    "a_solenoid",
    "a_electron_retarded",
    "a_dot_electron",
    "loop_a_phi",
]


def __getattr__(name):
    # only for perfbench/tracer.py, which wraps fields.ellipk and the methods
    # of fields.SolenoidPotentialTable (an empty class that nothing builds),
    # until ROADMAP item 1 recaptures the benchmark; the program never looks
    # these names up
    if name == "ellipk":
        import scipy.special
        return scipy.special.ellipk
    if name == "SolenoidPotentialTable":
        return type(name, (), {})
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# node-loop pairs per block of a_solenoid's loop sum, which bounds the
# arithmetic-geometric-mean arrays of loop_a_phi (50 MB -> 38 MB peak in
# the default phases stage: 200 loops, 3,808 nodes per phi1 call)
_BLOCK_ELEMS = 2**14


class SingularFieldPoint(ValueError):
    """Field requested on (or numerically too close to) a source point."""


def loop_a_phi(loop_radius: float, current: float, rho, z):
    """Azimuthal potential of a single circular loop at height z = 0.

    A_phi = (I/(pi k)) sqrt(a/rho) [(1 - m/2) K(m) - E(m)],
    m = k^2 = 4 a rho / ((a + rho)^2 + z^2).  The bracket is K times
    Sum_{n >= 1} 2^{n-1} c_n^2 of the arithmetic-geometric mean of 1 and
    k' (DLMF 19.8), k'^2 = ((a - rho)^2 + z^2) / ((a + rho)^2 + z^2) formed
    without subtraction, c_1 = m / (2 (1 + k')), c_{n+1} = c_n^2 / (4 a_{n+1})
    and K = pi / (2 a_inf).  Every term is positive, so nothing cancels,
    for small m or next to the wire.
    """
    a = loop_radius
    rho = np.asarray(rho, dtype=float)
    z = np.asarray(z, dtype=float)
    denom = (a + rho) ** 2 + z**2
    m = 4.0 * a * rho / denom
    # on the wire itself (k' = 0) the potential is infinite; the floor keeps
    # the mean finite there
    kp = np.maximum(np.sqrt(((a - rho) ** 2 + z**2) / denom), 1e-300)
    am, b = 0.5 * (1.0 + kp), np.sqrt(kp)
    c2 = (m / (4.0 * am)) ** 2
    total, w = c2, 1.0
    while np.any(c2 > 1e-16 * am**2):
        am, b = 0.5 * (am + b), np.sqrt(am * b)
        c2 = c2**2 / (16.0 * am**2)
        w *= 2.0
        total = total + w * c2
    # I/(pi k) sqrt(a/rho) K = I sqrt(denom) / (4 rho a_inf); at rho = 0
    # the sum is 0
    return current * np.sqrt(denom) * total / (4.0 * np.where(rho == 0.0, 1.0, rho) * am)


def _azimuthal(x, rho, a_phi):
    """a_phi (-y / rho, x / rho, 0) at points x (N, 3); zero on the axis rho = 0."""
    out = np.zeros_like(x)
    rs = np.where(rho == 0.0, 1.0, rho)
    out[:, 0] = -x[:, 1] / rs * a_phi
    out[:, 1] = x[:, 0] / rs * a_phi
    return out


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
    else:
        zs = model.loop_positions()
        mag = np.empty(len(rho))
        step = max(1, _BLOCK_ELEMS // len(zs))
        for lo in range(0, len(rho), step):
            r, dz = rho[lo:lo + step, None], x[lo:lo + step, 2, None] - zs[None, :]
            if np.any((r - a) ** 2 + dz**2 < (1e-9 * a) ** 2):
                raise SingularFieldPoint("field point on a solenoid winding")
            mag[lo:lo + step] = loop_a_phi(a, model.loop_current, r, dz).sum(axis=1)
    return _azimuthal(x, rho, mag)


def _retarded_point(traj, x, t, derivative=False):
    """Exact retarded potential of the (point) moving charge at (x, t), or
    its time derivative, from one retarded-time solve.

    A = q v / (4 pi D) with D = r - r_vec . v, everything at t_r.  Since
    dt_r/dt = r / D and dD/dt_r = -n.v + v^2 - r_vec . a (Jackson 14.1),
    dA/dt = q/(4 pi) (r/D) [a/D - v (dD/dt_r)/D^2].  Both vanish where the
    start-up signal has not arrived.  The solver's source terms give the
    scalars and the (x, y) components on 1-D arrays; the orbit is planar,
    so both z components are 0.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], 3))
    if np.all(np.asarray(t) <= 0.0):
        return out  # currents vanish before the motion starts
    _, reached, (r, rv, ra, v2, vel, acc) = retarded_time_solve(traj, x, t)
    denom = r - rv
    if np.any(denom < 1e-12 * max(traj.radius, 1.0)):
        raise SingularFieldPoint("field point on the electron itself")
    q = traj.charge
    if not derivative:
        scale = q / (4 * np.pi * denom)
        for i in (0, 1):
            out[reached, i] = scale * vel[i]
        return out
    d_denom = v2 - rv / r - ra
    scale = q * r / (4 * np.pi * denom)
    for i in (0, 1):
        out[reached, i] = scale * (acc[i] / denom - vel[i] * (d_denom / denom**2))
    return out


def _line_sum(traj, smear, x, t, line_nodes, derivative):
    """_retarded_point summed over the smearing's Gauss nodes (a point
    charge is its one node at offset 0): each line element is retarded
    independently (smear first, retard per element) and the element fields
    are summed with Gauss weights."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if smear.kind is SmearKind.POINT:
        return _retarded_point(traj, x, t, derivative)
    offs, wts = smear.offsets_weights(line_nodes)
    out = np.zeros_like(x)
    shift = np.zeros(3)
    for dz, w in zip(offs, wts):
        shift[2] = dz
        out += w * _retarded_point(traj, x - shift, t, derivative)
    return out


def a_electron_retarded(traj: TrajectoryHalfCircle, smear: SmearingProfile, x, t,
                        line_nodes: int = 16):
    """Retarded vector potential of the (possibly line-smeared) electron.

    Vectorized over x of shape (N, 3); t scalar or (N,).
    """
    return _line_sum(traj, smear, x, t, line_nodes, derivative=False)


def a_dot_electron(traj: TrajectoryHalfCircle, smear: SmearingProfile, x, t,
                   line_nodes: int = 16):
    """Time derivative of the electron potential, in closed form from the
    Lienard-Wiechert potential (one retarded-time solve per line node).

    The start must be ramped (ramp_fraction > 0): an impulsive start makes
    dA/dt a delta shell on the start-up front, which no pointwise value
    carries.
    """
    if traj.ramp_fraction == 0.0:
        raise ValueError("a_dot_electron needs a ramped start (ramp_fraction > 0)")
    return _line_sum(traj, smear, x, t, line_nodes, derivative=True)
