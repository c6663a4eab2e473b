"""Classical vector potentials: solenoid (static) and electron (retarded).

The field equation is d2A/dt2 = Lap A + J, whose static limit normalises the
potential as A(x) = Int d3x' J(x') / (4 pi |x - x'|).  Coulomb parts are
omitted throughout: a charge at rest carries no vector potential here, so the
electron's potential vanishes outside the light cone of its motion.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import (
    SmearingProfile,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from .quadrature import retarded_time_solve

__all__ = [
    "SingularFieldPoint",
    "SolenoidPotentialTable",
    "solenoid_table",
    "a_solenoid",
    "a_electron_retarded",
    "a_dot_electron",
    "loop_a_phi",
]


def __getattr__(name):
    # only for perfbench/tracer.py, which wraps fields.ellipk, until ROADMAP
    # item 1 recaptures the benchmark; the program never looks this name up
    if name == "ellipk":
        import scipy.special
        return scipy.special.ellipk
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# Table resolution: _N_RHO nodes over [0, rho_max], a z step no coarser than
# z_max / (_N_Z - 1), and _PAD exact nodes beyond every edge, so that the
# spline's mirror boundary condition acts off the table.  Its error decays by
# about 0.27 per node inward: with 8 nodes it still read 1e-7 of max |A_phi|
# next to the axis, with 16 it is below rounding.
_N_RHO = 320
_N_Z = 640
_PAD = 16


def _shifted_sum(profile, n, shift, width):
    """sum_{i < n} profile[:, i shift : i shift + width], from contiguous
    slices by doubling: blocks of 2^b shifted copies, one per bit of n."""
    out = np.zeros((profile.shape[0], width))
    block, size, start = profile, 1, 0
    while True:
        if n & size:
            out += block[:, start:start + width]
            start += size * shift
        if 2 * size > n:
            return out
        block = block[:, :-size * shift] + block[:, size * shift:]
        size *= 2


def _azimuthal(x, rho, a_phi):
    """a_phi (-y / rho, x / rho, 0) at points x (N, 3); zero on the axis rho = 0."""
    out = np.zeros_like(x)
    rs = np.where(rho == 0.0, 1.0, rho)
    out[:, 0] = -x[:, 1] / rs * a_phi
    out[:, 1] = x[:, 0] / rs * a_phi
    return out


def _prefilter_rows(c):
    """Cubic B-spline coefficients along axis 0 of c, in place, with mirror
    boundaries c[-i] = c[i] (Unser's recursive filter: gain 6, one causal
    and one anti-causal pass of the pole z, the causal start summed over
    the mirrored line)."""
    n, z = c.shape[0], np.sqrt(3.0) - 2.0  # the inverse filter's pole
    zk = z ** np.arange(n)
    start = zk + zk[-1] * zk[::-1]  # z^i + z^(2n-2-i)
    start[0], start[-1] = 1.0, zk[-1]
    c *= 6.0
    c[0] = start @ c / (1.0 - zk[-1] ** 2)
    for i in range(1, n):
        c[i] += z * c[i - 1]
    c[-1] = (z * c[-2] + c[-1]) * z / (z * z - 1.0)
    for i in range(n - 2, -1, -1):
        c[i] = z * (c[i + 1] - c[i])


def _prefilter(vals):
    """Cubic B-spline coefficients of a 2-D array of node values, mirror
    boundaries on every edge, as a new C-contiguous array."""
    coef = np.asarray(vals, dtype=float)
    for _ in range(2):  # axis 1, then axis 0 on the transposed copy
        coef = np.ascontiguousarray(coef.T)
        _prefilter_rows(coef)
    return coef


def _bspline_weights(u):
    """Integer part of u and the cubic B-spline weights of the nodes
    floor(u) - 1 .. floor(u) + 2, shape (4, N)."""
    i = np.floor(u)
    t = u - i
    s = 1.0 - t
    t3, s3 = t * t * t, s * s * s
    return i.astype(np.intp), np.stack(
        [s3, 4.0 - 6.0 * t * t + 3.0 * t3, 4.0 - 6.0 * s * s + 3.0 * s3, t3]) / 6.0


def _bspline_eval(coef, u, v):
    """The tensor-product cubic B-spline of the C-contiguous coefficients
    coef at fractional indices (u, v), over the 4 x 4 nodes around each
    point; 1 <= u <= shape[0] - 3 and likewise v, so every node is inside."""
    i, wu = _bspline_weights(u)
    j, wv = _bspline_weights(v)
    width = coef.shape[1]
    base = (i - 1) * width + (j - 1)
    out = np.zeros(base.shape)
    for p in range(4):
        row = wv[0] * np.take(coef, base + p * width)
        for q in range(1, 4):
            row += wv[q] * np.take(coef, base + (p * width + q))
        out += wu[p] * row
    return out


class SolenoidPotentialTable:
    """Cubic B-spline table of the finite-loop azimuthal potential A_phi(rho, z).

    The loops are identical and evenly spaced, so the table is one loop's
    profile summed over n shifts.  The z step is pitch / k, which makes every
    node-to-loop offset z_j - z_i = (j - i k + (n - 1) k / 2) dz a whole or
    half multiple of the step: loop_a_phi is evaluated once per
    (rho, |offset|) node.  The grid is padded with exact nodes, odd in rho
    and even in z, so the boundary condition is exact on the axis and the
    mid-plane.  The potential is axisymmetric and even in z, so one
    quarter-plane table serves all points; a thin band around the winding
    wires (where A_phi has integrable log spikes) falls back to the exact
    loop sum.  Points beyond the extent rho <= rho_max, |z| <= z_max raise
    ValueError.
    """

    def __init__(self, model: SolenoidModel, rho_max: float, z_max: float):
        self.model = model
        self.rho_max = rho_max
        self.z_max = z_max
        n = model.n_loops
        pitch = model.length / n
        k = int(np.ceil(pitch * (_N_Z - 1) / z_max))
        self._drho = rho_max / (_N_RHO - 1)
        self._dz = pitch / k
        width = int(np.ceil(z_max / self._dz)) + 1 + 2 * _PAD  # z_j, j >= -_PAD
        # offset of column j (from -_PAD) to loop i in half steps is
        # s = 2 j - 2 i k + (n - 1) k, of the parity h of (n - 1) k; loop i
        # reads the signed profile from index j + _PAD + (n - 1 - i) k
        h = (n - 1) * k % 2
        s = np.arange(-2 * _PAD - (n - 1) * k, 2 * (width - _PAD) + (n - 1) * k, 2)
        node = (np.abs(s) - h) // 2  # |offset| = (node + h / 2) dz
        rho = np.arange(_N_RHO + _PAD) * self._drho
        one_loop = loop_a_phi(model.solenoid_radius, model.loop_current, rho[:, None],
                              (np.arange(node.max() + 1) + 0.5 * h) * self._dz)
        vals = _shifted_sum(one_loop[:, node], n, k, width)
        vals = np.concatenate([-vals[_PAD:0:-1], vals])  # A(-rho) = -A(rho)
        self._coef = _prefilter(vals)

    def a_phi(self, rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.abs(np.asarray(z, dtype=float))
        if np.any(rho > self.rho_max) or np.any(z > self.z_max):
            raise ValueError(f"solenoid table covers rho <= {self.rho_max:g}, "
                             f"|z| <= {self.z_max:g} only")
        # the padding keeps every lookup 16 nodes from the array's edge
        out = _bspline_eval(self._coef, rho / self._drho + _PAD, z / self._dz + _PAD)
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
        return _azimuthal(pts, rho, self.a_phi(rho, pts[:, 2]))


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
    else:
        zs = model.loop_positions()
        wire_d2 = (rho[:, None] - a) ** 2 + (x[:, 2, None] - zs[None, :]) ** 2
        if np.any(wire_d2 < (1e-9 * a) ** 2):
            raise SingularFieldPoint("field point on a solenoid winding")
        mag = loop_a_phi(a, model.loop_current, rho[:, None],
                         x[:, 2, None] - zs[None, :]).sum(axis=1)
    return _azimuthal(x, rho, mag)


def _retarded_point(traj, x, t, derivative=False):
    """Exact retarded potential of the (point) moving charge at (x, t), or
    its time derivative, from one retarded-time solve.

    A = q v / (4 pi D) with D = r - r_vec . v, everything at t_r.  Since
    dt_r/dt = r / D and dD/dt_r = -n.v + v^2 - r_vec . a (Jackson 14.1),
    dA/dt = q/(4 pi) (r/D) [a/D - v (dD/dt_r)/D^2].  Both vanish where the
    start-up signal has not arrived.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.zeros((x.shape[0], 3))
    if np.all(np.asarray(t) <= 0.0):
        return out  # currents vanish before the motion starts
    tr, reached, pos, vel = retarded_time_solve(traj, x, t)
    rvec = x[reached] - pos
    r = np.linalg.norm(rvec, axis=-1)
    rv = np.einsum("ij,ij->i", rvec, vel)
    denom = r - rv
    if np.any(denom < 1e-12 * max(traj.radius, 1.0)):
        raise SingularFieldPoint("field point on the electron itself")
    q = traj.charge
    if not derivative:
        out[reached] = q * vel / (4 * np.pi * denom[:, None])
        return out
    acc = traj.acceleration(tr[reached], pos, vel)
    d_denom = np.einsum("ij,ij->i", vel, vel) - rv / r - np.einsum("ij,ij->i", rvec, acc)
    out[reached] = (q * r / (4 * np.pi * denom))[:, None] * (
        acc / denom[:, None] - vel * (d_denom / denom**2)[:, None])
    return out


def _line_sum(traj, smear, x, t, line_nodes, derivative):
    """_retarded_point summed over the smearing's Gauss nodes (one node for
    a point charge): each line element is retarded independently (smear
    first, retard per element) and the element fields are summed with
    Gauss weights."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
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
