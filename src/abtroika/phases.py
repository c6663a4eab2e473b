"""Interference phases of the two traverses, and the identities among them.

Notation (right traverse unless stated): phi21 is half the electron's line
integral through the solenoid potential, phi22 half the solenoid current's
integral through the electron's retarded potential, and phi1 half the
radiated-field surface term Int d3x  Adot_el(x, T) . A_sol(x).  The exact
relation phi1 + phi22 = phi21 restores the naive nonrelativistic exchange
identity phi22 = phi21 once radiation is accounted for, and the right
traverse's total phase is phi21 + phi1 + phi22 = (e * flux) / 2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    a_dot_electron,
    a_electron_retarded,
    a_solenoid,
)
from .geometry import (
    Sense,
    SmearingProfile,
    SmearKind,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from .quadrature import QuadratureSpec, adaptive_nd, gauss_legendre

__all__ = [
    "PhaseReport",
    "Phi1Result",
    "phi_ab_loop",
    "phi21",
    "phi22",
    "phi1",
    "interference_probability",
    "assemble_phase_report",
    "circle_path",
    "cylinder_integral",
    "arc_path",
]


def circle_path(radius: float, z: float = 0.0, center=(0.0, 0.0)):
    """Closed circle of given radius at height z, parametrized by s in [0, 1)."""

    def path(s):
        s = np.asarray(s, dtype=float)
        th = 2 * np.pi * s
        return np.stack([center[0] + radius * np.cos(th),
                         center[1] + radius * np.sin(th),
                         np.full_like(th, z)], axis=-1)

    return path


def arc_path(radius: float, angle_from: float, angle_to: float, z: float = 0.0):
    """Open circular arc from angle_from to angle_to (radians)."""

    def path(s):
        s = np.asarray(s, dtype=float)
        th = angle_from + (angle_to - angle_from) * s
        return np.stack([radius * np.cos(th), radius * np.sin(th),
                         np.full_like(th, z)], axis=-1)

    return path


def _solenoid_body_hit(model: SolenoidModel, pts: np.ndarray) -> bool:
    rho = np.hypot(pts[:, 0], pts[:, 1])
    inside_rho = rho < model.solenoid_radius
    if model.kind is SolenoidKind.IDEAL_INFINITE:
        return bool(np.any(inside_rho))
    return bool(np.any(inside_rho & (np.abs(pts[:, 2]) < model.length / 2)))


def phi_ab_loop(model: SolenoidModel, path, n: int = 1024, closed: bool = True,
                charge: float = 1.0) -> float:
    """Line integral charge * Int A_sol . dl along the path.

    For a closed loop enclosing the solenoid once this is charge * flux.  The
    path is a callable s -> (N, 3) positions; closed paths use the uniform
    trapezoid with spectral (FFT) tangents, open paths Gauss-Legendre with
    finely differenced tangents.  Paths through the solenoid body are
    rejected.
    """
    if closed:
        s = np.arange(n) / n
        pts = path(s)
        if _solenoid_body_hit(model, pts):
            raise ValueError("path intersects the solenoid body")
        freq = np.fft.fftfreq(n, d=1.0 / n) * 2j * np.pi / n
        tang = np.stack([np.fft.ifft(freq * np.fft.fft(pts[:, i])).real
                         for i in range(3)], axis=-1)
        A = a_solenoid(model, pts)
        return charge * float(np.sum(A * tang))
    s, w = gauss_legendre(0.0, 1.0, min(n, 256))
    pts = path(s)
    if _solenoid_body_hit(model, pts):
        raise ValueError("path intersects the solenoid body")
    ds = 1e-5
    tang = (path(s + ds) - path(s - ds)) / (2 * ds)
    A = a_solenoid(model, pts)
    return charge * float(np.sum(w[:, None] * A * tang))


def phi21(traj: TrajectoryHalfCircle, model: SolenoidModel, n: int = 96) -> float:
    """(1/2) e Int_0^T u(t) . A_sol(x_el(t)) dt  (quarter of e*flux for the
    right traverse around an ideal solenoid)."""
    if model.solenoid_radius >= traj.radius:
        raise ValueError("electron must orbit outside the solenoid")
    t, w = gauss_legendre(0.0, traj.traverse_time, n)
    pos, vel = traj.point_velocity_extended(t)
    A = a_solenoid(model, pos)
    return 0.5 * traj.charge * float(np.sum(w * np.einsum("ij,ij->i", vel, A)))


def _earliest_arrival(traj, smear, pts):
    """Earliest time the start-up signal can reach each point."""
    pos0, _ = traj.point_velocity_extended(np.zeros(1))
    d = pts - pos0[0]
    if smear.kind is SmearKind.LINE_Z:
        dz = np.maximum(np.abs(d[:, 2]) - smear.sigma / 2, 0.0)
        return np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + dz**2)
    return np.linalg.norm(d, axis=-1)


def phi22(traj: TrajectoryHalfCircle, smear: SmearingProfile, model: SolenoidModel,
          n_time: int = 40, n_phi: int = 32) -> float:
    """(1/2) Int_0^T dt' Int d3x A_el(x, t') . J_sol(x), as per-winding line
    integrals of the electron's retarded potential."""
    if model.kind is not SolenoidKind.FINITE_LOOPS:
        raise ValueError("phi22 requires the FINITE_LOOPS solenoid (compact current)")
    if model.solenoid_radius >= traj.radius:
        raise ValueError("electron must orbit outside the solenoid")
    a = model.solenoid_radius
    zs = model.loop_positions()
    th = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    # all winding points and their tangential line elements
    P = np.stack(np.meshgrid(zs, th, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = np.stack([a * np.cos(P[:, 1]), a * np.sin(P[:, 1]), P[:, 0]], axis=-1)
    dl = (2 * np.pi * a / n_phi) * np.stack(
        [-np.sin(P[:, 1]), np.cos(P[:, 1]), np.zeros(len(P))], axis=-1)
    t_on = _earliest_arrival(traj, smear, pts)
    # a point the signal never reaches has a window of zero width
    tq, wq = gauss_legendre(t_on, np.maximum(traj.traverse_time, t_on), n_time)
    acc = np.zeros(len(pts))
    for tj, wj in zip(tq.T, wq.T):
        A = a_electron_retarded(traj, smear, pts, tj)
        acc += wj * np.einsum("ij,ij->i", A, dl)
    return 0.5 * model.loop_current * float(np.sum(acc))


def cylinder_integral(f, rho_range, z_max, n_phi, spec):
    """Integral over a cylindrical shell rho in rho_range, |z| <= z_max of an
    integrand even in z: phi by midpoint rule (periodic, spectral),
    (rho, 0 <= z <= z_max) by adaptive cubature pre-split into boxes of about
    unit size, doubled for z < 0.

    f(nodes, ring_mean) returns the integrand's mean over the ring of each
    cubature node, given the nodes as the points (rho, 0, z), shape (n, 3),
    and ring_mean(g): the mean over each node's n_phi ring points of the
    Cartesian function g, called once on all n * n_phi points (shape
    (n * n_phi, 3) -> (n * n_phi,)).  Returns (value, error)."""
    phis = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    cphi, sphi = np.cos(phis), np.sin(phis)

    def integrand(q):
        rho, z = q[:, 0], q[:, 1]
        n = len(rho)

        def ring_mean(g):
            pts = np.empty((n * n_phi, 3))
            pts[:, 0] = (rho[:, None] * cphi[None, :]).ravel()
            pts[:, 1] = (rho[:, None] * sphi[None, :]).ravel()
            pts[:, 2] = np.repeat(z, n_phi)
            return g(pts).reshape(n, n_phi).mean(axis=1)

        nodes = np.stack([rho, np.zeros(n), z], axis=-1)
        return rho * f(nodes, ring_mean) * (2 * np.pi)

    grid = (max(2, int(np.ceil(rho_range[1] - rho_range[0]))),
            max(2, int(np.ceil(z_max))))
    val, err = adaptive_nd(integrand, [rho_range, (0.0, z_max)], spec,
                           initial_grid=grid)
    return 2 * val, 2 * err


@dataclass(frozen=True)
class Phi1Result:
    value: float
    tail_estimate: float
    quad_error: float


def phi1(traj: TrajectoryHalfCircle, smear: SmearingProfile, model: SolenoidModel,
         rho_max: float | None = None, n_phi: int = 16,
         spec: QuadratureSpec | None = None) -> Phi1Result:
    """(1/2) Int d3x  Adot_el(x, T) . A_sol(x) over a truncated cylinder.

    The domain is rho <= rho_max (default 8 R), |z| <= L/2 + 4 R; the tail
    estimate is the outer-half-shell contribution
    |I(rho_max) - I(rho_max / 2)|.  The start must be ramped
    (ramp_fraction > 0; see a_dot_electron); the self term Adot_el . A_el is
    not computed (identical for the two traverses).
    """
    if model.kind is not SolenoidKind.FINITE_LOOPS:
        raise ValueError("phi1 requires the FINITE_LOOPS solenoid")
    R = traj.radius
    if rho_max is None:
        rho_max = 8.0 * R
    z_max = model.length / 2 + 4.0 * R
    if spec is None:
        spec = QuadratureSpec(abs_tol=5e-5, rel_tol=1e-3, max_subdivisions=4000)
    T = traj.traverse_time

    def rho_adot_phi(pts):
        # rho times the azimuthal component of Adot_el: x Adot_y - y Adot_x
        adot = a_dot_electron(traj, smear, pts, T)
        return pts[:, 0] * adot[:, 1] - pts[:, 1] * adot[:, 0]

    def ring_integrand(nodes, ring_mean):
        # A_sol is azimuthal and axisymmetric, so on a ring Adot_el . A_sol
        # = A_phi(rho, z) Adot_phi: one loop sum per node, at (rho, 0, z),
        # where the potential's y component is A_phi
        return a_solenoid(model, nodes)[:, 1] * ring_mean(rho_adot_phi) / nodes[:, 0]

    inner, err_in = cylinder_integral(ring_integrand, (1e-9, rho_max / 2), z_max,
                                      n_phi, spec)
    outer, err_out = cylinder_integral(ring_integrand, (rho_max / 2, rho_max), z_max,
                                       n_phi, spec)
    value = 0.5 * (inner + outer)
    return Phi1Result(value=value, tail_estimate=0.5 * abs(outer),
                      quad_error=0.5 * (err_in + err_out))


def interference_probability(phase: float, a: float):
    """Detection probabilities (1/2)(1 +- e^{-a} cos phase) behind the
    recombining beam splitter."""
    if a < 0:
        raise ValueError("decoherence exponent a must be >= 0")
    damp = np.exp(-a) * np.cos(phase)
    return 0.5 * (1.0 + damp), 0.5 * (1.0 - damp)


@dataclass(frozen=True)
class PhaseReport:
    phi_ab: float
    phi21: float
    phi22: float
    phi1: float
    phi1_tail: float
    phi2: float
    phi_total_right: float
    phi_total_left: float
    naive_total: float
    extra_phase_el: float
    extra_phase_sol: float
    corrected_a_phase: float
    grand_total: float
    identity_residuals: dict = field(default_factory=dict)


def assemble_phase_report(traj: TrajectoryHalfCircle, smear: SmearingProfile,
                          model: SolenoidModel, eta: float = 0.01,
                          **phi1_kwargs) -> PhaseReport:
    """All phase quantities for one traverse pair, from phi21, phi22 and phi1
    of the right traverse (the left one follows by sign flip).

    An unramped traverse is given the start-up ramp eta, and all three terms
    use that same ramped trajectory: the radiated-field exchange identity
    phi1 + phi22 = phi21 is then exact in the continuum, and its residual,
    between a 1D line integral and a 3D volume integral plus per-winding
    retarded line integrals, measures numerics only.

    Variational product-ansatz bookkeeping: removing the real c-number terms
    from the electron and solenoid equations costs the field equation their
    sum, extra_el = -2 phi21 and extra_sol = -2 phi22.  The field phase
    phi21 + phi22 + phi1 plus both extra phases is then
    -(phi21 + phi22 - phi1) ~ -(e flux)/2, and the grand total over the
    three factors returns +(e flux)/2.  The separable (both currents
    quantized, classical potential) approximation instead adds both exchange
    mechanisms: its traverse-difference phase naive = 4 (phi21 + phi22) is
    about twice the interference shift.
    """
    right = traj if traj.sense is Sense.RIGHT else traj.mirrored()
    if right.ramp_fraction == 0 and eta > 0:
        right = dataclasses.replace(right, ramp_fraction=eta)
    p21 = phi21(right, model)
    p22 = phi22(right, smear, model)
    p1 = phi1(right, smear, model, **phi1_kwargs)
    residual = abs(p1.value + p22 - p21)
    extra_el = -2.0 * p21
    extra_sol = -2.0 * p22
    corrected = (p21 + p22 + p1.value) + extra_el + extra_sol
    phi_ab = right.charge * model.flux
    total_right = p21 + p1.value + p22
    total_left = -total_right
    naive = 4.0 * (p21 + p22)
    residuals = {
        "identity_eq15": residual,
        "identity_eq15_rel": residual / abs(p21) if p21 else 0.0,
        "total_right_vs_half_phi_ab": abs(total_right - 0.5 * phi_ab),
        "left_right_antisymmetry": abs(total_left + total_right),
        "naive_over_phi_ab": naive / phi_ab if phi_ab else 0.0,
    }
    return PhaseReport(
        phi_ab=phi_ab,
        phi21=p21,
        phi22=p22,
        phi1=p1.value,
        phi1_tail=p1.tail_estimate,
        phi2=p21 + p22,
        phi_total_right=total_right,
        phi_total_left=total_left,
        naive_total=naive,
        extra_phase_el=extra_el,
        extra_phase_sol=extra_sol,
        corrected_a_phase=corrected,
        grand_total=2.0 * p21 + 2.0 * p22 + corrected,
        identity_residuals=residuals,
    )
