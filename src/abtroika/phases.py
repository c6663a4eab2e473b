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
    solenoid_table,
)
from .geometry import (
    Sense,
    SmearingProfile,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from .quadrature import QuadratureError, QuadratureSpec, adaptive_nd

__all__ = [
    "PhaseReport",
    "Phi1Result",
    "phi_ab_loop",
    "phi21",
    "phi22",
    "phi1",
    "identity_eq15",
    "naive_double_count",
    "extra_phase_ledger",
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
    x, w = np.polynomial.legendre.leggauss(n if n <= 256 else 256)
    s = 0.5 * (x + 1.0)
    pts = path(s)
    if _solenoid_body_hit(model, pts):
        raise ValueError("path intersects the solenoid body")
    ds = 1e-5
    tang = (path(s + ds) - path(s - ds)) / (2 * ds)
    A = a_solenoid(model, pts)
    return charge * float(np.sum(0.5 * w[:, None] * A * tang))


def phi21(traj: TrajectoryHalfCircle, model: SolenoidModel, n: int = 96) -> float:
    """(1/2) e Int_0^T u(t) . A_sol(x_el(t)) dt  (quarter of e*flux for the
    right traverse around an ideal solenoid)."""
    if model.solenoid_radius >= traj.radius:
        raise ValueError("electron must orbit outside the solenoid")
    T = traj.traverse_time
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * T * (x + 1.0)
    pos, vel = traj.point_velocity_extended(t)
    A = a_solenoid(model, pos)
    return 0.5 * traj.charge * float(np.sum(0.5 * T * w * np.einsum("ij,ij->i", vel, A)))


def _earliest_arrival(traj, smear, pts):
    """Earliest time the start-up signal can reach each point."""
    pos0, _ = traj.point_velocity_extended(np.zeros(1))
    d = pts - pos0[0]
    if smear.kind.name == "LINE_Z":
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
    T = traj.traverse_time
    a = model.solenoid_radius
    zs = model.loop_positions()
    th = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    # all winding points and their tangential line elements
    P = np.stack(np.meshgrid(zs, th, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = np.stack([a * np.cos(P[:, 1]), a * np.sin(P[:, 1]), P[:, 0]], axis=-1)
    dl = (2 * np.pi * a / n_phi) * np.stack(
        [-np.sin(P[:, 1]), np.cos(P[:, 1]), np.zeros(len(P))], axis=-1)
    t_on = _earliest_arrival(traj, smear, pts)
    span = np.maximum(T - t_on, 0.0)
    x, w = np.polynomial.legendre.leggauss(n_time)
    acc = np.zeros(len(pts))
    for xi, wi in zip(x, w):
        tq = t_on + span * 0.5 * (xi + 1.0)
        A = a_electron_retarded(traj, smear, pts, tq)
        acc += wi * 0.5 * span * np.einsum("ij,ij->i", A, dl)
    return 0.5 * model.loop_current * float(np.sum(acc))


def cylinder_integral(f_cart, rho_range, z_max, n_phi, spec):
    """Integral over a cylindrical shell rho in rho_range, |z| <= z_max of a
    Cartesian-space integrand even in z: phi by midpoint rule (periodic,
    spectral), (rho, 0 <= z <= z_max) by adaptive cubature pre-split into
    boxes of about unit size, doubled for z < 0.  Returns (value, error)."""
    phis = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    cphi, sphi = np.cos(phis), np.sin(phis)

    def integrand(q):
        rho, z = q[:, 0], q[:, 1]
        n = len(rho)
        pts = np.empty((n * n_phi, 3))
        pts[:, 0] = (rho[:, None] * cphi[None, :]).ravel()
        pts[:, 1] = (rho[:, None] * sphi[None, :]).ravel()
        pts[:, 2] = np.repeat(z, n_phi)
        vals = f_cart(pts).reshape(n, n_phi)
        return rho * vals.mean(axis=1) * (2 * np.pi)

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
    rho_max: float


def phi1(traj: TrajectoryHalfCircle, smear: SmearingProfile, model: SolenoidModel,
         rho_max: float | None = None, z_margin: float | None = None,
         n_phi: int = 16, spec: QuadratureSpec | None = None,
         tail_tol: float | None = None) -> Phi1Result:
    """(1/2) Int d3x  Adot_el(x, T) . A_sol(x) over a truncated cylinder.

    The domain is rho <= rho_max (default 8 R), |z| <= L/2 + z_margin
    (default 4 R); the tail estimate is the outer-half-shell contribution
    |I(rho_max) - I(rho_max / 2)|.  The start must be ramped
    (ramp_fraction > 0; see a_dot_electron); the self term Adot_el . A_el is
    not computed (identical for the two traverses).
    """
    if model.kind is not SolenoidKind.FINITE_LOOPS:
        raise ValueError("phi1 requires the FINITE_LOOPS solenoid")
    R = traj.radius
    if rho_max is None:
        rho_max = 8.0 * R
    z_max = model.length / 2 + (4.0 * R if z_margin is None else z_margin)
    if spec is None:
        spec = QuadratureSpec(abs_tol=5e-5, rel_tol=1e-3, max_subdivisions=4000)
    T = traj.traverse_time
    asol_table = solenoid_table(model, rho_max * 1.01, z_max * 1.01)

    def f_cart(pts):
        adot = a_dot_electron(traj, smear, pts, T)
        asol = asol_table(pts)
        return np.einsum("ij,ij->i", adot, asol)

    inner, err_in = cylinder_integral(f_cart, (1e-9, rho_max / 2), z_max, n_phi, spec)
    outer, err_out = cylinder_integral(f_cart, (rho_max / 2, rho_max), z_max, n_phi, spec)
    value = 0.5 * (inner + outer)
    tail = 0.5 * abs(outer)
    if tail_tol is not None and tail > tail_tol:
        raise QuadratureError(
            f"phi1 volume-truncation tail estimate {tail:.3e} exceeds {tail_tol:.3e}",
            estimate=value, error=tail)
    return Phi1Result(value=value, tail_estimate=tail,
                      quad_error=0.5 * (err_in + err_out), rho_max=rho_max)


def _with_ramp(traj: TrajectoryHalfCircle, eta: float) -> TrajectoryHalfCircle:
    if traj.ramp_fraction > 0 or eta <= 0:
        return traj
    return dataclasses.replace(traj, ramp_fraction=eta)


def identity_eq15(traj: TrajectoryHalfCircle, smear: SmearingProfile,
                  model: SolenoidModel, eta: float = 0.01, **phi1_kwargs) -> dict:
    """Residual of the radiated-field exchange identity phi1 + phi22 = phi21.

    The two sides are computed by independent quadratures (a 1D line
    integral against a 3D volume integral plus per-winding retarded line
    integrals).  All three use the same ramped trajectory so the identity is
    exact in the continuum and the residual measures numerics only.
    """
    tr = _with_ramp(traj, eta)
    p21 = phi21(tr, model)
    p22 = phi22(tr, smear, model)
    p1 = phi1(tr, smear, model, **phi1_kwargs)
    residual = abs(p1.value + p22 - p21)
    return {
        "phi21": p21,
        "phi22": p22,
        "phi1": p1.value,
        "phi1_tail": p1.tail_estimate,
        "residual": residual,
        "residual_rel": residual / abs(p21) if p21 else 0.0,
    }


def naive_double_count(traj: TrajectoryHalfCircle, model: SolenoidModel,
                       smear: SmearingProfile | None = None,
                       phi22_value: float | None = None) -> float:
    """Traverse-difference phase of the separable (both-currents-quantized,
    classical potential) approximation: both exchange mechanisms add, giving
    about twice the interference shift."""
    if smear is None:
        smear = SmearingProfile()
    p21 = phi21(traj, model)
    p22 = phi22(traj, smear, model) if phi22_value is None else phi22_value
    return 4.0 * (p21 + p22)


@dataclass(frozen=True)
class ExtraPhaseLedger:
    extra_el: float
    extra_sol: float
    corrected_a_phase: float
    grand_total: float


def extra_phase_ledger(traj, smear, model, eta: float = 0.01,
                       parts: dict | None = None, **phi1_kwargs) -> ExtraPhaseLedger:
    """Variational product-ansatz bookkeeping for the right traverse.

    Removing the real c-number terms from the electron and solenoid
    equations costs the field equation their sum: extra_el = -2 phi21 and
    extra_sol = -2 phi22.  The field phase phi21 + phi22 + phi1 plus both
    extra phases is then -(phi21 + phi22 - phi1) ~ -(e flux)/2, and the
    grand total over the three factors returns +(e flux)/2.
    """
    if parts is None:
        parts = identity_eq15(traj, smear, model, eta=eta, **phi1_kwargs)
    p21, p22, p1 = parts["phi21"], parts["phi22"], parts["phi1"]
    extra_el = -2.0 * p21
    extra_sol = -2.0 * p22
    uncorrected = p21 + p22 + p1
    corrected = uncorrected + extra_el + extra_sol
    grand = 2.0 * p21 + 2.0 * p22 + corrected
    return ExtraPhaseLedger(extra_el=extra_el, extra_sol=extra_sol,
                            corrected_a_phase=corrected, grand_total=grand)


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
                          compute_left: bool = False, **phi1_kwargs) -> PhaseReport:
    """All phase quantities for one traverse pair (left by sign flip unless
    compute_left, which reruns the full pipeline on the mirrored traverse)."""
    right = traj if traj.sense is Sense.RIGHT else traj.mirrored()
    parts = identity_eq15(right, smear, model, eta=eta, **phi1_kwargs)
    ledger = extra_phase_ledger(right, smear, model, parts=parts)
    phi_ab = right.charge * model.flux
    total_right = parts["phi21"] + parts["phi1"] + parts["phi22"]
    if compute_left:
        left_parts = identity_eq15(right.mirrored(), smear, model, eta=eta, **phi1_kwargs)
        total_left = left_parts["phi21"] + left_parts["phi1"] + left_parts["phi22"]
    else:
        total_left = -total_right
    naive = 4.0 * (parts["phi21"] + parts["phi22"])
    residuals = {
        "identity_eq15": parts["residual"],
        "identity_eq15_rel": parts["residual_rel"],
        "total_right_vs_half_phi_ab": abs(total_right - 0.5 * phi_ab),
        "left_right_antisymmetry": abs(total_left + total_right),
        "naive_over_phi_ab": naive / phi_ab if phi_ab else 0.0,
    }
    return PhaseReport(
        phi_ab=phi_ab,
        phi21=parts["phi21"],
        phi22=parts["phi22"],
        phi1=parts["phi1"],
        phi1_tail=parts["phi1_tail"],
        phi2=parts["phi21"] + parts["phi22"],
        phi_total_right=total_right,
        phi_total_left=total_left,
        naive_total=naive,
        extra_phase_el=ledger.extra_el,
        extra_phase_sol=ledger.extra_sol,
        corrected_a_phase=ledger.corrected_a_phase,
        grand_total=ledger.grand_total,
        identity_residuals=residuals,
    )
