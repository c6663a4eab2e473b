"""Decoherence of the radiated field: overlap amplitude, divergence, scaling.

The overlap of the field states tied to the two traverses is
exp(-a(T)) * exp(i phase), with a(T) = (1/2) Sum_k w |alpha_R - alpha_L|^2.
Two layers are computed here:

* the physical exponent, evaluated from the current-current (k-space)
  integral with the azimuthal integral done exactly (Bessel expansion) --
  absolutely convergent for a line-smeared charge, manifestly nonnegative,
  and cross-checkable against the mode-grid photon number;

* the reduced principal-value forms of the self and cross parts obtained by
  folding the double time integral into (tau-, z-) / (tau+, tau-) variables
  with closed-form inner integrals.  The reduced cross part reproduces the
  physical cross term (validated to ~2%); the reduced self part is a
  distinct, sign-indefinite object -- the formal swap of the conditionally
  convergent radial k-integral discards endpoint structure where the light
  cone runs tangent to the coincidence diagonal -- but it is the object
  whose magnitude carries the advertised (u/c)(R/sigma) scaling law, so it
  is reported alongside.  Visibility always uses the physical exponent.

Conventions: R = 1, c = hbar = 1, T = pi/beta, sigma = lam, and the coupling
e^2 equals fine_structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import a_dot_electron, a_electron_retarded
from .geometry import (
    Sense,
    SmearingProfile,
    SmearKind,
    TrajectoryHalfCircle,
    UnitsAndCouplings,
)
from .modes import ModeGrid, analytic_mode, photon_number, traverse_difference_drive
from .phases import cylinder_integral
from .quadrature import QuadratureError, QuadratureSpec, gauss_legendre, pv_integral_1d

__all__ = [
    "OverlapResult",
    "a_point_regulated",
    "a1_smeared",
    "a2_smeared",
    "a_current_current",
    "a_modes_crosscheck",
    "phase_c1_check",
    "visibility_report",
]

# the orders dropped from a k-segment's Bessel sum add at most this much
# times its largest coefficient of the orders m <= ceil(k)
_CUT_TOL = 1e-18
# Miller's recurrence starts where the squared bound is this far below the
# top order's
_START_TOL = 1e-20


def __getattr__(name):
    # only for perfbench/tracer.py, which wraps decoherence.jv, until ROADMAP
    # item 1 recaptures the benchmark; the program never looks this name up
    if name == "jv":
        import scipy.special
        return scipy.special.jv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OverlapResult:
    """Decoherence amplitude bundle for one parameter point.

    a1 / a2 are the reduced principal-value self and cross terms (a1 is
    sign-indefinite, see module docstring); a_self / a_cross / a_total are
    the physical current-current values with visibility = exp(-a_total).
    """

    parameters: UnitsAndCouplings
    a1: float
    a2: float
    a_self: float
    a_cross: float
    a_total: float
    visibility: float
    overlap_phase: float
    phase_scale: float
    err_a1: float
    err_a2: float
    regulator: float | None = None


# ----------------------------------------------------------- reduced forms

def _inner_line_pv(alpha):
    """P Int_0^1 (1 - z) dz / (z^2 - alpha^2), closed form, both branches."""
    al = np.abs(np.asarray(alpha, dtype=float))
    even = np.log(np.abs((1 - al) / (1 + al))) / (2 * al)
    odd = 0.5 * np.log(np.abs(1 - al**2)) - np.log(al)
    return even - odd


def _panels(edges, f):
    """Sum of 32-point Gauss panels of f over consecutive edges, with every
    panel's nodes in one call of f."""
    nodes, weights = (a.ravel() for a in gauss_legendre(edges[:-1], edges[1:], 32))
    return float(f(nodes) @ weights)


def _distinct(a) -> np.ndarray:
    """Sorted distinct values of a: np.unique without its numpy.ma import."""
    a = np.sort(np.ravel(a))
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def _tau_edges(tau_star: float | None) -> np.ndarray:
    """Panel edges on (0, 1], geometric toward 0 and toward the alpha = 1
    crossing at tau_star (integrable log singularities at both)."""
    edges = list(np.geomspace(1e-12, 1.0, 80))
    if tau_star is not None and 0.0 < tau_star < 1.0:
        off = tau_star * np.geomspace(1e-10, 0.9, 28)
        edges += list(tau_star - off) + list(tau_star + off) + [tau_star]
    return _distinct([e for e in edges if 0.0 < e <= 1.0] + [1.0])


def a1_smeared(beta: float, lam: float, fine_structure: float = 1.0 / 137.036,
               inner: str = "closed", retain_sin_correction: bool = False) -> float:
    """Reduced principal-value self term of the overlap exponent.

    a1 = (e^2 / lam^2) Int_0^1 dtau (1-tau) cos(pi tau) g(alpha(tau)),
    alpha = pi q / (beta lam), with q = tau by default (the relative
    (2 beta/pi)^2 sin^2 correction is a factor beta^2 down) or the exact q
    when retain_sin_correction is set.  inner="closed" evaluates the z
    integral with the unified two-branch logarithm; inner="numeric" takes
    the principal value by folding about the pole (validation mode).
    """
    if lam <= 0:
        raise ValueError("a1_smeared requires lam > 0 (point charge diverges)")
    scale = np.pi / (beta * lam)

    def q_of(t):
        if retain_sin_correction:
            return np.sqrt(t**2 - (2 * beta / np.pi) ** 2 * np.sin(np.pi * t / 2) ** 2)
        return t

    tau_star = (beta * lam / np.pi) if not retain_sin_correction else None
    if tau_star is None:
        # locate q(tau*) = beta lam / pi by bisection for the exact q
        lo, hi = 1e-12, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if q_of(np.asarray(mid)) * scale < 1.0:
                lo = mid
            else:
                hi = mid
        tau_star = 0.5 * (lo + hi)
    edges = _tau_edges(tau_star if tau_star < 1 else None)

    def f(t):
        return (1 - t) * np.cos(np.pi * t) * _inner_line_pv(scale * q_of(t))

    if inner == "closed":
        value = _panels(edges, f)
    elif inner == "numeric":
        # validation mode: numeric principal values per tau node over the
        # bulk of the range.  Where the pole sits essentially on a z
        # endpoint -- alpha < 0.05, or within 1e-3 of the branch point at
        # alpha = 1 -- the closed form covers the (weight ~1e-3) slivers
        # instead.
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=2000)
        t_lo = 0.05 * min(tau_star, 1.0)
        value = _panels(np.geomspace(max(t_lo * 1e-8, 1e-14), t_lo, 16), f)
        nedges = list(np.geomspace(t_lo, 1.0, 24))
        window = (np.inf, -np.inf)  # no panel is skipped
        if t_lo < tau_star < 1.0:
            off = tau_star * np.geomspace(1e-3, 0.5, 10)
            nedges += list(tau_star - off) + list(tau_star + off)
            window = (tau_star * (1 - 1e-3), tau_star * (1 + 1e-3))
            value += _panels(np.array([window[0], tau_star, window[1]]), f)
        nedges = _distinct(np.clip(nedges, t_lo, 1.0))
        lo, hi = nedges[:-1], nedges[1:]
        outside = (lo < window[0] - 1e-15) | (hi > window[1] + 1e-15)
        for t, wt in zip(*(a[outside].ravel() for a in gauss_legendre(lo, hi, 8))):
            al = float(scale * q_of(np.asarray(t)))
            try:
                g = pv_integral_1d(lambda z: (1 - z) / (z**2 - al**2),
                                   al, (0.0, 1.0), spec)
            except QuadratureError as exc:
                raise QuadratureError(
                    f"inner principal value failed at tau = {t:.6g} "
                    f"(alpha = {al:.6g})", estimate=exc.estimate) from exc
            value += wt * (1 - t) * np.cos(np.pi * t) * g
    else:
        raise ValueError("inner must be 'closed' or 'numeric'")
    if not np.isfinite(value):
        raise QuadratureError(
            f"a1 quadrature failed near the alpha = 1 crossing at tau = {tau_star:.6g}")
    return fine_structure / lam**2 * value


def a2_smeared(beta: float, lam: float, fine_structure: float = 1.0 / 137.036):
    """Reduced cross term of the overlap exponent (line-smeared).

    a2 = (e^2 beta^2 / 4 pi^2) * 2 Int_0^1 dz (1-z) Int_0^2 dtau+
         cos(pi tau+) (1/(2 D)) ln|(D + w)/(D - w)|,
    D^2 = (2 beta/pi)^2 sin^2(pi tau+/2) + (beta lam z / pi)^2,
    w = min(tau+, 2 - tau+): the tau- integral through its principal-value
    pole in closed form.  The smearing is kept (the un-smeared corner at
    coinciding traverse endpoints is log-divergent); setting lam = 0 is
    rejected.  Matches the physical cross term of the current-current
    integral to a couple of percent.  Returns (value, error), the error
    from halving the 40-node z rule and coarsening the tau+ panels.
    """
    if lam <= 0:
        raise ValueError("a2_smeared requires lam > 0 (endpoint corners diverge)")

    def z_integral(n_zq, n_panel):
        base = np.geomspace(1e-9, 1.0, n_panel)
        edges = _distinct(np.concatenate([[1e-11, 1.0, 2 - 1e-11], base, 2.0 - base]))
        # tau+ panels and the integrand's z-free parts, built once for all z nodes
        t, wt = (a.ravel() for a in gauss_legendre(edges[:-1], edges[1:], 32))
        sin2 = (2 * beta / np.pi) ** 2 * np.sin(np.pi * t / 2) ** 2
        w = np.minimum(t, 2.0 - t)
        wcos = wt * np.cos(np.pi * t)
        total = 0.0
        for z, wz in zip(*gauss_legendre(0.0, 1.0, n_zq)):
            # z nodes lie inside (0, 1), so D > 0
            D = np.sqrt(sin2 + (beta * lam * z / np.pi) ** 2)
            tau_plus = np.log(np.abs((D + w) / (D - w))) / (2 * D) @ wcos
            total += wz * (1 - z) * tau_plus
        return total

    coarse = z_integral(20, 30)
    fine = z_integral(40, 44)
    pref = fine_structure * beta**2 / (4 * np.pi**2) * 2.0
    return pref * fine, abs(pref * (fine - coarse))


def a_point_regulated(beta: float, epsilon: float,
                      fine_structure: float = 1.0 / 137.036) -> float:
    """Regulated point-charge self term: coincidence band |t1 - t2| < eps T
    excised from the double time integral.

    a_reg(eps) = (e^2 beta^2 / 2 pi^2) Int_eps^1 dtau (1 - tau) cos(pi tau)
                 / ((2 beta/pi)^2 sin^2(pi tau / 2) - tau^2).
    The integrand near the excised diagonal is negative (the kernel is
    timelike there), so the regulated value is negative while its magnitude
    grows without bound as eps -> 0; callers should treat the sign as a
    property of the regularized intermediate, not of the physical exponent.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1) (units of the traverse time)")

    def f(t):
        den = (2 * beta / np.pi) ** 2 * np.sin(np.pi * t / 2) ** 2 - t**2
        return (1 - t) * np.cos(np.pi * t) / den

    edges = np.geomspace(epsilon, 1.0, 60)
    return fine_structure * beta**2 / (2 * np.pi**2) * _panels(edges, f)


# ------------------------------------------------- physical current-current

def _endpoint_factor(q, T):
    """E(q) = (e^{i q T} - 1) / (i q), the finite-traverse spectral factor."""
    q = np.asarray(q, dtype=float)
    small = np.abs(q) * T < 1e-8
    qs = np.where(small, 1.0, q)
    out = (np.exp(1j * qs * T) - 1.0) / (1j * qs)
    return np.where(small, T * (1.0 + 0.5j * q * T), out)


def _log_bound_sq(x, orders):
    """log min(1, (x/2)^m / m!)^2 for m = 0 .. orders - 1: a bound on J_m(x')^2
    for every 0 <= x' <= x (|J_m| <= 1 and DLMF 10.14.4)."""
    m = np.arange(orders)
    log_fact = np.cumsum(np.log(np.maximum(m, 1)))  # log m! = Sum_{j <= m} log j
    return np.minimum(2.0 * (m * math.log(x / 2.0) - log_fact), 0.0)


def _miller_start(x_max, n0):
    """The smallest order N > n0 with (b_N / b_n0)^2 <= _START_TOL, b_m the
    bound of _log_bound_sq at x_max."""
    log_b2 = _log_bound_sq(x_max, 2 * n0 + 41)
    return n0 + 1 + int(np.argmax(log_b2[n0 + 1:] <= math.log(_START_TOL) + log_b2[n0]))


def _bessel_square_sums(x, c):
    """Sum_m c[..., m] J_m(x)^2 over the orders m = 0 .. top of c.

    One Miller backward recurrence J_{m-1} = (2m/x) J_m - J_{m+1} (DLMF
    3.6) over the whole array x of shape (K, M), with coefficient sets c of
    shape (P, K, top + 1); returns shape (P, K, M).  With n0 = max(top,
    ceil(max x)) and b_m = min(1, (x/2)^m / m!) at max x, the bound of
    DLMF 10.14.4, the recurrence starts from 1 at the smallest N > n0 with
    (b_N / b_n0)^2 <= 1e-20 (Numerical Recipes 6.5).  Above n0 each order
    shrinks b_m^2 by more than 4 once it is below 1, so N - n0 is at most
    34 + 0.45 max x.  From 1e-300 the squares underflow; every entry above
    1e30 is rescaled together with its accumulators, and the sums are
    normalised by Neumann's J_0^2 + 2 Sum_{m >= 1} J_m^2 = 1 (DLMF
    10.23.3), accumulated over the same loop.
    """
    top = c.shape[-1] - 1
    start = _miller_start(float(x.max()), max(top, math.ceil(x.max())))
    two_over_x = 2.0 / x
    j_up = np.zeros_like(x)
    j = np.ones_like(x)
    acc = np.zeros((c.shape[0],) + x.shape)
    norm = np.zeros_like(x)  # Sum_{m >= 1} J_m^2, unnormalised
    for m in range(start, 0, -1):
        j2 = j * j
        if m <= top:
            acc += c[..., m, None] * j2
        norm += j2
        j_up, j = j, (m * two_over_x) * j - j_up
        if np.abs(j).max() > 1e30:
            big = np.abs(j) > 1e30
            j[big] *= 1e-30
            j_up[big] *= 1e-30
            acc[:, big] *= 1e-60
            norm[big] *= 1e-60
    j2 = j * j
    acc += c[..., 0, None] * j2
    return acc / (j2 + 2.0 * norm)


def a_current_current(beta: float, lam: float,
                      fine_structure: float = 1.0 / 137.036,
                      k_max: float | None = None, n_mu: int = 96):
    """Physical overlap exponent from the current-current integral.

    The angular k integral is exact (Bessel-function expansion over the
    orbital harmonics), leaving an absolutely convergent radial integral:

    a_self  = (e^2 b^2/32 pi^2) Int k dk dmu |S|^2 Sum_n (J_{n-1}^2+J_{n+1}^2)
              (|E(k+n b)|^2 + |E(k-n b)|^2),
    a_cross = same kernel with 2 Re[E(k+n b) E*(k-n b)],

    with S the line-smearing factor, E the finite-traverse factor and the
    Bessel argument k sin(mu).  Both order kernels are even in n, so the
    sum runs over n >= 0 with n > 0 weighted by 2 and is regrouped by
    Bessel order as Sum_m c_m J_m^2 (c_0 = T_1, c_1 = T_2 + 2 T_0, c_m =
    T_{m+1} + T_{m-1}).  On each unit k-segment the orders above M are
    dropped, M the smallest order >= ceil(k_hi) at which the bound
    J_m(x)^2 <= min(1, (x/2)^m/m!)^2 (DLMF 10.14.4) at the segment's upper
    k holds the dropped terms, Sum_{m > M} max c_m J_m^2, to 1e-18
    (_CUT_TOL) of the largest coefficient of the orders m <= ceil(k_hi).
    That coefficient was at most 33 times the segment's mean self sum on
    segments up to k = 80 at beta = 0.05 to 0.3, so the dropped orders stay
    below the rounding of the segment's sum.  One backward recurrence over the segment's (k, mu)
    nodes, normalised by Neumann's sum rule, then takes the sum.
    Returns (a_self, a_cross); a_self >= 0 by construction.  A non-finite
    sum raises QuadratureError naming the parameters and the k-segment.
    """
    if lam <= 0:
        raise ValueError("the current-current integral needs lam > 0")
    T = np.pi / beta
    smear = SmearingProfile(SmearKind.LINE_Z, lam)
    if k_max is None:
        k_max = 40.0 / lam
    nseg = int(np.ceil(k_max))
    kedges = np.arange(nseg + 1) * k_max / nseg
    k_nodes, k_weights = gauss_legendre(kedges[:-1], kedges[1:],
                                        int(min(max(8, 3 * T), 48)))
    # the integrand is even in mu: twice its integral over [0, 1]
    mu, wmu = gauss_legendre(0.0, 1.0, n_mu)
    wmu = 2.0 * wmu
    sin_mu = np.sqrt(1.0 - mu**2)
    a_self = 0.0
    a_cross = 0.0
    for lo, hi, ks, kw in zip(kedges[:-1], kedges[1:], k_nodes, k_weights):
        # orders up to 2 ceil(hi) + 40, past which the squared bound is below
        # 1e-70 while |E| <= T holds every |c_m| to 8 T^2
        n_top = math.ceil(hi)
        n = np.arange(2 * n_top + 41)
        Ep = _endpoint_factor(ks[:, None] + n * beta, T)
        Em = _endpoint_factor(ks[:, None] - n * beta, T)
        tn = np.where(n > 0, 2.0, 1.0) * np.stack([np.abs(Ep) ** 2 + np.abs(Em) ** 2,
                                                    2.0 * np.real(Ep * np.conj(Em))])
        # c_m = T_{m+1} + T_{m-1}, plus T_0 once more at m = 1 (n = 0 carries
        # J_1^2 twice)
        c = tn[..., 1:].copy()
        c[..., 1:] += tn[..., :-2]
        c[..., 1] += tn[..., 0]
        # the self set is nonnegative and bounds the cross set in magnitude;
        # tail[m] bounds what the orders >= m add to either sum
        tail = np.cumsum((c[0].max(axis=0) * np.exp(_log_bound_sq(hi, n.size - 1)))[::-1])[::-1]
        ok = tail[n_top + 1:] <= _CUT_TOL * c[0, :, :n_top + 1].max()
        top = n_top + int(np.argmax(np.append(ok, True)))
        sums = _bessel_square_sums(ks[:, None] * sin_mu, c[..., :top + 1])
        seg = (sums * smear.fourier_factor(ks[:, None] * mu) ** 2) @ wmu @ (kw * ks)
        if not np.all(np.isfinite(seg)):
            raise QuadratureError(
                f"current-current Bessel sum is not finite at beta = {beta:g}, "
                f"lam = {lam:g} on the k-segment [{lo:.6g}, {hi:.6g}]")
        a_self += seg[0]
        a_cross += seg[1]
    pref = fine_structure * beta**2 / (32.0 * np.pi**2)
    return pref * float(a_self), pref * float(a_cross)


# ------------------------------------------------------------- cross checks

def a_modes_crosscheck(beta: float, lam: float,
                       fine_structure: float = 1.0 / 137.036,
                       grid_n: int = 24, kmax_sigma: float = 6.0,
                       grid: ModeGrid | None = None):
    """a(T) by two routes at a shared spectral cutoff.

    Route one: the current-current integral truncated at k_max (Bessel
    radial quadrature).  Route two: (1/2) * photon_number of the difference
    state alpha_R - alpha_L on a spherical mode grid of ~grid_n^3 points
    (the grids must resolve the 1/sigma, 1/R and 1/T scales; the radial
    direction carries most of the points), of which the k_z > 0 half is
    computed: the difference state is even in k_z.  Returns a dict with both
    values and their relative difference.
    """
    if kmax_sigma < 4.0:
        raise ValueError(
            f"k_max sigma = {kmax_sigma:g} < 4: grid resolution insufficient "
            "for the smearing scale")
    sigma = lam
    k_max = kmax_sigma / sigma
    traj = TrajectoryHalfCircle(1.0, beta, Sense.RIGHT)
    smear = SmearingProfile(SmearKind.LINE_Z, sigma)
    if grid is None:
        # balanced refinement: angular and radial resolution both grow with
        # the point budget so refinement improves every direction
        n_ang = max(6, 2 * (grid_n // 8))
        n_r = max(16, grid_n**3 // (n_ang * n_ang))
        r_segments = max(4, int(np.ceil(k_max * (np.pi / beta) / 20.0)))
        grid = ModeGrid.spherical(k_max, n_r=n_r, n_mu=n_ang, n_phi=n_ang,
                                  r_segments=min(r_segments, n_r // 2)).fold_kz()
    drive = traverse_difference_drive(traj, smear, grid)
    T = traj.traverse_time
    state = analytic_mode(traj, smear, grid, T, drive=drive)
    a_modes = 0.5 * fine_structure * photon_number(state)
    a_s, a_c = a_current_current(beta, lam, fine_structure, k_max=k_max)
    a_cc = a_s + a_c
    return {
        "a_current_current": a_cc,
        "a_modes": a_modes,
        "rel_difference": abs(a_cc - a_modes) / abs(a_cc),
        "k_max": k_max,
        "n_modes": grid.n_modes,
    }


def phase_c1_check(traj_right: TrajectoryHalfCircle, smear: SmearingProfile,
                   rho_max: float = 6.0, z_max: float = 8.0, n_phi: int = 16,
                   spec: QuadratureSpec | None = None,
                   traj_left: TrajectoryHalfCircle | None = None,
                   line_nodes: int = 16):
    """Overlap phase of the radiated parts,
    -(1/2) Int (Adot_R + Adot_L) . (A_R - A_L) d3x, over a truncated volume.

    Vanishes by the 180-degree exchange symmetry of the two traverses; the
    returned scale is the integral of the pointwise |.|.|.| magnitude so the
    cancellation can be judged relative to it.  Passing a perturbed
    traj_left (e.g. different radius) breaks the symmetry and produces a
    nonzero value (negative control).  An unramped traverse is given the
    start-up ramp fraction 0.01.  Returns (value, scale).
    """
    def ramped(traj):
        if traj.ramp_fraction > 0:
            return traj
        return replace(traj, ramp_fraction=0.01)

    right = ramped(traj_right)
    left = ramped(right.mirrored() if traj_left is None else traj_left)
    T = right.traverse_time
    if spec is None:
        spec = QuadratureSpec(abs_tol=5e-5, rel_tol=1e-3, max_subdivisions=1500)

    def fields(pts):
        adr = a_dot_electron(right, smear, pts, T, line_nodes)
        adl = a_dot_electron(left, smear, pts, T, line_nodes)
        ar = a_electron_retarded(right, smear, pts, T, line_nodes)
        al = a_electron_retarded(left, smear, pts, T, line_nodes)
        return adr + adl, ar - al

    def f_signed(pts):
        s, d = fields(pts)
        return -0.5 * np.einsum("ij,ij->i", s, d)

    def f_abs(pts):
        s, d = fields(pts)
        return 0.5 * np.linalg.norm(s, axis=-1) * np.linalg.norm(d, axis=-1)

    value, _ = cylinder_integral(lambda nodes, ring_mean: ring_mean(f_signed),
                                 (1e-9, rho_max), z_max, n_phi, spec)
    scale, _ = cylinder_integral(lambda nodes, ring_mean: ring_mean(f_abs),
                                 (1e-9, rho_max), z_max, n_phi, spec)
    return value, scale


def visibility_report(beta: float, lam: float,
                      fine_structure: float = 1.0 / 137.036,
                      k_max: float | None = None) -> OverlapResult:
    """Assemble the decoherence bundle at one parameter point.

    The visibility uses the physical exponent a_total = a_self + a_cross
    (current-current route); the reduced principal-value pair (a1, a2) is
    reported alongside.  A negative physical exponent fails loudly.  The
    overlap phase is left at zero (phase_c1_check computes it).
    """
    params = UnitsAndCouplings(beta=beta, lam=lam, fine_structure=fine_structure)
    a_s, a_c = a_current_current(beta, lam, fine_structure, k_max=k_max)
    a_total = a_s + a_c
    if a_total < 0 or a_s < 0:
        raise RuntimeError(
            f"physical overlap exponent came out negative (a_self={a_s:.3e}, "
            f"a_total={a_total:.3e}); the run is inconsistent")
    a1 = a1_smeared(beta, lam, fine_structure)
    a1_exact = a1_smeared(beta, lam, fine_structure, retain_sin_correction=True)
    a2, err_a2 = a2_smeared(beta, lam, fine_structure)
    return OverlapResult(
        parameters=params,
        a1=a1,
        a2=a2,
        a_self=a_s,
        a_cross=a_c,
        a_total=a_total,
        visibility=float(np.exp(-a_total)),
        overlap_phase=0.0,
        phase_scale=0.0,
        err_a1=abs(a1 - a1_exact),
        err_a2=err_a2,
    )
