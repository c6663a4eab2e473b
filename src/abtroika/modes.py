"""Mode-space simulator: each Fourier mode is an independently driven oscillator.

The field with a classical current J decomposes into modes alpha^i(k, t)
obeying  i d(alpha)/dt = omega alpha - Jt / sqrt(2 omega),  with
Jt^i(k, t) = (2 pi)^{-3/2} Int d3x J^i(x, t) e^{-i k.x}, plus a global phase
c(t) with  i dc/dt = - Int dk Jt* . alpha / sqrt(2 omega).  Everything here
operates on a discrete ModeGrid carrying quadrature weights for Int d3k.

A drive is a callable ts -> Jt of shape (len(ts), n_modes, p): it takes a
1-D array of times, so the integrator and the quadratures evaluate the
current once per chunk of RK4 steps or per quadrature segment rather than
once per stage or node.  p is a state's polarization count (alpha has shape
(n_modes, p)): 2 for the traverse, whose orbit lies in the plane z = 0, and
3 for fields with a z part.

The vacuum kernel is stationary at B(k) = omega / 2 (Riccati fixed point);
only that choice (zero squeezing) is supported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import SmearingProfile, SmearKind, TrajectoryHalfCircle

__all__ = [
    "ModeGrid",
    "ModeState",
    "electron_drive",
    "traverse_difference_drive",
    "evolve_mode",
    "free_rotation",
    "analytic_mode",
    "classical_field_modes",
    "photon_number",
    "overlap_coherent",
    "overlap_gaussian_check",
    "riccati_stationarity",
    "b_relation_residual",
    "export_mode_state",
    "random_smooth_state",
]

# complex values per batched work array (RK4 stage states, inner-node drive
# values).  At 216 modes, 2**14 runs the modes stage as fast as 2**15 and
# raises its peak memory by 0.8 MB instead of 2 MB.
_CHUNK_ELEMS = 2**14


def _fft_keep_mask(n: int) -> np.ndarray:
    """Flat mask of the negation-paired FFT band: |index| <= (n-1)//2, k != 0."""
    idx = np.rint(np.fft.fftfreq(n) * n).astype(int)
    ix, iy, iz = np.meshgrid(idx, idx, idx, indexing="ij")
    half = (n - 1) // 2
    inband = (np.abs(ix) <= half) & (np.abs(iy) <= half) & (np.abs(iz) <= half)
    nonzero = (ix != 0) | (iy != 0) | (iz != 0)
    return (inband & nonzero).ravel()


@dataclass(frozen=True)
class ModeGrid:
    """Discrete set of k-points with weights approximating Int d3k.

    Grids exclude k = 0.  kind is one of "cartesian" (midpoint cube),
    "spherical" (Gauss radial x Gauss polar x uniform azimuth; resolves fine
    radial oscillations cheaply) and "fft" (discrete-transform pair with a
    real-space cube, for functional-overlap checks); these are symmetric
    under k -> -k, and neg_index maps each point to its partner.  fold_kz
    keeps the k_z > 0 half of a grid with doubled weights; a folded grid is
    not negation-symmetric, so neg_index raises on it.
    """

    k_points: np.ndarray
    weights: np.ndarray
    kind: str = "cartesian"
    fft_shape: tuple | None = None
    box_length: float | None = None

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("mode weights must be positive")
        if np.any(self.omega <= 0):
            raise ValueError("k = 0 must be excluded from a ModeGrid")

    @property
    def omega(self) -> np.ndarray:
        return np.linalg.norm(self.k_points, axis=-1)

    @property
    def n_modes(self) -> int:
        return len(self.weights)

    def neg_index(self) -> np.ndarray:
        """Index of the k -> -k partner of every mode (read-only, computed
        once per grid)."""
        return self._neg_index

    @cached_property
    def _neg_index(self) -> np.ndarray:
        try:
            idx = self._mirror_index((-1, -1, -1))
        except KeyError as exc:
            raise ValueError("grid is not symmetric under k -> -k") from exc
        idx.flags.writeable = False
        return idx

    def _key(self) -> np.ndarray:
        return np.round(self.k_points / (np.abs(self.k_points).max() * 1e-12)).astype(np.int64)

    def _mirror_index(self, flip) -> np.ndarray:
        """Index of the partner k * flip of every mode (KeyError if missing)."""
        key = self._key()
        lookup = {tuple(row): i for i, row in enumerate(key)}
        return np.array([lookup[tuple(row * flip)] for row in key])

    def fold_kz(self) -> "ModeGrid":
        """The k_z > 0 half of a k_z-mirror-symmetric grid, weights doubled:
        it carries every sum of amplitudes even in k_z.  Raises on a k_z = 0
        plane or a missing mirror point."""
        if np.any(self._key()[:, 2] == 0):
            raise ValueError("a grid with a k_z = 0 plane cannot be folded")
        try:
            mirror = self._mirror_index((1, 1, -1))
        except KeyError as exc:
            raise ValueError("grid is not symmetric under k_z -> -k_z") from exc
        if not np.allclose(self.weights[mirror], self.weights, rtol=1e-12, atol=0):
            raise ValueError("mode weights are not symmetric under k_z -> -k_z")
        up = self.k_points[:, 2] > 0
        return ModeGrid(self.k_points[up], 2.0 * self.weights[up], kind=self.kind)

    @classmethod
    def cartesian(cls, n: int, k_max: float) -> "ModeGrid":
        """Midpoint cube grid: n^3 points, no k = 0 (n even); k and -k match
        bit for bit."""
        dk = 2.0 * k_max / n
        ax = (np.arange(n) - (n - 1) / 2) * dk
        kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.stack([kx.ravel(), ky.ravel(), kz.ravel()], axis=-1)
        return cls(pts, np.full(len(pts), dk**3), kind="cartesian")

    @classmethod
    def spherical(cls, k_max: float, n_r: int, n_mu: int = 8, n_phi: int = 8,
                  r_segments: int | None = None) -> "ModeGrid":
        """Spherical product grid, composite-Gauss radial direction.

        n_phi must be even so the azimuth contains phi and phi + pi pairs.
        """
        if n_phi % 2:
            raise ValueError("n_phi must be even for k -> -k symmetry")
        if r_segments is None:
            r_segments = max(1, n_r // 8)
        per = max(2, n_r // r_segments)
        xg, wg = np.polynomial.legendre.leggauss(per)
        redges = np.linspace(0.0, k_max, r_segments + 1)
        r, wr = [], []
        for lo, hi in zip(redges[:-1], redges[1:]):
            r.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
            wr.append(0.5 * (hi - lo) * wg)
        r = np.concatenate(r)
        wr = np.concatenate(wr)
        mu, wmu = np.polynomial.legendre.leggauss(n_mu)
        phi = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        wphi = 2 * np.pi / n_phi
        R, MU, PH = np.meshgrid(r, mu, phi, indexing="ij")
        WR, WMU, _ = np.meshgrid(wr, wmu, phi, indexing="ij")
        st = np.sqrt(1.0 - MU**2)
        pts = np.stack([(R * st * np.cos(PH)).ravel(),
                        (R * st * np.sin(PH)).ravel(),
                        (R * MU).ravel()], axis=-1)
        w = (WR * WMU * wphi * R**2).ravel()
        return cls(pts, w, kind="spherical")

    @classmethod
    def fft_pair(cls, n: int, box_length: float) -> "ModeGrid":
        """FFT-conjugate grid of an n^3 periodic cube.

        Keeps the exactly negation-paired band (the unpaired Nyquist rows of
        an even n are dropped along with k = 0), so the kept modes and the
        band-limited real-space fields form an exact discrete transform pair.
        """
        freqs = 2 * np.pi * np.fft.fftfreq(n, d=box_length / n)
        kx, ky, kz = np.meshgrid(freqs, freqs, freqs, indexing="ij")
        pts = np.stack([kx.ravel(), ky.ravel(), kz.ravel()], axis=-1)
        keep = _fft_keep_mask(n)
        dk = 2 * np.pi / box_length
        return cls(pts[keep], np.full(keep.sum(), dk**3), kind="fft",
                   fft_shape=(n, n, n), box_length=box_length)


@dataclass(frozen=True)
class ModeState:
    """Coherent amplitudes alpha^i(k, t) plus the global phase c(t)."""

    grid: ModeGrid
    alpha: np.ndarray            # (n_modes, p) complex
    c_phase: complex
    time: float
    drive: object = None         # callable ts -> (len(ts), n_modes, p) complex, or None

    def __post_init__(self):
        if self.alpha.ndim != 2 or self.alpha.shape[0] != self.grid.n_modes:
            raise ValueError("alpha must have shape (n_modes, polarizations)")

    @classmethod
    def vacuum(cls, grid: ModeGrid, drive=None) -> "ModeState":
        """Zero amplitudes, p from the drive (3 without one)."""
        p = 3 if drive is None else _polarizations(drive)
        return cls(grid, np.zeros((grid.n_modes, p), complex), 0.0 + 0.0j, 0.0,
                   drive)


def _polarizations(drive) -> int:
    """Polarization count of a drive, from a call with no times."""
    return drive(np.empty(0)).shape[2]


def _smear_factor(smear: SmearingProfile, kz: np.ndarray) -> np.ndarray:
    """Fourier factor of the charge profile (real for the centred line)."""
    if smear.kind is SmearKind.POINT:
        return np.ones_like(kz)
    x = kz * smear.sigma / 2.0
    xs = np.where(np.abs(x) < 1e-30, 1.0, x)
    return np.where(np.abs(x) < 1e-30, 1.0, np.sin(xs) / xs)


def electron_drive(traj: TrajectoryHalfCircle, smear: SmearingProfile,
                   grid: ModeGrid):
    """Fourier transform of the traverse current: callable ts -> (len(ts), n, 2).

    Jt(k, t) = (2 pi)^{-3/2} e u(t) exp(-i k . x(t)) S(k_z); zero outside
    [0, T] (the traverse drive switches off when the packets recombine).
    Only the in-plane (x, y) components are returned: the orbit lies in the
    plane z = 0, which also makes Jt even in k_z.  The trajectory and the
    exponential are evaluated only at the times inside the support.
    """
    pS = (2 * np.pi) ** (-1.5) * traj.charge * _smear_factor(smear, grid.k_points[:, 2])
    kT = grid.k_points.T.copy()
    T = traj.traverse_time
    # a few-ulp tolerance so integrator stages that land on T by rounding
    # still see the final current sample
    t_end = T * (1 + 1e-13)

    def drive(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        shape = (len(ts), grid.n_modes, 2)
        on = (ts >= 0.0) & (ts <= t_end)
        if not on.any():
            return np.zeros(shape, complex)
        pos, vel = traj.point_velocity_extended(np.minimum(ts[on], T))
        J = (pS * np.exp(-1j * (pos @ kT)))[..., None] * vel[:, None, :2]
        if on.all():
            return J
        out = np.zeros(shape, complex)
        out[on] = J
        return out

    return drive


def traverse_difference_drive(traj_right: TrajectoryHalfCircle,
                              smear: SmearingProfile, grid: ModeGrid):
    """Drive of the right-minus-left current difference."""
    dr = electron_drive(traj_right, smear, grid)
    dl = electron_drive(traj_right.mirrored(), smear, grid)
    return lambda ts: dr(ts) - dl(ts)


# RK4 weight of each stage, and the offset of its time from the step start
# in half steps
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])
_RK4_HALF_STEPS = np.array([0, 1, 1, 2])


def _rk4_chunk(n_modes: int, p: int) -> int:
    """RK4 steps per drive call: the chunk's stage states, (steps, 4, n_modes,
    p) complex values, fit in _CHUNK_ELEMS."""
    return max(1, _CHUNK_ELEMS // (4 * p * n_modes))


def evolve_mode(state: ModeState, dt: float, steps: int) -> ModeState:
    """Classical Runge-Kutta (4th order) integration of the driven modes.

    Requires dt * omega_max <= 0.5; a coarser step raises an error naming the
    worst mode.  The drive attached to the state supplies Jt(k, t), one call
    per chunk of _rk4_chunk(n_modes) steps at the chunk's distinct stage times.
    """
    om = state.grid.omega
    worst = int(np.argmax(om))
    if dt * om[worst] > 0.5:
        raise ValueError(
            f"dt * omega = {dt * om[worst]:.3f} > 0.5 for mode {worst} "
            f"(|k| = {om[worst]:.4g}); reduce dt")
    n, p = state.alpha.shape
    drive = state.drive if state.drive is not None else (
        lambda ts: np.zeros((len(ts), n, p), complex))
    sq = np.sqrt(2.0 * om)
    om_, sq_ = om[:, None], sq[:, None]
    w_sq = (state.grid.weights / sq)[:, None]
    chunk = _rk4_chunk(n, p)
    stages = np.empty((chunk, 4, n, p), complex)

    alpha = state.alpha.copy()
    c = complex(state.c_phase)
    t0 = state.time
    for i0 in range(0, steps, chunk):
        m = min(chunk, steps - i0)
        # stage times from the step index, not accumulation: the final stage
        # must not drift past the drive support by rounding
        J = drive(t0 + (i0 + np.arange(2 * m + 1) / 2) * dt)
        g = 1j * J / sq_
        for j in range(m):
            s = stages[j]
            s[0] = alpha
            k1a = -1j * (om_ * alpha) + g[2 * j]
            np.add(alpha, dt / 2 * k1a, out=s[1])
            k2a = -1j * (om_ * s[1]) + g[2 * j + 1]
            np.add(alpha, dt / 2 * k2a, out=s[2])
            k3a = -1j * (om_ * s[2]) + g[2 * j + 1]
            np.add(alpha, dt * k3a, out=s[3])
            k4a = -1j * (om_ * s[3]) + g[2 * j + 2]
            alpha = alpha + dt / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
        # dc/dt = i Sum w conj(Jt) alpha / sqrt(2 omega) at every stage state
        stage_J = (np.conj(J) * w_sq)[2 * np.arange(m)[:, None] + _RK4_HALF_STEPS]
        c = c + dt / 6 * 1j * np.einsum("jsmp,jsmp,s->", stage_J, stages[:m],
                                        _RK4_WEIGHTS)
    return replace(state, alpha=alpha, c_phase=c, time=t0 + steps * dt)


def free_rotation(state: ModeState, dt: float) -> ModeState:
    """The state dt later with the drive off: alpha e^{-i omega dt}, the
    exact free solution; c does not move."""
    rot = np.exp(-1j * state.grid.omega * dt)[:, None]
    return replace(state, alpha=state.alpha * rot, time=state.time + dt)


_SEGMENT_PHASE = 1.5  # largest omega_max * (segment length)
_MIN_SEGMENTS = 16


def _time_segments(t_final: float, omega_max: float, t_off: float):
    """Gauss segment edges on [0, t_final], uniform up to the drive's
    switch-off t_off and uniform again after it, so that no segment
    straddles the jump of the drive to zero."""
    def uniform(lo, hi, least):
        n = max(least, int(np.ceil(omega_max * (hi - lo) / _SEGMENT_PHASE)))
        return np.linspace(lo, hi, n + 1)

    if t_final <= t_off:
        return uniform(0.0, t_final, _MIN_SEGMENTS)
    return np.concatenate([uniform(0.0, t_off, _MIN_SEGMENTS),
                           uniform(t_off, t_final, 1)[1:]])


_GL8 = np.polynomial.legendre.leggauss(8)


def analytic_mode(traj: TrajectoryHalfCircle, smear: SmearingProfile,
                  grid: ModeGrid, t: float, drive=None) -> ModeState:
    """Closed-form mode amplitudes by segmented direct quadrature.

    alpha(k, t) = (i / sqrt(2 omega)) Int_0^t e^{-i omega (t - t')} Jt(k, t') dt'
    and the phase c(t) accumulated from dc/dt = i <Jt*, alpha> / sqrt(2 omega).
    The real part of c is fixed by construction to -(1/2) Sum w |alpha|^2,
    which the quadrature route also satisfies; the imaginary part is the
    accumulated current-field phase.
    """
    if drive is None:
        drive = electron_drive(traj, smear, grid)
    om = grid.omega
    sq = np.sqrt(2.0 * om)
    n, p = grid.n_modes, _polarizations(drive)
    w_sq = (grid.weights / sq)[:, None]
    edges = _time_segments(t, float(om.max()), traj.traverse_time)
    xg, wg = _GL8
    # outer nodes whose inner nodes share one drive call
    group = max(1, _CHUNK_ELEMS // (len(xg) * p * n))
    S = np.zeros((n, p), complex)  # Int e^{i om t'} Jt dt'
    c_im = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        tsub = mid + half * xg
        Jsub = drive(tsub)
        # alpha at each outer node needs the partial integral up to that node:
        # inner 8-point Gauss on [lo, ts]
        ihalf = 0.5 * (tsub - lo)
        tin = 0.5 * (tsub + lo)[:, None] + ihalf[:, None] * xg
        part = np.empty((len(xg), n, p), complex)
        for g0 in range(0, len(xg), group):
            tg = tin[g0:g0 + group]
            Jin = drive(tg.ravel()).reshape(tg.shape + (n, p))
            kernel = ((ihalf[g0:g0 + group, None] * wg)[..., None]
                      * np.exp(1j * om * tg[..., None]))
            part[g0:g0 + group] = np.einsum("gjm,gjmp->gmp", kernel, Jin)
        alpha_here = (1j / sq[:, None] * np.exp(-1j * om * tsub[:, None])[..., None]
                      * (S + part))
        integrand = 1j * np.einsum("gmp,gmp->g", np.conj(Jsub) * w_sq, alpha_here)
        c_im += (half * wg) @ integrand.imag
        kernel = (half * wg)[:, None] * np.exp(1j * om * tsub[:, None])
        S = S + np.einsum("jm,jmp->mp", kernel, Jsub)
    alpha = 1j / sq[:, None] * np.exp(-1j * om[:, None] * t) * S
    c = -0.5 * np.sum(grid.weights[:, None] * np.abs(alpha) ** 2) + 1j * c_im
    return ModeState(grid, alpha, complex(c), t, drive)


def classical_field_modes(traj: TrajectoryHalfCircle, smear: SmearingProfile,
                          grid: ModeGrid, t: float, drive=None):
    """Mode amplitudes of the classical field and its time derivative.

    At(k, t) = Int_0^t Jt(k, t') sin(omega (t - t')) / omega dt' and
    Vt = d(At)/dt with the cosine kernel, by the same segmented quadrature
    but through the real trigonometric kernels (an independent code path
    from analytic_mode).
    """
    if drive is None:
        drive = electron_drive(traj, smear, grid)
    om = grid.omega
    edges = _time_segments(t, float(om.max()), traj.traverse_time)
    xg, wg = _GL8
    Ssin = np.zeros((grid.n_modes, _polarizations(drive)), complex)
    Scos = np.zeros_like(Ssin)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        ts = mid + half * xg
        J = drive(ts)
        arg = om * ts[:, None]
        Ssin += np.einsum("jm,jmp->mp", (half * wg)[:, None] * np.sin(arg), J)
        Scos += np.einsum("jm,jmp->mp", (half * wg)[:, None] * np.cos(arg), J)
    s, c = np.sin(om * t)[:, None], np.cos(om * t)[:, None]
    At = (s * Scos - c * Ssin) / om[:, None]
    Vt = c * Scos + s * Ssin
    return At, Vt


def photon_number(state: ModeState) -> float:
    """Sum_k w |alpha|^2 over modes and polarizations (for the difference
    state alpha_R - alpha_L this is twice the decoherence exponent)."""
    import math
    terms = (state.grid.weights[:, None] * np.abs(state.alpha) ** 2).ravel()
    return math.fsum(terms.tolist())


def overlap_coherent(state_l: ModeState, state_r: ModeState) -> complex:
    """<L|R> = exp( Sum w alpha_L* . alpha_R + c_R + c_L* ), the coherent form.

    The left state is the conjugated one, so its phase enters conjugated;
    the modulus is exp(-(1/2) Sum w |alpha_R - alpha_L|^2) once each c carries
    its -(1/2) Sum w |alpha|^2 normalisation.
    """
    if state_l.grid is not state_r.grid and not (
            state_l.grid.n_modes == state_r.grid.n_modes
            and np.array_equal(state_l.grid.k_points, state_r.grid.k_points)):
        raise ValueError("overlap requires both states on the same mode grid")
    w = state_l.grid.weights
    inner = np.sum(w[:, None] * np.conj(state_l.alpha) * state_r.alpha)
    return complex(np.exp(inner + state_r.c_phase + np.conj(state_l.c_phase)))


def _fields_from_state(state: ModeState):
    """Real-space A and Adot on the fft cube (requires an fft-pair grid)."""
    grid = state.grid
    if grid.kind != "fft":
        raise ValueError("field reconstruction needs an fft-pair ModeGrid")
    n = grid.fft_shape[0]
    p = state.alpha.shape[1]
    L = grid.box_length
    neg = grid.neg_index()
    om = grid.omega
    At = (state.alpha + np.conj(state.alpha[neg])) / np.sqrt(2 * om)[:, None]
    Vt = -1j * np.sqrt(om / 2)[:, None] * (state.alpha - np.conj(state.alpha[neg]))
    keep = _fft_keep_mask(n)
    dk = 2 * np.pi / L
    A = np.zeros((n**3, p))
    V = np.zeros((n**3, p))
    # inverse transform: A(x) = (2 pi)^{-3/2} Sum_k w At(k) e^{i k.x}
    full_At = np.zeros((n**3, p), complex)
    full_Vt = np.zeros((n**3, p), complex)
    full_At[keep] = At
    full_Vt[keep] = Vt
    fac = dk**3 * n**3 / (2 * np.pi) ** 1.5
    for i in range(p):
        A[:, i] = np.fft.ifftn(full_At[:, i].reshape(n, n, n)).real.ravel() * fac
        V[:, i] = np.fft.ifftn(full_Vt[:, i].reshape(n, n, n)).real.ravel() * fac
    return A.reshape(n, n, n, p), V.reshape(n, n, n, p)


def state_from_fields(grid: ModeGrid, A: np.ndarray, Adot: np.ndarray,
                      c_extra: float = 0.0) -> ModeState:
    """Coherent state whose mean field and field velocity are (A, Adot).

    alpha(k) = sqrt(omega/2) At(k) + (i/sqrt(2 omega)) Vt(k); the phase c is
    fixed to -(1/2) Sum w |alpha|^2 + i c_extra.
    """
    if grid.kind != "fft":
        raise ValueError("state_from_fields needs an fft-pair ModeGrid")
    n = grid.fft_shape[0]
    L = grid.box_length
    dx3 = (L / n) ** 3
    keep = _fft_keep_mask(n)
    At = np.empty((grid.n_modes, 3), complex)
    Vt = np.empty((grid.n_modes, 3), complex)
    fac = dx3 / (2 * np.pi) ** 1.5
    for i in range(3):
        At[:, i] = np.fft.fftn(A[..., i]).ravel()[keep] * fac
        Vt[:, i] = np.fft.fftn(Adot[..., i]).ravel()[keep] * fac
    om = grid.omega
    alpha = np.sqrt(om / 2)[:, None] * At + 1j / np.sqrt(2 * om)[:, None] * Vt
    c = -0.5 * np.sum(grid.weights[:, None] * np.abs(alpha) ** 2) + 1j * c_extra
    return ModeState(grid, alpha, complex(c), 0.0)


def random_smooth_state(grid: ModeGrid, rng, corr: float = 0.35) -> ModeState:
    """Random smooth real field configuration as a coherent state (test aid)."""
    n = grid.fft_shape[0]
    L = grid.box_length
    x = np.arange(n) * (L / n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    A = np.zeros((n, n, n, 3))
    V = np.zeros((n, n, n, 3))
    kbase = 2 * np.pi / L
    for i in range(3):
        for fld in (A, V):
            acc = np.zeros((n, n, n))
            for _ in range(4):
                m = rng.integers(-2, 3, 3)
                amp = rng.normal() * corr
                ph = rng.uniform(0, 2 * np.pi)
                acc += amp * np.cos(kbase * (m[0] * X + m[1] * Y + m[2] * Z) + ph)
            fld[..., i] = acc - acc.mean()
    return state_from_fields(grid, A, V)


def overlap_gaussian_check(state_l: ModeState, state_r: ModeState,
                           field_grid: ModeGrid | None = None):
    """The overlap evaluated two ways: coherent form vs Gaussian-functional form.

    Returns (lhs, rhs): lhs from the alpha representation, rhs from the
    quadratic forms in (A_R - A_L) and (Adot_R - Adot_L) with the stationary
    kernel and its inverse, plus the cross phase
    -(1/2) Int (Adot_R + Adot_L).(A_R - A_L)
    and the single-state phase terms.  The two are identical analytically;
    the pair is computed through genuinely different code paths (mode sums
    against FFT reconstruction and real-space sums).
    """
    grid = state_l.grid if field_grid is None else field_grid
    if grid.kind != "fft":
        raise ValueError("overlap_gaussian_check needs an fft-pair ModeGrid")
    lhs = overlap_coherent(state_l, state_r)

    Al, Vl = _fields_from_state(state_l)
    Ar, Vr = _fields_from_state(state_r)
    n = grid.fft_shape[0]
    L = grid.box_length
    dx3 = (L / n) ** 3
    dA = Ar - Al
    dV = Vr - Vl
    # quadratic forms through the kernel omega/2 and its inverse 2/omega
    keep = _fft_keep_mask(n)
    om = grid.omega
    fac = dx3 / (2 * np.pi) ** 1.5
    qa = 0.0
    qv = 0.0
    for i in range(dA.shape[-1]):
        dAt = np.fft.fftn(dA[..., i]).ravel()[keep] * fac
        dVt = np.fft.fftn(dV[..., i]).ravel()[keep] * fac
        qa += np.sum(grid.weights * (om / 2) * np.abs(dAt) ** 2)
        qv += np.sum(grid.weights * (2 / om) * np.abs(dVt) ** 2)
    cross = -0.5 * dx3 * np.sum((Vr + Vl) * dA)
    single = 0.5 * dx3 * (np.sum(Vr * Ar) - np.sum(Vl * Al))
    # current-phase parts of c enter both forms identically
    gamma = state_r.c_phase.imag - state_l.c_phase.imag
    rhs = complex(np.exp(-0.5 * qa - 0.125 * qv + 1j * (cross + single + gamma)))
    return lhs, rhs


def riccati_stationarity(grid: ModeGrid, kernel=None) -> float:
    """Max residual of the stationarity condition 2 B_k^2 = omega^2 / 2.

    kernel maps omega -> B_k; the implemented vacuum kernel omega/2 gives
    zero residual, anything else is flagged by the returned magnitude.
    """
    om = grid.omega
    B = om / 2 if kernel is None else kernel(om)
    return float(np.max(np.abs(-2.0 * B**2 + om**2 / 2.0)))


def b_relation_residual(traj, smear, grid: ModeGrid, t: float) -> float:
    """Mode-wise residual of the linear-coefficient relation
    i b = 2 B A_cl + i Adot_cl, i.e. sqrt(2 omega) alpha = omega At + i Vt.

    alpha comes from the complex-kernel quadrature, (At, Vt) from the real
    trigonometric kernels; the relative max residual measures their
    consistency.
    """
    st = analytic_mode(traj, smear, grid, t)
    At, Vt = classical_field_modes(traj, smear, grid, t)
    om = grid.omega[:, None]
    lhs = np.sqrt(2.0 * om) * st.alpha
    rhs = om * At + 1j * Vt
    scale = np.max(np.abs(lhs)) + 1e-300
    return float(np.max(np.abs(lhs - rhs)) / scale)


def export_mode_state(state: ModeState, path, fmt: str = "text") -> None:
    """Snapshot of the mode amplitudes.

    text: whitespace table, one row per (mode, polarization):
          kx ky kz pol Re(alpha) Im(alpha) weight
    binary: the same seven float64 columns, little-endian ('<f8'), row-major,
            no header.
    """
    g = state.grid
    rows = []
    for i in range(state.alpha.shape[1]):
        block = np.column_stack([
            g.k_points,
            np.full(g.n_modes, float(i)),
            state.alpha[:, i].real,
            state.alpha[:, i].imag,
            g.weights,
        ])
        rows.append(block)
    table = np.concatenate(rows, axis=0)
    if fmt == "text":
        header = "kx ky kz pol re_alpha im_alpha weight"
        np.savetxt(path, table, header=header)
    elif fmt == "binary":
        table.astype("<f8").tofile(path)
    else:
        raise ValueError("fmt must be 'text' or 'binary'")
