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

evolve_mode integrates the modes by classical RK4.  On a chunk where the
drive is nonzero it steps by RK4's exact step map alpha <- P alpha + h (the
equation is linear with constant coefficients), with h for the whole chunk
taken in bulk; where the drive is identically zero it keeps the staged
arithmetic, whose rounding the photon-number drift check reads.

analytic_mode takes alpha and c by Gauss quadrature on segments of the time
axis, from one drive call per segment at its Gauss nodes: c's inner
integral up to each node comes from the same node values (Gauss
collocation), so the rule for c has the order 2 x nodes of the one for alpha.

The vacuum kernel is stationary at B(k) = omega / 2 (Riccati fixed point);
only that choice (zero squeezing) is supported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import SmearingProfile, TrajectoryHalfCircle
from .quadrature import gauss_legendre, gauss_partial_matrix

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

# complex values per per-step work array of an RK4 chunk; it sizes only the
# chunks of evolve_mode.  On the folded 108-mode grid with 2 polarizations
# (the modes-n6 benchmark), 2**15 runs the modes stage faster than 2**14 but
# raises its peak memory from 41.5 MB to 43.4-46.8 MB.
_CHUNK_ELEMS = 2**14


@functools.lru_cache(maxsize=None)
def _fft_keep_mask(n: int) -> np.ndarray:
    """Flat mask of the paired FFT band |index| <= (n-1)//2, k != 0; cached, read-only."""
    idx = np.rint(np.fft.fftfreq(n) * n).astype(int)
    ix, iy, iz = np.meshgrid(idx, idx, idx, indexing="ij")
    half = (n - 1) // 2
    inband = (np.abs(ix) <= half) & (np.abs(iy) <= half) & (np.abs(iz) <= half)
    nonzero = (ix != 0) | (iy != 0) | (iz != 0)
    keep = (inband & nonzero).ravel()
    keep.flags.writeable = False
    return keep


@dataclass(frozen=True)
class ModeGrid:
    """Discrete set of k-points with weights approximating Int d3k.

    Grids exclude k = 0.  cartesian (midpoint cube), spherical (Gauss radial
    x Gauss polar x uniform azimuth; resolves fine radial oscillations
    cheaply) and fft_pair (discrete-transform pair with a real-space cube of
    fft_n^3 points and side box_length, for functional-overlap checks) are
    symmetric under k -> -k.  fold_kz keeps the k_z > 0 half of a grid with
    doubled weights.
    """

    k_points: np.ndarray
    weights: np.ndarray
    fft_n: int | None = None
    box_length: float | None = None

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("mode weights must be positive")
        if np.any(self.omega <= 0):
            raise ValueError("k = 0 must be excluded from a ModeGrid")

    @functools.cached_property
    def omega(self) -> np.ndarray:
        """|k| of every mode; computed once per grid, read-only."""
        om = np.linalg.norm(self.k_points, axis=-1)
        om.flags.writeable = False
        return om

    @property
    def n_modes(self) -> int:
        return len(self.weights)

    def fold_kz(self) -> "ModeGrid":
        """The k_z > 0 half of a k_z-mirror-symmetric grid, weights doubled:
        it carries every sum of amplitudes even in k_z.  Raises on a k_z = 0
        plane or a missing mirror point."""
        key = np.round(self.k_points / (np.abs(self.k_points).max() * 1e-12))
        key = key.astype(np.int64)
        if np.any(key[:, 2] == 0):
            raise ValueError("a grid with a k_z = 0 plane cannot be folded")
        rows = [tuple(row) for row in key.tolist()]
        lookup = {row: i for i, row in enumerate(rows)}
        try:
            mirror = np.array([lookup[(kx, ky, -kz)] for kx, ky, kz in rows])
        except KeyError as exc:
            raise ValueError("grid is not symmetric under k_z -> -k_z") from exc
        if not np.allclose(self.weights[mirror], self.weights, rtol=1e-12, atol=0):
            raise ValueError("mode weights are not symmetric under k_z -> -k_z")
        up = self.k_points[:, 2] > 0
        return ModeGrid(self.k_points[up], 2.0 * self.weights[up])

    @classmethod
    def cartesian(cls, n: int, k_max: float) -> "ModeGrid":
        """Midpoint cube grid: n^3 points, no k = 0 (n even); k and -k match
        bit for bit."""
        dk = 2.0 * k_max / n
        ax = (np.arange(n) - (n - 1) / 2) * dk
        kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.stack([kx.ravel(), ky.ravel(), kz.ravel()], axis=-1)
        return cls(pts, np.full(len(pts), dk**3))

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
        redges = np.linspace(0.0, k_max, r_segments + 1)
        r, wr = (a.ravel() for a in gauss_legendre(
            redges[:-1], redges[1:], max(2, n_r // r_segments)))
        mu, wmu = gauss_legendre(-1.0, 1.0, n_mu)
        phi = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        wphi = 2 * np.pi / n_phi
        R, MU, PH = np.meshgrid(r, mu, phi, indexing="ij")
        WR, WMU, _ = np.meshgrid(wr, wmu, phi, indexing="ij")
        st = np.sqrt(1.0 - MU**2)
        pts = np.stack([(R * st * np.cos(PH)).ravel(),
                        (R * st * np.sin(PH)).ravel(),
                        (R * MU).ravel()], axis=-1)
        w = (WR * WMU * wphi * R**2).ravel()
        return cls(pts, w)

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
        return cls(pts[keep], np.full(keep.sum(), dk**3), fft_n=n,
                   box_length=box_length)


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


def electron_drive(traj: TrajectoryHalfCircle, smear: SmearingProfile,
                   grid: ModeGrid):
    """Fourier transform of the traverse current: callable ts -> (len(ts), n, 2).

    Jt(k, t) = (2 pi)^{-3/2} e u(t) exp(-i k . x(t)) S(k_z); zero outside
    [0, T] (the traverse drive switches off when the packets recombine).
    Only the in-plane (x, y) components are returned: the orbit lies in the
    plane z = 0, which also makes Jt even in k_z.  The trajectory and the
    exponential are evaluated only at the times inside the support.
    """
    pS = (2 * np.pi) ** (-1.5) * traj.charge * smear.fourier_factor(grid.k_points[:, 2])
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


def _rk4_chunk(n_modes: int, p: int) -> int:
    """RK4 steps per drive call: each per-step work array of the chunk,
    (steps, n_modes, p) complex values, fits in _CHUNK_ELEMS."""
    return max(1, _CHUNK_ELEMS // (p * n_modes))


def evolve_mode(state: ModeState, dt: float, steps: int) -> ModeState:
    """Classical Runge-Kutta (4th order) integration of the driven modes.

    Requires dt * omega_max <= 0.5; a coarser step raises an error naming the
    worst mode.  The drive attached to the state supplies Jt(k, t), one call
    per chunk of _rk4_chunk(n_modes, p) steps at the chunk's distinct stage
    times; with no drive attached no call is made.

    The equation is linear with constant coefficients, so one RK4 step is
    exactly alpha <- P alpha + h, with z = -i omega dt, P(z) = 1 + z + z^2/2
    + z^3/6 + z^4/24 the stability polynomial and, for g = i Jt / sqrt(2
    omega) at the step's start, midpoint and end,
    h = (dt/6) [(1 + z + z^2/2 + z^3/4) g0 + (4 + 2z + z^2/2) g_half + g1].
    A chunk with a nonzero drive takes h in bulk, steps by that map, and
    rebuilds the stage states from the stored step-start amplitudes for the
    phase c.  A chunk whose drive is identically zero keeps the staged
    arithmetic operation for operation, because the photon-number drift
    check reads the rounding of the free evolution; once that check no
    longer does, this branch folds into the step map with h = 0.
    """
    om = state.grid.omega
    worst = int(np.argmax(om))
    if dt * om[worst] > 0.5:
        raise ValueError(
            f"dt * omega = {dt * om[worst]:.3f} > 0.5 for mode {worst} "
            f"(|k| = {om[worst]:.4g}); reduce dt")
    n, p = state.alpha.shape
    i_sq = 1j / np.sqrt(2.0 * om)[:, None]
    w_ = state.grid.weights[:, None]
    # (-i omega) alpha equals -i (omega alpha) bit for bit
    miw = -1j * om[:, None]
    z = dt * miw
    P = 1 + z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    W0 = dt / 6 * (1 + z + z * z / 2 + z**3 / 4)
    Wh = dt / 6 * (4 + 2 * z + z * z / 2)
    chunk = _rk4_chunk(n, p)

    alpha = state.alpha.copy()
    c = complex(state.c_phase)
    t0 = state.time
    for i0 in range(0, steps, chunk):
        m = min(chunk, steps - i0)
        J = None
        if state.drive is not None:
            # stage times from the step index, not accumulation: the final
            # stage must not drift past the drive support by rounding
            J = state.drive(t0 + (i0 + np.arange(2 * m + 1) / 2) * dt)
        if J is None or not J.any():
            for _ in range(m):
                k1a = miw * alpha
                k2a = miw * (alpha + dt / 2 * k1a)
                k3a = miw * (alpha + dt / 2 * k2a)
                k4a = miw * (alpha + dt * k3a)
                alpha = alpha + dt / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
            continue
        # g at the step ends (m + 1 rows) and midpoints (m rows)
        ge, gh = J[0::2] * i_sq, J[1::2] * i_sq
        g0, g1 = ge[:-1], ge[1:]
        h = W0 * g0 + Wh * gh + dt / 6 * g1
        A = np.empty_like(h)  # alpha at the start of each step
        A[0] = alpha
        for j in range(m - 1):
            np.multiply(P, A[j], out=A[j + 1])
            A[j + 1] += h[j]
        alpha = P * A[-1] + h[-1]
        # dc/dt = i Sum w conj(Jt) alpha / sqrt(2 omega) = -Sum w conj(g) alpha
        # at every stage state, rebuilt in bulk
        s1 = A + dt / 2 * (miw * A + g0)
        s2 = A + dt / 2 * (miw * s1 + gh)
        s3 = A + dt * (miw * s2 + gh)
        gwe, gwh = ge * w_, gh * w_
        c = c - dt / 6 * (np.vdot(gwe[:-1], A) + 2 * np.vdot(gwh, s1 + s2)
                          + np.vdot(gwe[1:], s3))
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


# nodes per Gauss segment of the time quadratures
_SEGMENT_NODES = 8


def analytic_mode(traj: TrajectoryHalfCircle, smear: SmearingProfile,
                  grid: ModeGrid, t: float, drive=None) -> ModeState:
    """Closed-form mode amplitudes by segmented direct quadrature.

    alpha(k, t) = (i / sqrt(2 omega)) Int_0^t e^{-i omega (t - t')} Jt(k, t') dt'
    and the phase c(t) accumulated from dc/dt = i <Jt*, alpha> / sqrt(2 omega).
    The real part of c is fixed by construction to -(1/2) Sum w |alpha|^2,
    which the quadrature route also satisfies; the imaginary part is the
    accumulated current-field phase.

    Each segment takes one drive call, at its _SEGMENT_NODES Gauss nodes.
    With E = e^{i omega t'} Jt, alpha integrates E over the segments by the
    Gauss rule.  c integrates -Sum (w / 2 omega) conj(E) . Int_0^{t'} E by the
    same rule, the inner integral up to each node taken from the node values
    by gauss_partial_matrix: Gauss collocation, of order 2 _SEGMENT_NODES like
    the rule for alpha (Butcher 1964).  The factors e^{-+i omega t'} cancel,
    so alpha is never formed at the nodes.
    """
    if drive is None:
        drive = electron_drive(traj, smear, grid)
    om = grid.omega
    sq = np.sqrt(2.0 * om)
    n, p = grid.n_modes, _polarizations(drive)
    w_2om = (grid.weights / (2.0 * om))[:, None]
    edges = _time_segments(t, float(om.max()), traj.traverse_time)
    A = gauss_partial_matrix(_SEGMENT_NODES)
    S = np.zeros((n, p), complex)  # Int e^{i om t'} Jt dt'
    c_im = 0.0
    for half, tsub, wsub in zip(0.5 * np.diff(edges), *gauss_legendre(
            edges[:-1], edges[1:], _SEGMENT_NODES)):
        Jsub = drive(tsub)
        phase = np.exp(1j * om * tsub[:, None])
        E = phase[..., None] * Jsub
        # A is real: it acts on the interleaved real and imaginary parts
        # (a real-complex matmul would not reach BLAS)
        AE = (A @ E.reshape(_SEGMENT_NODES, -1).view(float)).view(complex)
        inner = half * AE.reshape(E.shape) + S  # Int_0^{t_j} E at every node j
        c_im -= np.vdot(wsub[:, None, None] * w_2om * E, inner).imag
        S = S + np.einsum("jm,jmp->mp", wsub[:, None] * phase, Jsub)
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
    Ssin = np.zeros((grid.n_modes, _polarizations(drive)), complex)
    Scos = np.zeros_like(Ssin)
    for ts, wts in zip(*gauss_legendre(edges[:-1], edges[1:], _SEGMENT_NODES)):
        J = drive(ts)
        arg = om * ts[:, None]
        Ssin += np.einsum("jm,jmp->mp", wts[:, None] * np.sin(arg), J)
        Scos += np.einsum("jm,jmp->mp", wts[:, None] * np.cos(arg), J)
    s, c = np.sin(om * t)[:, None], np.cos(om * t)[:, None]
    At = (s * Scos - c * Ssin) / om[:, None]
    Vt = c * Scos + s * Ssin
    return At, Vt


def photon_number(state: ModeState) -> float:
    """Sum_k w |alpha|^2 over modes and polarizations (for the difference
    state alpha_R - alpha_L this is twice the decoherence exponent)."""
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


def _forward(grid: ModeGrid, field: np.ndarray) -> np.ndarray:
    """(2 pi)^{-3/2} Int d3x f(x) e^{-i k.x} on the kept modes: a real field
    of shape (n, n, n, p) on the fft cube to shape (n_modes, p)."""
    n = grid.fft_n
    fac = (grid.box_length / n) ** 3 / (2 * np.pi) ** 1.5
    return np.fft.fftn(field, axes=(0, 1, 2)).reshape(n**3, -1)[_fft_keep_mask(n)] * fac


def _inverse_real(grid: ModeGrid, modes: np.ndarray) -> np.ndarray:
    """2 Re[(2 pi)^{-3/2} Sum_k w f(k) e^{i k.x}] on the fft cube: the real
    field whose transform is f(k) + f(-k)*, shape (n, n, n, p)."""
    n = grid.fft_n
    full = np.zeros((n**3, modes.shape[1]), complex)
    full[_fft_keep_mask(n)] = modes
    fac = 2 * (2 * np.pi / grid.box_length) ** 3 * n**3 / (2 * np.pi) ** 1.5
    return np.fft.ifftn(full.reshape(n, n, n, -1), axes=(0, 1, 2)).real * fac


def _fields_from_state(state: ModeState):
    """Real-space A and Adot on the fft cube (requires an fft-pair grid).

    The reality condition At(-k) = At(k)* makes each field twice the real
    part of its one-sided mode sum: A from alpha / sqrt(2 omega), Adot from
    -i sqrt(omega / 2) alpha.
    """
    grid = state.grid
    if grid.fft_n is None:
        raise ValueError("field reconstruction needs an fft-pair ModeGrid")
    om = grid.omega[:, None]
    return (_inverse_real(grid, state.alpha / np.sqrt(2 * om)),
            _inverse_real(grid, -1j * np.sqrt(om / 2) * state.alpha))


def state_from_fields(grid: ModeGrid, A: np.ndarray, Adot: np.ndarray) -> ModeState:
    """Coherent state whose mean field and field velocity are (A, Adot).

    alpha(k) = sqrt(omega/2) At(k) + (i/sqrt(2 omega)) Vt(k); the phase c is
    fixed to -(1/2) Sum w |alpha|^2.
    """
    if grid.fft_n is None:
        raise ValueError("state_from_fields needs an fft-pair ModeGrid")
    om = grid.omega
    alpha = (np.sqrt(om / 2)[:, None] * _forward(grid, A)
             + 1j / np.sqrt(2 * om)[:, None] * _forward(grid, Adot))
    c = -0.5 * np.sum(grid.weights[:, None] * np.abs(alpha) ** 2)
    return ModeState(grid, alpha, complex(c), 0.0)


def random_smooth_state(grid: ModeGrid, rng) -> ModeState:
    """Random smooth real field configuration as a coherent state (test aid)."""
    n = grid.fft_n
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
                amp = rng.normal() * 0.35
                ph = rng.uniform(0, 2 * np.pi)
                acc += amp * np.cos(kbase * (m[0] * X + m[1] * Y + m[2] * Z) + ph)
            fld[..., i] = acc - acc.mean()
    return state_from_fields(grid, A, V)


def overlap_gaussian_check(state_l: ModeState, state_r: ModeState):
    """The overlap evaluated two ways: coherent form vs Gaussian-functional form.

    Returns (lhs, rhs): lhs from the alpha representation, rhs from the
    quadratic forms in (A_R - A_L) and (Adot_R - Adot_L) with the stationary
    kernel and its inverse, plus the cross phase
    -(1/2) Int (Adot_R + Adot_L).(A_R - A_L)
    and the single-state phase terms.  The two are identical analytically;
    the pair is computed through genuinely different code paths (mode sums
    against FFT reconstruction and real-space sums).
    """
    grid = state_l.grid
    if grid.fft_n is None:
        raise ValueError("overlap_gaussian_check needs an fft-pair ModeGrid")
    lhs = overlap_coherent(state_l, state_r)

    Al, Vl = _fields_from_state(state_l)
    Ar, Vr = _fields_from_state(state_r)
    dx3 = (grid.box_length / grid.fft_n) ** 3
    dA = Ar - Al
    dV = Vr - Vl
    # quadratic forms through the kernel omega/2 and its inverse 2/omega
    w, om = grid.weights[:, None], grid.omega[:, None]
    qa = np.sum(w * (om / 2) * np.abs(_forward(grid, dA)) ** 2)
    qv = np.sum(w * (2 / om) * np.abs(_forward(grid, dV)) ** 2)
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


def export_mode_state(state: ModeState, path) -> None:
    """Snapshot of the mode amplitudes as a whitespace table, one row per
    (mode, polarization): kx ky kz pol Re(alpha) Im(alpha) weight."""
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
    np.savetxt(path, np.concatenate(rows, axis=0),
               header="kx ky kz pol re_alpha im_alpha weight")
