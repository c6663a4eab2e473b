"""Numerical kernels: adaptive 1D/ND quadrature, principal values, retarded times.

All integrands are called vectorized: f(x) with x of shape (N,) in 1D or
(N, d) in N-D must return shape (N,).  Subdivision order is deterministic for
a fixed QuadratureSpec, so results are reproducible run to run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "adaptive_1d",
    "adaptive_nd",
    "pv_integral_1d",
    "retarded_time_solve",
    "loglog_slope",
]


class QuadratureError(RuntimeError):
    """Quadrature failure; .estimate and .error carry the best value found."""

    def __init__(self, msg, estimate=None, error=None):
        super().__init__(msg)
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 4000
    # principal-value excision radii, as fractions of the pole-to-endpoint gap
    pv_excision_sequence: tuple = (0.1, 0.05, 0.025, 0.0125, 0.00625)

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        eps = self.pv_excision_sequence
        if len(eps) < 2 or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])) or eps[-1] <= 0:
            raise ValueError("pv_excision_sequence must be strictly decreasing and positive")


# Gauss-Kronrod 7-15 nodes and weights (QUADPACK values)
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
# Gauss-7 uses nodes 1,3,5,...,13 of the 15 (ascending order)
_G_IDX = np.arange(1, 15, 2)
_G_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk_panels(f, lo, hi):
    """Gauss-Kronrod values/errors for a batch of intervals (lo, hi arrays)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    ik = half * (vals @ _GK_WEIGHTS)
    ig = half * (vals[:, _G_IDX] @ _G_WEIGHTS)
    return ik, np.abs(ik - ig)


def adaptive_1d(f, a: float, b: float, spec: QuadratureSpec = QuadratureSpec()):
    """Adaptive Gauss-Kronrod integration of vectorized f over [a, b].

    Returns (value, error_estimate); raises QuadratureError (with the best
    estimate attached) if the subdivision budget is exhausted first.
    """
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    ik, err = _gk_panels(f, np.array([a]), np.array([b]))
    heap = [(-err[0], 0, a, b, ik[0], err[0])]
    count = 1
    nsub = 0
    while True:
        total = sum(h[4] for h in heap)
        total_err = sum(h[5] for h in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return sign * total, total_err
        if nsub >= spec.max_subdivisions:
            raise QuadratureError(
                f"1d subdivision budget {spec.max_subdivisions} exhausted "
                f"(err={total_err:.3e})", estimate=sign * total, error=total_err)
        # split the worst few panels in one vectorized evaluation
        nsplit = min(len(heap), 16)
        worst = [heapq.heappop(heap) for _ in range(nsplit)]
        los, his = [], []
        for _, _, lo, hi, _, _ in worst:
            m = 0.5 * (lo + hi)
            los += [lo, m]
            his += [m, hi]
        ik, err = _gk_panels(f, np.array(los), np.array(his))
        for i in range(len(los)):
            heapq.heappush(heap, (-err[i], count, los[i], his[i], ik[i], err[i]))
            count += 1
        nsub += nsplit


def pv_integral_1d(f, pole: float, bounds, spec: QuadratureSpec = QuadratureSpec()):
    """Principal value of f over [a, b] with a simple pole at `pole`.

    Symmetric excision [pole - eps, pole + eps] shrunk over
    spec.pv_excision_sequence, then polynomial (Neville) extrapolation to
    eps -> 0.  If the pole lies outside the interval this is plain adaptive
    quadrature.  A pole at (or numerically on) an endpoint is rejected.
    """
    a, b = float(bounds[0]), float(bounds[1])
    if b <= a:
        raise ValueError("bounds must satisfy a < b")
    gap = min(abs(pole - a), abs(b - pole))
    if gap <= 1e-13 * (b - a):
        raise ValueError("pole coincides with an integration endpoint")
    if not a < pole < b:
        val, err = adaptive_1d(f, a, b, spec)
        return val
    eps = np.array(spec.pv_excision_sequence, dtype=float) * gap
    # outer region once, then collars between successive excision radii
    outer_l, _ = adaptive_1d(f, a, pole - eps[0], spec)
    outer_r, _ = adaptive_1d(f, pole + eps[0], b, spec)
    values = [outer_l + outer_r]
    for e1, e2 in zip(eps[:-1], eps[1:]):
        cl, _ = adaptive_1d(f, pole - e1, pole - e2, spec)
        cr, _ = adaptive_1d(f, pole + e2, pole + e1, spec)
        values.append(values[-1] + cl + cr)
    # Neville extrapolation of I(eps) to eps = 0
    tab = list(values)
    n = len(tab)
    prev_last = tab[-1]
    for m in range(1, n):
        for i in range(n - m):
            de = eps[i] - eps[i + m]
            tab[i] = tab[i + 1] + eps[i + m] * (tab[i + 1] - tab[i]) / de
        prev_last = tab[1] if n - m > 1 else prev_last
    value = tab[0]
    residual = abs(value - prev_last)
    if not np.isfinite(value) or residual > 1e-4 * max(1.0, abs(value)):
        raise QuadratureError(
            f"principal-value extrapolation did not settle (residual={residual:.3e})",
            estimate=value, error=residual)
    return value


# Genz-Malik degree-7 rule with embedded degree-5 estimate, d in {2, 3, 4}
_L2 = np.sqrt(9.0 / 70.0)
_L3 = np.sqrt(9.0 / 10.0)
_L4 = np.sqrt(9.0 / 10.0)
_L5 = np.sqrt(9.0 / 19.0)


def _gm_rule(d: int):
    """Unit-cube [-1,1]^d points (npts, d) and the two weight vectors."""
    pts = [np.zeros(d)]
    w7 = [2**d * (12824.0 - 9120.0 * d + 400.0 * d * d) / 19683.0]
    w5 = [2**d * (729.0 - 950.0 * d + 50.0 * d * d) / 729.0]
    axis_pairs = []
    for i in range(d):
        for lam, ww7, ww5 in ((_L2, 2**d * 980.0 / 6561.0, 2**d * 245.0 / 486.0),
                              (_L3, 2**d * (1820.0 - 400.0 * d) / 19683.0,
                               2**d * (265.0 - 100.0 * d) / 1458.0)):
            for s in (+1, -1):
                p = np.zeros(d)
                p[i] = s * lam
                pts.append(p)
                w7.append(ww7)
                w5.append(ww5)
        axis_pairs.append(i)
    for i in range(d):
        for j in range(i + 1, d):
            for si in (+1, -1):
                for sj in (+1, -1):
                    p = np.zeros(d)
                    p[i] = si * _L4
                    p[j] = sj * _L4
                    pts.append(p)
                    w7.append(2**d * 200.0 / 19683.0)
                    w5.append(2**d * 25.0 / 729.0)
    for corner in range(2**d):
        p = np.array([_L5 if (corner >> i) & 1 else -_L5 for i in range(d)])
        pts.append(p)
        w7.append(6859.0 / 19683.0)
        w5.append(0.0)
    return np.array(pts), np.array(w7), np.array(w5)


_GM_CACHE = {d: _gm_rule(d) for d in (2, 3, 4)}


def _gm_eval(f, centers, halfw, d):
    """Apply the GM rule to a batch of boxes; returns values, errors, split axes."""
    upts, w7, w5 = _GM_CACHE[d]
    nbox = centers.shape[0]
    pts = centers[:, None, :] + halfw[:, None, :] * upts[None, :, :]
    vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(nbox, -1)
    volfac = np.prod(halfw, axis=1)
    i7 = volfac * (vals @ w7)
    i5 = volfac * (vals @ w5)
    err = np.abs(i7 - i5)
    # split along the axis with the largest scaled fourth difference
    f0 = vals[:, 0]
    ratio = _L2**2 / _L3**2
    diffs = np.empty((nbox, d))
    for i in range(d):
        base = 1 + 4 * i
        d2 = vals[:, base] + vals[:, base + 1] - 2 * f0
        d3 = vals[:, base + 2] + vals[:, base + 3] - 2 * f0
        diffs[:, i] = np.abs(d2 - ratio * d3)
    axes = np.argmax(diffs, axis=1)
    return i7, err, axes


def adaptive_nd(f, box, spec: QuadratureSpec = QuadratureSpec(),
                initial_grid=None):
    """Adaptive Genz-Malik cubature over a hyperrectangle, d in {2, 3, 4}.

    box is a sequence of (lo, hi) pairs.  f is vectorized over an (N, d)
    array of points.  initial_grid (per-dimension cell counts) pre-splits
    the domain so structure finer than the root box cannot alias to a
    spuriously small error estimate.  Returns (value, error_estimate); on
    budget exhaustion raises QuadratureError with the best estimate attached.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    if d not in (2, 3, 4):
        raise ValueError("adaptive_nd supports d in {2, 3, 4}")
    if initial_grid is None:
        initial_grid = (1,) * d
    edges = [np.linspace(box[i, 0], box[i, 1], initial_grid[i] + 1) for i in range(d)]
    los = np.stack([g.ravel() for g in np.meshgrid(*[e[:-1] for e in edges],
                                                   indexing="ij")], axis=-1)
    his = np.stack([g.ravel() for g in np.meshgrid(*[e[1:] for e in edges],
                                                   indexing="ij")], axis=-1)
    centers = 0.5 * (los + his)
    halfw = 0.5 * (his - los)
    vals, errs, axes = _gm_eval(f, centers, halfw, d)
    heap = []
    for i in range(len(centers)):
        heapq.heappush(heap, (-errs[i], i, centers[i], halfw[i], vals[i],
                              errs[i], axes[i]))
    count = len(centers)
    nsub = 0
    while True:
        total = sum(h[4] for h in heap)
        total_err = sum(h[5] for h in heap)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total, total_err
        if nsub >= spec.max_subdivisions:
            raise QuadratureError(
                f"nd subdivision budget {spec.max_subdivisions} exhausted "
                f"(err={total_err:.3e})", estimate=total, error=total_err)
        nsplit = min(len(heap), 32)
        worst = [heapq.heappop(heap) for _ in range(nsplit)]
        cs, hs = [], []
        for _, _, c, h, _, _, ax in worst:
            h2 = h.copy()
            h2[ax] *= 0.5
            c1, c2 = c.copy(), c.copy()
            c1[ax] -= h2[ax]
            c2[ax] += h2[ax]
            cs += [c1, c2]
            hs += [h2, h2.copy()]
        vals, errs, axes = _gm_eval(f, np.array(cs), np.array(hs), d)
        for i in range(len(cs)):
            heapq.heappush(heap, (-errs[i], count, cs[i], hs[i], vals[i], errs[i], axes[i]))
            count += 1
        nsub += nsplit


_RETARDED_MAX_ITER = 100


def retarded_time_solve(traj, x, t):
    """Retarded time t_r in [0, t] with |x - x_el(t_r)| = t - t_r.

    Uniqueness holds because the source speed is < 1 (the defect
    g(t_r) = (t - t_r) - |x - x_el(t_r)| is strictly decreasing).  Points the
    signal has not reached yet (g(0) < 0) get NaN, meaning "no contribution".
    Vectorized over x of shape (N, 3); t may be scalar or (N,).

    Safeguarded Newton iteration (rtsafe, Numerical Recipes 9.4) from the
    static guess t - |x - x_el(t)|: the slope g' = -1 + n.v comes with the
    position, a step that leaves the bracket [lo, hi] falls back to its
    midpoint, and only unconverged points are iterated.  A point stops when
    its step is below 4 eps t or its defect is at rounding level.
    Returns (t_r, points, pos, vel): t_r of shape (N,), the indices of the
    reached points, and the source position and velocity (len(points), 3)
    at each one's last iterate, which lies within rounding of its t_r.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,)).astype(float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")

    pos0, _ = traj.point_velocity_extended(np.zeros(1))
    reached = t - np.linalg.norm(x - pos0, axis=-1) >= 0.0
    idx = np.flatnonzero(reached)
    pos, _ = traj.point_velocity_extended(t[idx])
    tr = np.full(n, np.nan)
    finished = [(idx[:0], np.empty((0, 3)), np.empty((0, 3)))]
    tr[idx] = np.clip(t[idx] - np.linalg.norm(x[idx] - pos, axis=-1), 0.0, t[idx])
    lo = np.zeros(n)
    hi = t.copy()
    eps = np.finfo(float).eps
    xtol = 4.0 * eps * t
    gtol = 8.0 * eps * (t + traj.radius)  # rounding level of the defect
    for _ in range(_RETARDED_MAX_ITER):
        if idx.size == 0:
            break
        ti = tr[idx]
        pos, vel = traj.point_velocity_extended(ti)
        rvec = x[idx] - pos
        r = np.linalg.norm(rvec, axis=-1)
        g = (t[idx] - ti) - r
        slope = np.einsum("ij,ij->i", rvec, vel) / np.where(r > 0.0, r, 1.0) - 1.0
        lo_i = np.where(g > 0.0, ti, lo[idx])
        hi_i = np.where(g < 0.0, ti, hi[idx])
        step = ti - g / slope
        # strict: a step onto the bracket edge (g = 0 there) is kept, not bisected
        bisect = (step < lo_i) | (step > hi_i)
        step = np.where(bisect, 0.5 * (lo_i + hi_i), step)
        done = (np.abs(step - ti) <= xtol[idx]) | (~bisect & (np.abs(g) <= gtol[idx]))
        tr[idx], lo[idx], hi[idx] = step, lo_i, hi_i
        if done.any():
            # kept in finishing order: a scatter into (N, 3) arrays costs
            # more than evaluating the trajectory again
            finished.append((idx[done], pos.compress(done, axis=0),
                             vel.compress(done, axis=0)))
        idx = idx[~done]
    if idx.size:
        raise QuadratureError(
            f"retarded-time solve did not converge in {_RETARDED_MAX_ITER} "
            f"iterations at {idx.size} points")
    return (tr,) + tuple(np.concatenate(parts) for parts in zip(*finished))


def loglog_slope(samples):
    """Least-squares slope of log y against log x; needs 3+ positive samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 3:
        raise ValueError("need at least 3 (x, y) samples")
    x, y = samples[:, 0], samples[:, 1]
    dx = np.diff(x)
    if not (np.all(dx > 0) or np.all(dx < 0)):
        raise ValueError("x must be strictly monotone")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("loglog_slope requires positive x and y")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
