"""Numerical kernels: quadrature rules, principal values, retarded times.

gauss_legendre is the package's fixed-node rule: every Gauss-Legendre sum
takes its nodes and weights from it, and gauss_partial_matrix gives the
integrals from the left end of the interval to each of its nodes.
adaptive_nd (Genz-Malik) is the adaptive integrator; its integrands are
called vectorized, f(x) with x of shape (N, d) returning shape (N,), and
its subdivision order is deterministic for a fixed QuadratureSpec, so
results are reproducible run to run.  pv_integral_1d folds a principal
value into plain integrals for scipy's quad, which calls its integrand one
scalar at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "gauss_legendre",
    "gauss_partial_matrix",
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

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@functools.lru_cache(maxsize=None)
def _legendre_rule(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], as read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def gauss_partial_matrix(n: int) -> np.ndarray:
    """A[j, k] = Int_{-1}^{x_j} l_k, read-only, for the Lagrange basis l_k
    on the n Gauss nodes x of [-1, 1]: A @ f(x) integrates the interpolant
    of f from -1 to each node, exactly for polynomials of degree < n.  It is
    the A-matrix of the n-stage Gauss-Legendre Runge-Kutta method.

    The nodes are orthogonal for degree <= 2n - 1, so l_k = w_k Sum_m
    (m + 1/2) P_m(x_k) P_m, and Int_{-1}^x P_m = (P_{m+1} - P_{m-1})/(2m + 1)
    for m >= 1 (x + 1 for m = 0).
    """
    x, w = _legendre_rule(int(n))
    V = np.polynomial.legendre.legvander(x, n)
    A = w * (0.5 * (1 + x)[:, None] + 0.5 * (V[:, 2:] - V[:, :-2]) @ V[:, 1:n].T)
    A.flags.writeable = False
    return A


def gauss_legendre(lo, hi, n: int):
    """Nodes and weights, both of shape (..., n), of the n-point
    Gauss-Legendre rule on each interval [lo, hi] (lo and hi broadcast)."""
    x, w = _legendre_rule(int(n))
    lo, hi = (np.asarray(a, dtype=float)[..., None] for a in (lo, hi))
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * x, half * w


def pv_integral_1d(f, pole: float, bounds, spec: QuadratureSpec = QuadratureSpec()):
    """Principal value of scalar f over [a, b] with a simple pole at `pole`.

    Folded about the pole: with g = min(pole - a, b - pole),
    P Int_a^b f = Int_0^g [f(pole + u) + f(pole - u)] du + Int f over the
    part of [a, b] outside [pole - g, pole + g].  The 1/(z - pole) parts
    cancel in the folded sum, so it is bounded, and Gauss-Kronrod nodes
    never fall on u = 0.  A pole outside the interval leaves one plain
    integral; a pole at (or numerically on) an endpoint is rejected.
    Raises QuadratureError, with the estimate attached, when quad reports
    that a piece did not converge.
    """
    # imported here, not at module level: scipy.integrate adds about 25 MB
    # of peak memory and 0.15 s to every start of the command line, and no
    # stage calls this function
    from scipy.integrate import quad

    a, b = float(bounds[0]), float(bounds[1])
    if b <= a:
        raise ValueError("bounds must satisfy a < b")
    gap = min(abs(pole - a), abs(b - pole))
    if gap <= 1e-13 * (b - a):
        raise ValueError("pole coincides with an integration endpoint")
    if a < pole < b:
        rest = (pole + gap, b) if pole - a < b - pole else (a, pole - gap)
        pieces = [(lambda u: f(pole + u) + f(pole - u), 0.0, gap), (f, *rest)]
    else:
        pieces = [(f, a, b)]
    outs = [quad(g, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                 limit=spec.max_subdivisions, full_output=1)
            for g, lo, hi in pieces]
    value = sum(out[0] for out in outs)
    for (_, lo, hi), out in zip(pieces, outs):
        # a fourth element is quad's message that the piece did not converge
        if len(out) > 3:
            raise QuadratureError(
                f"principal value: quad on [{lo:.6g}, {hi:.6g}]: {out[3]}",
                estimate=value, error=sum(o[1] for o in outs))
    return value


# Genz-Malik degree-7 rule with embedded degree-5 estimate, d in {2, 3, 4}
_L2 = np.sqrt(9.0 / 70.0)
_L3 = np.sqrt(9.0 / 10.0)
_L4 = np.sqrt(9.0 / 10.0)
_L5 = np.sqrt(9.0 / 19.0)


def _gm_rule(d: int):
    """Unit-cube [-1,1]^d points (npts, d) and the two weight vectors; point
    0 is the center, points 1+4i..4+4i lie on axis i at +L2, -L2, +L3, -L3."""
    pts = [np.zeros(d)]
    w7 = [2**d * (12824.0 - 9120.0 * d + 400.0 * d * d) / 19683.0]
    w5 = [2**d * (729.0 - 950.0 * d + 50.0 * d * d) / 729.0]
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
    # split along the axis with the largest scaled fourth difference
    f0 = vals[:, :1]
    axis_vals = vals[:, 1:1 + 4 * d].reshape(nbox, d, 4)
    d2 = axis_vals[..., 0] + axis_vals[..., 1] - 2 * f0
    d3 = axis_vals[..., 2] + axis_vals[..., 3] - 2 * f0
    axes = np.argmax(np.abs(d2 - _L2**2 / _L3**2 * d3), axis=1)
    return i7, np.abs(i7 - i5), axes


def adaptive_nd(f, box, spec: QuadratureSpec = QuadratureSpec(),
                initial_grid=None):
    """Adaptive Genz-Malik cubature over a hyperrectangle, d in {2, 3, 4}.

    box is a sequence of (lo, hi) pairs.  f is vectorized over an (N, d)
    array of points.  initial_grid (per-dimension cell counts) pre-splits
    the domain so structure finer than the root box cannot alias to a
    spuriously small error estimate.  Returns (value, error_estimate); on
    budget exhaustion raises QuadratureError with the best estimate attached.

    Split order: boxes are rows in creation order.  Each pass halves the 32
    boxes of largest error (ties to the older box) along their split axes
    and appends the halves, lower first.  f sees every initial box in its
    first call, and the halves of one pass in each later call.
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
    new = (0.5 * (los + his), 0.5 * (his - los))
    # centers, half-widths, values, errors, split axes
    boxes = (np.empty((0, d)), np.empty((0, d)), np.empty(0), np.empty(0),
             np.empty(0, dtype=int))
    nsub = 0
    while True:
        boxes = tuple(np.concatenate(pair)
                      for pair in zip(boxes, new + _gm_eval(f, *new, d)))
        centers, halfw, vals, errs, axes = boxes
        total, total_err = np.sum(vals), np.sum(errs)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total, total_err
        if nsub >= spec.max_subdivisions:
            raise QuadratureError(
                f"nd subdivision budget {spec.max_subdivisions} exhausted "
                f"(err={total_err:.3e})", estimate=total, error=total_err)
        split = np.argsort(-errs, kind="stable")[:32]
        at = (np.arange(split.size), axes[split])
        h = halfw[split]
        h[at] *= 0.5
        lower, upper = centers[split], centers[split]
        lower[at] -= h[at]
        upper[at] += h[at]
        new = (np.stack([lower, upper], axis=1).reshape(-1, d), np.repeat(h, 2, axis=0))
        keep = np.ones(errs.size, dtype=bool)
        keep[split] = False
        boxes = tuple(a[keep] for a in boxes)
        nsub += split.size


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
