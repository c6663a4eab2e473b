import heapq

import numpy as np
import pytest

from abtroika import quadrature
from abtroika.geometry import Sense, TrajectoryHalfCircle
from abtroika.quadrature import (
    QuadratureError,
    QuadratureSpec,
    adaptive_nd,
    gauss_legendre,
    gauss_partial_matrix,
    loglog_slope,
    pv_integral_1d,
    retarded_time_solve,
)


def pv_unit_interval_closed_form(alpha):
    """P int_0^1 dz / (z^2 - alpha^2), valid on both sides of |alpha| = 1."""
    al = abs(alpha)
    return np.log(abs((1 - al) / (1 + al))) / (2 * al)


def pv_unit_interval_z_closed_form(alpha):
    """P int_0^1 z dz / (z^2 - alpha^2)."""
    al = abs(alpha)
    return np.log(1 + al) - np.log(al) + 0.5 * np.log(abs((1 - al) / (1 + al)))


def test_pv_even_kernel_alpha_half():
    val = pv_integral_1d(lambda z: 1.0 / (z**2 - 0.25), 0.5, (0.0, 1.0))
    expected = pv_unit_interval_closed_form(0.5)
    np.testing.assert_allclose(val, expected, atol=1e-9)
    np.testing.assert_allclose(expected, -1.09861228866810969, rtol=1e-12)


def test_pv_symmetric_simple_pole_vanishes():
    val = pv_integral_1d(lambda z: 1.0 / (z - 0.5), 0.5, (0.0, 1.0))
    assert abs(val) < 1e-9


def test_pv_odd_kernel_alpha_03():
    val = pv_integral_1d(lambda z: z / (z**2 - 0.09), 0.3, (0.0, 1.0))
    expected = pv_unit_interval_z_closed_form(0.3)
    np.testing.assert_allclose(val, expected, atol=1e-9)
    np.testing.assert_allclose(expected, np.log(1.3) - np.log(0.3) + 0.5 * np.log(0.7 / 1.3),
                               rtol=1e-14)


def test_pv_random_alphas_both_kernels():
    rng = np.random.default_rng(42)
    for alpha in rng.uniform(0.05, 0.95, 20):
        v1 = pv_integral_1d(lambda z: 1.0 / (z**2 - alpha**2), alpha, (0.0, 1.0))
        np.testing.assert_allclose(v1, pv_unit_interval_closed_form(alpha), atol=1e-8,
                                   err_msg=f"alpha={alpha}")
        v2 = pv_integral_1d(lambda z: z / (z**2 - alpha**2), alpha, (0.0, 1.0))
        np.testing.assert_allclose(v2, pv_unit_interval_z_closed_form(alpha), atol=1e-8,
                                   err_msg=f"alpha={alpha}")


@pytest.mark.parametrize("alpha", [1e-3, 0.999])
def test_pv_pole_near_endpoint_both_kernels(alpha):
    v1 = pv_integral_1d(lambda z: 1.0 / (z**2 - alpha**2), alpha, (0.0, 1.0))
    np.testing.assert_allclose(v1, pv_unit_interval_closed_form(alpha), rtol=0, atol=1e-8)
    v2 = pv_integral_1d(lambda z: z / (z**2 - alpha**2), alpha, (0.0, 1.0))
    np.testing.assert_allclose(v2, pv_unit_interval_z_closed_form(alpha), rtol=0, atol=1e-8)


def test_pole_outside_interval_plain_quadrature():
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(1.05, 3.0, 10):
        v = pv_integral_1d(lambda z: 1.0 / (z**2 - alpha**2), alpha, (0.0, 1.0))
        np.testing.assert_allclose(v, pv_unit_interval_closed_form(alpha), atol=1e-8)


def test_pv_pole_on_endpoint_rejected():
    with pytest.raises(ValueError):
        pv_integral_1d(lambda z: 1.0 / z, 0.0, (0.0, 1.0))


def test_pv_budget_error_carries_estimate():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=8)
    with pytest.raises(QuadratureError) as exc:
        pv_integral_1d(lambda z: np.sin(50 * z) ** 2 / (z - 3.0), 3.0, (0.0, 10.0), spec)
    assert exc.value.estimate is not None


@pytest.mark.parametrize("n", [8, 32])
def test_gauss_legendre_exact_to_degree_2n_minus_1(n):
    rng = np.random.default_rng(n)
    lo = rng.uniform(-1.0, 0.5, 6)
    hi = lo + rng.uniform(0.05, 0.5, 6)
    coef = rng.normal(size=2 * n)  # degree 2n - 1
    nodes, weights = gauss_legendre(lo, hi, n)
    assert nodes.shape == weights.shape == (6, n)
    poly = np.polynomial.Polynomial(coef)
    exact = poly.integ()(hi) - poly.integ()(lo)
    np.testing.assert_allclose(np.sum(weights * poly(nodes), axis=-1), exact,
                               rtol=1e-12, atol=1e-15)


def test_gauss_legendre_on_the_unit_interval_is_numpys_rule():
    x, w = np.polynomial.legendre.leggauss(8)
    nodes, weights = gauss_legendre(-1.0, 1.0, 8)
    assert nodes.shape == (8,)
    np.testing.assert_array_equal(nodes, x)
    np.testing.assert_array_equal(weights, w)


def test_gauss_legendre_broadcasts_scalar_lo_against_array_hi():
    hi = np.array([0.5, 1.0, 3.0])
    nodes, weights = gauss_legendre(0.25, hi, 8)
    assert nodes.shape == weights.shape == (3, 8)
    for row, h in enumerate(hi):
        one = gauss_legendre(0.25, h, 8)
        np.testing.assert_array_equal(nodes[row], one[0])
        np.testing.assert_array_equal(weights[row], one[1])
    np.testing.assert_allclose(weights.sum(axis=-1), hi - 0.25, rtol=1e-14)


def test_gauss_legendre_cached_rule_is_read_only():
    x, w = quadrature._legendre_rule(8)
    assert quadrature._legendre_rule(8)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    # the mapped nodes and weights are new arrays the caller may change
    nodes, weights = gauss_legendre(-1.0, 1.0, 8)
    nodes[0] = weights[0] = 5.0
    np.testing.assert_array_equal(quadrature._legendre_rule(8)[0],
                                  np.polynomial.legendre.leggauss(8)[0])


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_gauss_partial_matrix_integrates_to_each_node(n):
    x, w = np.polynomial.legendre.leggauss(n)
    A = gauss_partial_matrix(n)
    assert A.shape == (n, n)
    # exact for every x^k, k <= n - 1, on each [-1, x_j]
    for k in range(n):
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        np.testing.assert_allclose(A @ x**k, exact, rtol=0, atol=1e-14)
    np.testing.assert_allclose(A.sum(axis=1), x + 1, rtol=0, atol=1e-14)
    # the Gauss Runge-Kutta condition b^T A = b (1 - c) on [-1, 1]
    np.testing.assert_allclose(w @ A, w * (1 - x), rtol=0, atol=1e-14)


def test_gauss_partial_matrix_cached_and_read_only():
    A = gauss_partial_matrix(8)
    assert gauss_partial_matrix(8) is A
    with pytest.raises(ValueError):
        A[0, 0] = 0.0


def test_adaptive_nd_product_2d():
    val, err = adaptive_nd(lambda p: p[:, 0] * p[:, 1], [(0, 1), (0, 1)])
    np.testing.assert_allclose(val, 0.25, atol=1e-10)
    assert err <= 1e-8 + 1e-8 * abs(val) or err < 1e-6


def test_adaptive_nd_separable_3d():
    f = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) * np.sin(np.pi * p[:, 2])
    val, err = adaptive_nd(f, [(0, 1)] * 3, QuadratureSpec(abs_tol=1e-10, rel_tol=1e-9))
    np.testing.assert_allclose(val, (2 / np.pi) ** 3, rtol=1e-9)


def test_adaptive_nd_4d_gaussian():
    f = lambda p: np.exp(-np.sum(p**2, axis=1))
    val, err = adaptive_nd(f, [(0, 1)] * 4, QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8))
    from math import erf, pi
    expected = (np.sqrt(pi) / 2 * erf(1.0)) ** 4
    np.testing.assert_allclose(val, expected, rtol=1e-8)
    assert abs(val - expected) <= 10 * max(err, 1e-12)


def test_adaptive_nd_error_bounds_true_error():
    cases = [
        (lambda p: np.cos(3 * p[:, 0]) * p[:, 1] ** 2, [(0, 2), (0, 1)],
         np.sin(6.0) / 3.0 * (1.0 / 3.0)),
        (lambda p: np.exp(p[:, 0] - p[:, 1]), [(0, 1), (0, 1)],
         (np.e - 1) * (1 - 1 / np.e)),
    ]
    for f, box, exact in cases:
        val, err = adaptive_nd(f, box)
        assert abs(val - exact) <= max(err, 1e-12) * 5


def test_adaptive_nd_monte_carlo_cross_check():
    # smeared cross-term integrand (reduced variables) at beta = 0.2:
    # a smooth-but-structured 2D integrand with integrable log lines,
    # cross-checked against a 10^7-sample Monte Carlo oracle to 1%
    beta, lam = 0.2, 1.0

    def integrand(p):
        z, t = p[:, 0], p[:, 1]
        D = np.sqrt((2 * beta / np.pi) ** 2 * np.sin(np.pi * t / 2) ** 2
                    + (beta * lam * z / np.pi) ** 2)
        w = np.minimum(t, 2.0 - t)
        Ds = np.where(D == 0, 1.0, D)
        val = (1 - z) * np.cos(np.pi * t) * np.log(np.abs((Ds + w) / (Ds - w))) / (2 * Ds)
        return np.where(D == 0, 0.0, val)

    box = [(0.0, 1.0), (0.0, 2.0)]
    spec = QuadratureSpec(abs_tol=1e-3, rel_tol=1e-4, max_subdivisions=6000)
    val, err = adaptive_nd(integrand, box, spec, initial_grid=(8, 16))
    rng = np.random.default_rng(2024)
    n = 10_000_000
    pts = np.column_stack([rng.uniform(0, 1, n), rng.uniform(0, 2, n)])
    samples = integrand(pts)
    mc = 2.0 * samples.mean()  # box volume 2
    mc_err = 2.0 * samples.std() / np.sqrt(n)
    assert abs(val - mc) < max(0.01 * abs(val), 4 * mc_err), \
        f"adaptive={val:.6g} vs MC={mc:.6g} +- {mc_err:.2g}"


def heap_gm_eval(f, centers, halfw, d):
    """The earlier Genz-Malik box evaluation, with its loop over split axes."""
    upts, w7, w5 = quadrature._GM_CACHE[d]
    nbox = centers.shape[0]
    pts = centers[:, None, :] + halfw[:, None, :] * upts[None, :, :]
    vals = np.asarray(f(pts.reshape(-1, d)), dtype=float).reshape(nbox, -1)
    volfac = np.prod(halfw, axis=1)
    i7 = volfac * (vals @ w7)
    i5 = volfac * (vals @ w5)
    f0 = vals[:, 0]
    ratio = quadrature._L2**2 / quadrature._L3**2
    diffs = np.empty((nbox, d))
    for i in range(d):
        base = 1 + 4 * i
        d2 = vals[:, base] + vals[:, base + 1] - 2 * f0
        d3 = vals[:, base + 2] + vals[:, base + 3] - 2 * f0
        diffs[:, i] = np.abs(d2 - ratio * d3)
    return i7, np.abs(i7 - i5), np.argmax(diffs, axis=1)


def heap_adaptive_nd(f, box, spec=QuadratureSpec(), initial_grid=None):
    """The earlier heap-based adaptive_nd, kept as the split-order oracle:
    boxes are popped by the key (-error, creation count) and each split box
    is evaluated as its lower half, then its upper half."""
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    if initial_grid is None:
        initial_grid = (1,) * d
    edges = [np.linspace(box[i, 0], box[i, 1], initial_grid[i] + 1) for i in range(d)]
    los = np.stack([g.ravel() for g in np.meshgrid(*[e[:-1] for e in edges],
                                                   indexing="ij")], axis=-1)
    his = np.stack([g.ravel() for g in np.meshgrid(*[e[1:] for e in edges],
                                                   indexing="ij")], axis=-1)
    centers = 0.5 * (los + his)
    halfw = 0.5 * (his - los)
    vals, errs, axes = heap_gm_eval(f, centers, halfw, d)
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
            raise QuadratureError("budget exhausted", estimate=total, error=total_err)
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
        vals, errs, axes = heap_gm_eval(f, np.array(cs), np.array(hs), d)
        for i in range(len(cs)):
            heapq.heappush(heap, (-errs[i], count, cs[i], hs[i], vals[i], errs[i], axes[i]))
            count += 1
        nsub += nsplit


def _oscillatory_2d(p):
    return np.cos(40 * p[:, 0] * p[:, 1]) * np.exp(-p[:, 1])


@pytest.mark.parametrize("f, box, spec, grid, raises", [
    # a 2-D Gaussian
    (lambda p: np.exp(-20 * np.sum((p - 0.3) ** 2, axis=1)), [(0, 1), (0, 1)],
     QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10), None, False),
    # mirror-symmetric cusps on grid lines: many boxes with equal errors
    (lambda p: np.sqrt(np.abs(p[:, 0] - 0.5)) + np.sqrt(np.abs(p[:, 1] - 0.5)),
     [(0, 1), (0, 1)], QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9), (4, 4), False),
    # near-singular in 3-D, budget exhausted
    (lambda p: 1.0 / np.sqrt(np.sum(p**2, axis=1) + 1e-4), [(0, 1)] * 3,
     QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=800), None, True),
    # 4-D, budget exhausted
    (lambda p: np.exp(-30 * np.sum((p - 0.5) ** 2, axis=1)), [(0, 1)] * 4,
     QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=200), None, True),
    # oscillatory on a pre-split grid, budget exhausted
    (_oscillatory_2d, [(0, 1), (0, 2)],
     QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=600), (8, 16), True),
])
def test_adaptive_nd_matches_heap_split_order(f, box, spec, grid, raises):
    # the flat-array kernel must split the same boxes in the same order as
    # the heap it replaced: every integrand batch byte-identical, and the
    # totals equal up to summation order
    batches = {"flat": [], "heap": []}
    results = {}
    for name, kernel in (("flat", adaptive_nd), ("heap", heap_adaptive_nd)):
        def recorded(x, rows=batches[name]):
            rows.append(np.array(x).tobytes())
            return f(x)
        try:
            results[name] = kernel(recorded, box, spec, initial_grid=grid)
        except QuadratureError as exc:
            results[name] = ("raised", exc.estimate, exc.error)
    assert len(batches["flat"]) == len(batches["heap"]) > 1
    assert batches["flat"] == batches["heap"]
    flat, heap = results["flat"], results["heap"]
    assert (flat[0] == "raised") == (heap[0] == "raised") == raises
    np.testing.assert_allclose(np.array(flat[-2:], dtype=float),
                               np.array(heap[-2:], dtype=float), rtol=1e-13)


def test_adaptive_nd_first_call_covers_the_initial_grid():
    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.sin(5 * x[:, 0]) * x[:, 1] ** 3

    adaptive_nd(f, [(0, 1), (0, 1)], QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12),
                initial_grid=(3, 5))
    per_box = sizes[0] // 15
    assert sizes[0] == 15 * per_box
    assert all(n % (2 * per_box) == 0 and n <= 64 * per_box for n in sizes[1:])


def test_retarded_time_on_trajectory():
    traj = TrajectoryHalfCircle(1.0, 0.2, Sense.RIGHT)
    t = 0.4 * traj.traverse_time
    pos, _ = traj.point_velocity_extended(np.asarray(t))
    tr = retarded_time_solve(traj, pos.reshape(1, 3), t)[0]
    np.testing.assert_allclose(tr, t, atol=1e-10)


def test_retarded_time_static_limit():
    traj = TrajectoryHalfCircle(1.0, 1e-6, Sense.RIGHT)
    x = np.array([[0.0, -1.0, 3.0]])  # distance 3 from the (nearly static) start
    t = 5.0
    tr = retarded_time_solve(traj, x, t)[0]
    np.testing.assert_allclose(tr, t - 3.0, atol=1e-5)


def test_retarded_time_not_reached_is_nan():
    traj = TrajectoryHalfCircle(1.0, 0.2, Sense.RIGHT)
    x = np.array([[100.0, 0.0, 0.0]])
    tr = retarded_time_solve(traj, x, 1.0)[0]
    assert np.isnan(tr).all()


def test_retarded_time_against_grid_scan():
    traj = TrajectoryHalfCircle(1.0, 0.6, Sense.RIGHT)
    T = traj.traverse_time
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, (6, 3))
    t = 0.9 * T
    tr = retarded_time_solve(traj, pts, t)[0]
    # brute-force scan oracle
    grid = np.linspace(0.0, t, 1_000_001)
    pos, _ = traj.point_velocity_extended(grid)
    for i, p in enumerate(pts):
        g = (t - grid) - np.linalg.norm(p - pos, axis=-1)
        if g[0] < 0:
            assert np.isnan(tr[i])
            continue
        idx = np.argmin(np.abs(g))
        assert abs(tr[i] - grid[idx]) < 2e-6  # grid resolution limited
        # solver residual is far tighter than the scan
        pr, _ = traj.point_velocity_extended(np.array([tr[i]]))
        resid = abs(np.linalg.norm(p - pr[0]) - (t - tr[i]))
        assert resid < 1e-10


def _bisection_retarded_time(traj, x, t, iterations=70):
    """Reference solver: fixed-step bisection of the retarded-time defect."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],)).astype(float)

    def defect(tr):
        pos, _ = traj.point_velocity_extended(tr)
        return (t - tr) - np.linalg.norm(x - pos, axis=-1)

    lo = np.zeros(len(t))
    hi = t.copy()
    reached = defect(lo) >= 0.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        take_hi = defect(mid) >= 0.0
        lo = np.where(take_hi, mid, lo)
        hi = np.where(take_hi, hi, mid)
    return np.where(reached, 0.5 * (lo + hi), np.nan)


def _record_calls(monkeypatch, *methods):
    """List that receives, in call order, the number of times of every call
    of the listed trajectory methods (the times are the last argument).

    One solve makes, in order: the front test at t = 0
    (point_velocity_extended), the static guess and one call per Newton
    pass (separation), and the source terms at t_r (source_terms).  When
    every reached point shares one time, the static guess is taken at that
    one time."""
    sizes = []

    def counted(original):
        def call(self, *args):
            sizes.append(np.size(args[-1]))
            return original(self, *args)
        return call

    for method in methods:
        monkeypatch.setattr(TrajectoryHalfCircle, method,
                            counted(getattr(TrajectoryHalfCircle, method)))
    return sizes


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.9])
@pytest.mark.parametrize("eta", [0.0, 0.01])
@pytest.mark.parametrize("t_over_T", [0.0, 0.01, 1.0, 1.0 + 5e-4])
def test_retarded_time_newton_matches_bisection(monkeypatch, beta, eta, t_over_T):
    traj = TrajectoryHalfCircle(1.0, beta, Sense.RIGHT, ramp_fraction=eta)
    t = t_over_T * traj.traverse_time
    start = traj.point_velocity_extended(np.zeros(1))[0][0]
    rng = np.random.default_rng(7)
    half = 1.2 * max(t, 0.05)
    cloud = start + rng.uniform(-half, half, (1500, 3))
    # points on the start-up front, where g(0) is zero up to rounding
    dirs = rng.normal(size=(300, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    scale = 1.0 + np.linspace(-4, 4, 300) * np.finfo(float).eps
    front = start + (t * scale)[:, None] * dirs
    x = np.vstack([cloud, front, start[None, :]])

    calls = _record_calls(monkeypatch, "separation")
    tr = retarded_time_solve(traj, x, t)[0]
    guess, passes = calls[0], calls[1:]

    ref = _bisection_retarded_time(traj, x, t)
    np.testing.assert_array_equal(np.isnan(tr), np.isnan(ref))
    ok = ~np.isnan(ref)
    assert ok.any()
    assert np.all(np.abs(tr[ok] - ref[ok]) <= 1e-13 * t)
    assert np.all((tr[ok] >= 0.0) & (tr[ok] <= t))
    # the static guess at the one time t, then Newton passes on shrinking
    # subsets of the reached points
    assert guess == 1
    assert 1 <= len(passes) < quadrature._RETARDED_MAX_ITER
    assert passes[0] == ok.sum()
    assert all(b <= a for a, b in zip(passes, passes[1:]))
    assert sum(passes) < 8 * len(x)


def test_retarded_time_iterates_only_unconverged_points(monkeypatch):
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.01)
    t = traj.traverse_time
    x = np.random.default_rng(3).uniform(-4, 4, (4000, 3))
    points = _record_calls(monkeypatch, "point_velocity_extended", "separation",
                           "source_terms")
    reached = retarded_time_solve(traj, x, t)[1].size
    # the front test and the static guess each at one time
    assert points[:2] == [1, 1] and points[-1] == reached
    passes = points[2:-1]
    assert passes and passes[0] == reached
    # every later pass works on a shrinking subset; bisection would spend 71 N
    assert all(b <= a for a, b in zip(passes, passes[1:]))
    assert sum(points) < 8 * len(x)


def _record_rows_and_times(monkeypatch):
    """List that receives, in call order, (method, rows of x, number of
    times) for every point_velocity_extended, separation and source_terms
    call of the trajectory (rows is None for point_velocity_extended)."""
    calls = []

    def counted(name, original):
        def call(self, *args):
            rows = np.shape(args[0])[0] if len(args) == 2 else None
            calls.append((name, rows, np.size(args[-1])))
            return original(self, *args)
        return call

    for name in ("point_velocity_extended", "separation", "source_terms"):
        monkeypatch.setattr(TrajectoryHalfCircle, name,
                            counted(name, getattr(TrajectoryHalfCircle, name)))
    return calls


@pytest.mark.parametrize("eta", [0.0, 0.01])
def test_retarded_time_one_time_takes_one_source_position(monkeypatch, eta):
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=eta)
    t = traj.traverse_time
    x = np.random.default_rng(8).uniform(-6, 6, (3000, 3))
    calls = _record_rows_and_times(monkeypatch)
    tr, points, _ = retarded_time_solve(traj, x, t)
    n = points.size
    assert 0 < n < len(x)
    # the front test at t = 0, the source position at the one time t for
    # the static guess, one separation per Newton pass at the unconverged
    # points and their own times, and the source terms at t_r
    assert calls[0] == ("point_velocity_extended", None, 1)
    assert calls[1] == ("separation", n, 1)
    assert calls[-1] == ("source_terms", n, n)
    passes = calls[2:-1]
    assert passes and all(name == "separation" and rows == size
                          for name, rows, size in passes)
    sizes = [size for _, _, size in passes]
    assert sizes[0] == n and all(b <= a for a, b in zip(sizes, sizes[1:]))

    # unequal times take the static guess at every point's own time; the
    # shared points' t_r agree within the float-bisection bound
    extra = np.array([[0.2, -0.9, 0.1]])
    calls.clear()
    tr_mixed = retarded_time_solve(traj, np.vstack([x, extra]),
                                   np.append(np.full(len(x), t), 0.5 * t))[0]
    assert calls[1] == ("separation", n + 1, n + 1)
    assert np.isfinite(tr_mixed[-1])
    np.testing.assert_array_equal(np.isnan(tr_mixed[:-1]), np.isnan(tr))
    ok = ~np.isnan(tr)
    assert np.all(np.abs(tr_mixed[:-1][ok] - tr[ok]) <= 8 * np.finfo(float).eps * t)


def test_retarded_time_looks_up_positions_at_most_twice(monkeypatch):
    # once for the front test, once for the source terms at t_r
    traj = TrajectoryHalfCircle(1.0, 0.3, Sense.RIGHT, ramp_fraction=0.01)
    x = np.random.default_rng(4).uniform(-6, 6, (2000, 3))
    calls = _record_calls(monkeypatch, "point_velocity_extended", "source_terms")
    reached = retarded_time_solve(traj, x, traj.traverse_time)[1].size
    assert 0 < reached < len(x)
    assert calls == [1, reached]


@pytest.mark.parametrize("beta", [0.1, 0.9])
def test_retarded_time_state_is_source_at_retarded_time(beta):
    traj = TrajectoryHalfCircle(1.0, beta, Sense.RIGHT, ramp_fraction=0.01)
    t = traj.traverse_time
    x = np.random.default_rng(5).uniform(-1.5 * t, 1.5 * t, (3000, 3))
    tr, points, terms = retarded_time_solve(traj, x, t)
    reached = np.flatnonzero(~np.isnan(tr))
    assert 0 < reached.size < len(x)
    np.testing.assert_array_equal(points, reached)
    ref = traj.source_terms(x[points], tr[points])
    assert len(terms) == len(ref) == 6
    for got, want in zip(terms, ref):
        np.testing.assert_array_equal(got, want)


def _float_bisection_retarded_time(traj, x, t):
    """Reference solver: bisection of the retarded-time defect, formed from
    point_velocity_extended and a norm, until lo and hi are adjacent
    floats (or equal)."""
    t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],)).astype(float)

    def defect(tr, i):
        pos, _ = traj.point_velocity_extended(tr)
        return (t[i] - tr) - np.linalg.norm(x[i] - pos, axis=-1)

    every = np.arange(len(t))
    reached = defect(np.zeros(len(t)), every) >= 0.0
    lo = np.zeros(len(t))
    hi = t.copy()
    i = every[reached]
    while i.size:
        mid = 0.5 * (lo[i] + hi[i])
        split = (mid > lo[i]) & (mid < hi[i])
        i, mid = i[split], mid[split]
        take_hi = defect(mid, i) >= 0.0
        lo[i[take_hi]] = mid[take_hi]
        hi[i[~take_hi]] = mid[~take_hi]
    return np.where(reached, lo, np.nan)


def _stop_rule_points(traj, t, rng):
    """Field points at time t near the orbit, near the start-up front (on
    both sides, the reached ones with t_r in the ramp) and far away."""
    n = 600

    def directions(m):
        d = rng.normal(size=(m, 3))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    pos, _ = traj.point_velocity_extended(rng.uniform(0.0, t, n))
    near_orbit = pos + 10.0 ** rng.uniform(-4, -0.5, n)[:, None] * directions(n)
    start = traj.point_velocity_extended(np.zeros(1))[0][0]
    depth = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, -1, n)
    front = start + (t * (1.0 - depth))[:, None] * directions(n)
    far = rng.uniform(0.5, 0.95, n)[:, None] * t * directions(n)
    return np.vstack([near_orbit, front, far])


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.9])
@pytest.mark.parametrize("eta", [0.01, 0.2])
def test_retarded_time_stop_rule_matches_float_bisection(monkeypatch, beta, eta):
    # the predicted-convergence stop accepts a Newton step only when the
    # bound puts its iterate within 4 eps t of the root: every t_r stays
    # within 8 eps t of bisection to adjacent floats, while the passes that
    # only confirm a converged step are skipped
    traj = TrajectoryHalfCircle(1.0, beta, Sense.RIGHT, ramp_fraction=eta)
    t = traj.traverse_time
    x = _stop_rule_points(traj, t, np.random.default_rng(int(100 * beta + 10 * eta)))
    calls = _record_calls(monkeypatch, "separation")
    tr = retarded_time_solve(traj, x, t)[0]
    pass_points = sum(calls[1:])  # calls[0] is the static guess

    ref = _float_bisection_retarded_time(traj, x, t)
    np.testing.assert_array_equal(np.isnan(tr), np.isnan(ref))
    ok = ~np.isnan(ref)
    assert 0.5 * len(x) < ok.sum() < len(x)
    assert np.all(np.abs(tr[ok] - ref[ok]) <= 8 * np.finfo(float).eps * t)

    # confirm-only: with no bound on the acceleration no step is predicted
    monkeypatch.setattr(TrajectoryHalfCircle, "acceleration_bound",
                        lambda self, s: np.full(np.shape(s), np.inf))
    calls.clear()
    with np.errstate(invalid="ignore"):  # inf * 0 for a zero step
        tr_confirm = retarded_time_solve(traj, x, t)[0]
    np.testing.assert_array_equal(np.isnan(tr_confirm), np.isnan(ref))
    assert np.all(np.abs(tr_confirm[ok] - ref[ok]) <= 8 * np.finfo(float).eps * t)
    assert pass_points <= 0.85 * sum(calls[1:])


def test_loglog_slope_powers():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert abs(loglog_slope(np.stack([x, x**2], axis=1)) - 2.0) < 1e-12
    assert abs(loglog_slope(np.stack([x, 7.0 / x], axis=1)) + 1.0) < 1e-12


def test_loglog_slope_perturbed_linear():
    x = np.linspace(1, 10, 40)
    y = x * (1 + 0.01 * np.sin(x))
    s = loglog_slope(np.stack([x, y], axis=1))
    assert abs(s - 1.0) < 0.02


def test_loglog_slope_domain_errors():
    with pytest.raises(ValueError):
        loglog_slope([[1.0, 1.0], [2.0, -1.0], [3.0, 2.0]])
    with pytest.raises(ValueError):
        loglog_slope([[1.0, 1.0], [1.0, 2.0], [3.0, 2.0]])
    with pytest.raises(ValueError):
        loglog_slope([[1.0, 1.0], [2.0, 2.0]])
