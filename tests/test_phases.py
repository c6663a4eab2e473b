import dataclasses

import numpy as np
import pytest

from abtroika import phases
from abtroika.fields import a_dot_electron, a_electron_retarded, a_solenoid
from abtroika.geometry import (
    Sense,
    SmearingProfile,
    SmearKind,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
)
from abtroika.phases import (
    arc_path,
    assemble_phase_report,
    circle_path,
    interference_probability,
    phi1,
    phi21,
    phi22,
    phi_ab_loop,
)

IDEAL = SolenoidModel(0.5, 1.0, SolenoidKind.IDEAL_INFINITE)
LOOPS = SolenoidModel(0.5, 1.0, SolenoidKind.FINITE_LOOPS, n_loops=200, length=20.0)
POINT = SmearingProfile()


def traj(beta=0.05, sense=Sense.RIGHT, eta=0.0):
    return TrajectoryHalfCircle(1.0, beta, sense, ramp_fraction=eta)


# ---------------------------------------------------------------- phi_ab_loop

def test_loop_full_circle_ideal():
    val = phi_ab_loop(IDEAL, circle_path(1.0), n=256)
    np.testing.assert_allclose(val, IDEAL.flux, atol=1e-12)


def test_loop_not_enclosing_is_zero():
    val = phi_ab_loop(IDEAL, circle_path(0.2, center=(2.0, 0.0)), n=256)
    assert abs(val) < 1e-12


def test_half_circle_arc_gives_half_shift():
    val = phi_ab_loop(IDEAL, arc_path(1.0, -np.pi / 2, np.pi / 2), n=64, closed=False)
    np.testing.assert_allclose(val, 0.5 * IDEAL.flux, atol=1e-10)


def test_loop_through_solenoid_body_rejected():
    with pytest.raises(ValueError):
        phi_ab_loop(IDEAL, circle_path(0.2), n=64)


def test_loop_finite_loops_close_to_ideal():
    val = phi_ab_loop(LOOPS, circle_path(1.0), n=256)
    assert abs(val / LOOPS.flux - 1.0) < 0.02


# --------------------------------------------------------------------- phi21

def test_phi21_quarter_shift_ideal():
    assert abs(phi21(traj(), IDEAL) - 0.25) < 1e-10


def test_phi21_left_antisymmetric():
    np.testing.assert_allclose(phi21(traj(sense=Sense.LEFT), IDEAL), -0.25, atol=1e-10)


def test_phi21_finite_loops_within_2pct():
    assert abs(phi21(traj(), LOOPS) / 0.25 - 1.0) < 0.02


def test_phi21_flux_linearity():
    double = dataclasses.replace(IDEAL, flux=2.0)
    np.testing.assert_allclose(phi21(traj(), double), 2 * phi21(traj(), IDEAL),
                               rtol=1e-12)


def test_phi21_requires_exterior_orbit():
    tight = SolenoidModel(1.5, 1.0, SolenoidKind.IDEAL_INFINITE)
    with pytest.raises(ValueError):
        phi21(traj(), tight)


# --------------------------------------------------------------------- phi22

def test_phi22_matches_phi21_nonrelativistic():
    tr = traj(beta=0.01)
    p22 = phi22(tr, POINT, LOOPS)
    p21 = phi21(tr, LOOPS)
    assert abs(p22 - p21) / p21 < 0.01


def test_phi22_zero_without_electron_current():
    tr = dataclasses.replace(traj(), charge=0.0)
    assert phi22(tr, POINT, LOOPS) == 0.0


def test_phi22_left_antisymmetric():
    p_r = phi22(traj(beta=0.1), POINT, LOOPS, n_time=24, n_phi=16)
    p_l = phi22(traj(beta=0.1, sense=Sense.LEFT), POINT, LOOPS, n_time=24, n_phi=16)
    np.testing.assert_allclose(p_l, -p_r, rtol=1e-8)


def test_phi22_requires_compact_solenoid():
    with pytest.raises(ValueError):
        phi22(traj(), POINT, IDEAL)


def test_phi22_flux_linearity():
    double = dataclasses.replace(LOOPS, flux=2.0)
    one = phi22(traj(beta=0.1), POINT, LOOPS, n_time=16, n_phi=8)
    two = phi22(traj(beta=0.1), POINT, double, n_time=16, n_phi=8)
    np.testing.assert_allclose(two, 2 * one, rtol=1e-12)


def _phi22_over_loops(tr, smear, model, zs, mult, n_time, n_phi):
    """Oracle: phi22 summed loop by loop over the loops at heights zs, each
    counted mult times (every loop once is the unfolded sum)."""
    a = model.solenoid_radius
    th = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    dl = (2 * np.pi * a / n_phi) * np.stack(
        [-np.sin(th), np.cos(th), np.zeros(n_phi)], axis=-1)
    total = 0.0
    for z, m in zip(zs, mult):
        pts = np.stack([a * np.cos(th), a * np.sin(th), np.full(n_phi, z)], axis=-1)
        t_on = phases._earliest_arrival(tr, smear, pts)
        tq, wq = phases.gauss_legendre(t_on, np.maximum(tr.traverse_time, t_on), n_time)
        for tj, wj in zip(tq.T, wq.T):
            A = a_electron_retarded(tr, smear, pts, tj)
            total += m * float(np.sum(wj * np.einsum("ij,ij->i", A, dl)))
    return 0.5 * model.loop_current * total


_FOLD_SMEARS = [POINT, SmearingProfile(SmearKind.LINE_Z, 1.0)]


@pytest.mark.parametrize("n_loops", [2, 3, 25, 50, 51])
@pytest.mark.parametrize("smear", _FOLD_SMEARS, ids=["point", "line_z"])
@pytest.mark.parametrize("beta", [0.1, 0.3])
def test_phi22_on_the_upper_loops_matches_the_sum_over_all_loops(n_loops, smear, beta):
    # the loops below the orbit plane repeat their mirror images above it;
    # at beta = 0.3 the start-up front (cT = 10.5 R) leaves the outer loops
    # of the 20 R solenoid unreached and crosses the ones within reach
    tr = traj(beta=beta, eta=0.01)
    model = dataclasses.replace(LOOPS, n_loops=n_loops)
    got = phi22(tr, smear, model, n_time=6, n_phi=8)
    zs = model.loop_positions()
    want = _phi22_over_loops(tr, smear, model, zs, np.ones(n_loops), 6, 8)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n_loops", [3, 50, 51])
def test_phi22_fold_errors_are_detected(n_loops):
    # negative controls for the oracle above: the upper loops counted once
    # each, or the middle loop of an odd count counted twice, miss the
    # all-loops sum by more than 1e7 times its 1e-13 bound
    tr = traj(beta=0.3, eta=0.01)
    model = dataclasses.replace(LOOPS, n_loops=n_loops)
    zs = model.loop_positions()
    upper = zs[n_loops // 2:]
    want = _phi22_over_loops(tr, POINT, model, zs, np.ones(n_loops), 6, 8)
    undoubled = _phi22_over_loops(tr, POINT, model, upper, np.ones(upper.size), 6, 8)
    assert abs(undoubled - want) > 1e-6 * abs(want)
    if n_loops % 2:
        middle_twice = _phi22_over_loops(tr, POINT, model, upper,
                                         np.full(upper.size, 2.0), 6, 8)
        assert abs(middle_twice - want) > 1e-6 * abs(want)


# ---------------------------------------------------------------------- phi1

def test_phi1_zero_without_electron_current():
    tr = dataclasses.replace(traj(eta=0.01), charge=0.0)
    res = phi1(tr, POINT, LOOPS, rho_max=2.0)
    assert res.value == 0.0


def test_phi1_small_against_phi21_nonrelativistic():
    tr = traj(beta=0.05, eta=0.01)
    res = phi1(tr, POINT, LOOPS)
    assert abs(res.value) <= 0.02 * abs(phi21(tr, LOOPS))


SHORT = SolenoidModel(0.5, 1.0, SolenoidKind.FINITE_LOOPS, n_loops=25, length=4.0)


def _phi1_integrand(monkeypatch, tr, model, rho_max):
    """The (rho, z) integrand phi1 hands to the cubature (its inner shell),
    captured without integrating."""
    captured = []

    def capture(f, box, spec, initial_grid):
        captured.append(f)
        return 0.0, 0.0

    monkeypatch.setattr(phases, "adaptive_nd", capture)
    phi1(tr, POINT, model, rho_max=rho_max)
    return captured[0]


def _cartesian_ring_integrand(tr, model, q, n_phi=16):
    """rho 2 pi times the ring mean of Adot_el . A_sol over the n_phi ring
    points of each node, with A_sol evaluated at every ring point (the
    Cartesian form), and the same of |Adot_el . A_sol| as its scale."""
    rho, z = q[:, 0], q[:, 1]
    phis = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    pts = np.stack([(rho[:, None] * np.cos(phis)).ravel(),
                    (rho[:, None] * np.sin(phis)).ravel(),
                    np.repeat(z, n_phi)], axis=-1)
    vals = np.einsum("ij,ij->i", a_dot_electron(tr, POINT, pts, tr.traverse_time),
                     a_solenoid(model, pts)).reshape(len(rho), n_phi)
    return (rho * vals.mean(axis=1) * (2 * np.pi),
            rho * np.abs(vals).mean(axis=1) * (2 * np.pi))


def test_phi1_ring_integrand_matches_the_cartesian_ring_mean(monkeypatch):
    # one A_phi per node times the ring mean of Adot_phi equals the ring
    # mean of Adot_el . A_sol(x) at every ring point: nodes on the axis,
    # across the winding, at the electron's final radius and across the
    # start-up front (|x - x_el(0)| = T = 10.5 here)
    tr = traj(beta=0.3, eta=0.01)
    rho_max = 12.0
    z_max = SHORT.length / 2 + 4.0
    rng = np.random.default_rng(19)
    rho = np.concatenate([[1e-9, 1e-3], SHORT.solenoid_radius + np.array([-0.01, 0.003, 0.02]),
                          [0.98, 1.0, 1.03], rng.uniform(1e-9, rho_max / 2, 40)])
    z = np.concatenate([[0.0, 2.0], [0.1, 1.999, 2.5], [0.0, 0.02, 0.1],
                        rng.uniform(0.0, z_max, 40)])
    q = np.stack([rho, z], axis=-1)
    got = _phi1_integrand(monkeypatch, tr, SHORT, rho_max)(q)
    want, scale = _cartesian_ring_integrand(tr, SHORT, q)
    assert np.all(scale[1:] > 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale), np.max(
        np.abs(got - want) / np.where(scale > 0, scale, 1.0))


def test_phi1_looks_up_the_solenoid_once_per_node(monkeypatch):
    tr = traj(beta=0.3, eta=0.01)
    nodes, lookups, ring_points = [], [], []
    cubature = phases.adaptive_nd

    def counted_cubature(f, *args, **kwargs):
        return cubature(lambda q: (nodes.append(len(q)), f(q))[1], *args, **kwargs)

    def counted_solenoid(model, x):
        lookups.append(len(x))
        return a_solenoid(model, x)

    def counted_a_dot(traj_, smear, x, t):
        ring_points.append(len(x))
        return a_dot_electron(traj_, smear, x, t)

    monkeypatch.setattr(phases, "adaptive_nd", counted_cubature)
    monkeypatch.setattr(phases, "a_solenoid", counted_solenoid)
    monkeypatch.setattr(phases, "a_dot_electron", counted_a_dot)
    phi1(tr, POINT, SHORT, rho_max=3.0)
    assert nodes and lookups == nodes
    assert ring_points == [16 * n for n in nodes]


# ------------------------------------------------------------------ identity

def test_identity_eq15_beta_005():
    rep = assemble_phase_report(traj(beta=0.05), POINT, LOOPS)
    assert rep.identity_residuals["identity_eq15_rel"] < 0.02
    # the two routes really were computed independently
    assert rep.phi21 != rep.phi22


def test_identity_eq15_no_current_vanishes_exactly():
    tr = dataclasses.replace(traj(beta=0.1), charge=0.0)
    rep = assemble_phase_report(tr, POINT, LOOPS, rho_max=2.0)
    assert rep.phi21 == 0.0 and rep.phi22 == 0.0
    assert rep.phi1 == 0.0 and rep.identity_residuals["identity_eq15"] == 0.0


def test_full_left_computation_cross_check():
    # the left traverse recomputed from scratch, not by sign flip, on the
    # same ramp: every quantity must come out antisymmetric
    right = traj(beta=0.1, eta=0.01)
    rep = assemble_phase_report(right, POINT, LOOPS)
    left = right.mirrored()
    total_left = (phi21(left, LOOPS) + phi1(left, POINT, LOOPS).value
                  + phi22(left, POINT, LOOPS))
    np.testing.assert_allclose(total_left, -rep.phi_total_right, rtol=1e-8)


# ------------------------------------------------------- naive double count

def naive_double_count(tr, model):
    """Traverse-difference phase of the separable approximation."""
    return 4 * (phi21(tr, model) + phi22(tr, POINT, model))


def test_naive_double_count_is_twice_the_shift():
    tr = traj(beta=0.01)
    total = naive_double_count(tr, LOOPS)
    assert abs(total / (tr.charge * LOOPS.flux) - 2.0) < 0.05


def test_naive_double_count_zero_flux():
    zero = dataclasses.replace(LOOPS, flux=0.0)
    assert abs(naive_double_count(traj(beta=0.01), zero)) < 1e-12


def test_naive_ratio_across_betas():
    for beta in (0.01, 0.05, 0.1):
        tr = traj(beta=beta)
        ratio = naive_double_count(tr, LOOPS) / (tr.charge * LOOPS.flux)
        assert abs(ratio - 2.0) < 0.05, f"beta={beta}: ratio={ratio}"


# ------------------------------------------------------------ extra phases

def test_extra_phase_ledger_entries():
    rep = assemble_phase_report(traj(beta=0.05), POINT, LOOPS)
    # both extra phases equal minus the traverse phase
    assert abs(rep.extra_phase_el - rep.extra_phase_sol) < 0.02 * abs(rep.extra_phase_el)
    # the corrected field phase is the negative of the traverse phase
    assert abs(rep.corrected_a_phase + rep.grand_total) < 0.03
    # grand total: half the interference shift
    assert abs(rep.grand_total - 0.5) < 0.03 * 0.5


def test_extra_phase_ledger_zero_flux():
    zero = dataclasses.replace(LOOPS, flux=0.0)
    rep = assemble_phase_report(traj(beta=0.05), POINT, zero)
    for v in (rep.extra_phase_el, rep.extra_phase_sol, rep.corrected_a_phase,
              rep.grand_total):
        assert abs(v) < 1e-10


# ------------------------------------------------------------- probabilities

def test_interference_probability_cases():
    assert interference_probability(0.0, 0.0) == (1.0, 0.0)
    p, m = interference_probability(np.pi / 2, 1.3)
    np.testing.assert_allclose((p, m), (0.5, 0.5), atol=1e-15)
    p, m = interference_probability(np.pi, 0.1)
    np.testing.assert_allclose(p, 0.5 * (1 - np.exp(-0.1)))
    np.testing.assert_allclose(m, 0.5 * (1 + np.exp(-0.1)))
    np.testing.assert_allclose(p + m, 1.0, rtol=0, atol=1e-16)


def test_interference_probability_negative_a_rejected():
    with pytest.raises(ValueError):
        interference_probability(0.0, -0.1)


# -------------------------------------------------------------- full report

def test_phase_report_structure_and_invariants():
    rep = assemble_phase_report(traj(beta=0.05), POINT, LOOPS)
    np.testing.assert_allclose(rep.phi2, rep.phi21 + rep.phi22, rtol=1e-14)
    np.testing.assert_allclose(rep.phi_total_right,
                               rep.phi21 + rep.phi1 + rep.phi22, rtol=1e-14)
    np.testing.assert_allclose(rep.phi_total_left, -rep.phi_total_right, rtol=1e-14)
    assert abs(rep.phi_total_right - 0.5 * rep.phi_ab) < 0.02 * rep.phi_ab
    assert abs(rep.naive_total / rep.phi_ab - 2.0) < 0.05
    assert rep.identity_residuals["identity_eq15_rel"] < 0.02
    assert rep.phi_ab == 1.0
