"""The benchmark's workloads: one abtroika stage and its config each.

Every workload is sized so that one invocation takes a few seconds on a
2-CPU machine, which lets one measured run hold several invocations and
report medians.  README.md gives the reason for each choice.
"""

WORKLOADS = {
    # Table-heavy phases stage: two SolenoidPotentialTable builds of
    # 320 x 640 nodes x 50 loops of elliptic terms; the start-up front
    # (cT = 31 R) lies outside the volume.  |phi1| is about 1.3e-5, so the
    # default quad_abs_tol of 5e-5 leaves phi1's error estimate at 90% of its
    # value; 5e-6 brings it to about 30%, small enough for the correctness
    # gate to see a wrong phi1.
    "phases-b01": {
        "stage": "phases",
        "config": {"beta": "0.1", "n_loops": "50", "quad_abs_tol": "5e-6"},
    },
    # Retarded-time-dominated phases stage: cT = 10.5 R, so the start-up
    # front crosses the volume and the cubature refines along it.
    "phases-b03": {
        "stage": "phases",
        "config": {"beta": "0.3", "n_loops": "25", "rho_max_over_r": "3"},
    },
    # Bessel sums of a_current_current over a 3 x 2 sweep that keeps the
    # beta = 0.05 points where a2_over_a1_beta_squared fails (a known defect
    # kept visible in the reference).
    "decoherence-sweep": {
        "stage": "decoherence",
        "config": {"beta": "0.1", "lam": "2.0",
                   "sweep_beta": "0.05, 0.1, 0.2", "sweep_lambda": "2.0, 4.0",
                   "kmax_sigma_physical": "8"},
    },
    # RK4 evolution, segmented mode quadrature and the Gaussian overlap
    # identity; the seed reaches the program through the config's seed key.
    # beta = 0.3 shortens the traverse time threefold: at the default
    # beta = 0.1 one invocation takes 12 s instead of 6.6 s.
    "modes-n6": {
        "stage": "modes",
        "config": {"mode_grid_n": "6", "beta": "0.3"},
    },
}


def config_text(name: str, seed: int) -> str:
    """The flat key = value config of a workload, with the benchmark seed."""
    lines = [f"{k} = {v}" for k, v in WORKLOADS[name]["config"].items()]
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"
