"""abtroika: desk-scale numerics for the magnetic Aharonov-Bohm phase shift.

The electron, the solenoid current and the radiation field each admit a
computation of the same interference phase; this package evaluates all three
routes numerically (line integral of the solenoid potential, source exchange
through the electron's retarded potential, and the phase of the driven-field
coherent state), together with the variational extra-phase bookkeeping and
the decoherence amplitude of the field radiated by the two traverses.

Natural units c = hbar = 1 throughout; lengths in units of the orbit radius.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .decoherence import (
    OverlapResult,
    a1_smeared,
    a2_smeared,
    a_current_current,
    a_modes_crosscheck,
    a_point_regulated,
    phase_c1_check,
    visibility_report,
)
from .fields import (
    SingularFieldPoint,
    a_dot_electron,
    a_electron_retarded,
    a_solenoid,
)
from .geometry import (
    Sense,
    SmearKind,
    SmearingProfile,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
    UnitsAndCouplings,
    mirror_map,
    mirror_vector,
    position_velocity,
)
from .modes import (
    ModeGrid,
    ModeState,
    analytic_mode,
    evolve_mode,
    overlap_coherent,
    overlap_gaussian_check,
    photon_number,
    riccati_stationarity,
)
from .phases import (
    PhaseReport,
    assemble_phase_report,
    extra_phase_ledger,
    identity_eq15,
    interference_probability,
    naive_double_count,
    phi1,
    phi21,
    phi22,
    phi_ab_loop,
)
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    adaptive_1d,
    adaptive_nd,
    loglog_slope,
    pv_integral_1d,
    retarded_time_solve,
)

__all__ = [
    "RunConfig", "OverlapResult", "a1_smeared", "a2_smeared",
    "a_current_current", "a_modes_crosscheck", "a_point_regulated",
    "phase_c1_check", "visibility_report", "SingularFieldPoint",
    "a_dot_electron", "a_electron_retarded", "a_solenoid", "Sense",
    "SmearKind", "SmearingProfile", "SolenoidKind", "SolenoidModel",
    "TrajectoryHalfCircle", "UnitsAndCouplings", "mirror_map", "mirror_vector",
    "position_velocity", "ModeGrid", "ModeState", "analytic_mode",
    "evolve_mode", "overlap_coherent", "overlap_gaussian_check",
    "photon_number", "riccati_stationarity", "PhaseReport",
    "assemble_phase_report", "extra_phase_ledger", "identity_eq15",
    "interference_probability", "naive_double_count", "phi1", "phi21", "phi22",
    "phi_ab_loop", "QuadratureError", "QuadratureSpec", "adaptive_1d",
    "adaptive_nd", "loglog_slope", "pv_integral_1d", "retarded_time_solve",
]
