"""Run configuration: flat `key = value` text files, validated against the
domain-type invariants before any computation starts."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .geometry import (
    Sense,
    SmearingProfile,
    SmearKind,
    SolenoidKind,
    SolenoidModel,
    TrajectoryHalfCircle,
    UnitsAndCouplings,
)


class ConfigError(ValueError):
    """Malformed or invalid run configuration (CLI exit code 2)."""


def _parse_float_list(text: str):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


_BOOL = {"true": True, "false": False, "on": True, "off": False,
         "yes": True, "no": False, "1": True, "0": False}


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a verification run.  Defaults reproduce the standard
    desk-scale setup (R = 1, flux = 1, 200-loop solenoid of length 20 R)."""

    radius: float = 1.0
    beta: float = 0.1
    lam: float = 1.0
    fine_structure: float = 1.0 / 137.036
    a_over_r: float = 0.5
    flux: float = 1.0
    solenoid: str = "loops"          # loops | ideal
    length_over_r: float = 20.0
    n_loops: int = 200
    eta: float = 0.01
    rho_max_over_r: float = 8.0
    mode_grid_n: int = 16
    kmax_sigma: float = 6.0
    kmax_sigma_physical: float = 40.0
    quad_abs_tol: float = 5e-5
    quad_rel_tol: float = 1e-3
    max_subdivisions: int = 4000
    sweep_beta: tuple = (0.05, 0.1, 0.2)
    sweep_lambda: tuple = (0.5, 1.0, 2.0, 4.0)
    eps_sequence: tuple = (0.02, 0.01, 0.005, 0.0025)
    compute_phase: bool = False
    crosscheck_grid_n: int = 24
    seed: int = 1234
    out_dir: str = "."

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in ("float", "tuple") and not all(
                    map(math.isfinite, value if f.type == "tuple" else (value,))):
                # a NaN compares false, so it gets past checks such as
                # `x <= 0` below, and an inf gets past most of them
                raise ConfigError(f"{f.name} must be finite, got {value}")
        # type invariants of every module fire here, before any computation
        try:
            self.couplings()
            self.trajectory()
            model = self.solenoid_model()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if model.solenoid_radius >= self.radius:
            raise ConfigError("solenoid radius a must satisfy a < R")
        if self.solenoid not in ("loops", "ideal"):
            raise ConfigError("solenoid must be 'loops' or 'ideal'")
        if self.flux == 0:
            # the phase checks are relative to the shift e * flux
            raise ConfigError("flux must be nonzero")
        if self.rho_max_over_r <= 0:
            raise ConfigError("rho_max_over_r must be positive")
        if not 0.0 < self.eta < 0.5:
            # the phases stage also runs phi1 at ramp fraction 2 eta, and the
            # radiated field needs a ramped start
            raise ConfigError(f"eta must satisfy 0 < eta < 0.5, got {self.eta}")
        if self.seed < 0:
            # numpy's generators take non-negative seeds only
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.mode_grid_n < 2 or self.crosscheck_grid_n < 2:
            raise ConfigError("mode grid sizes must be >= 2")
        if self.mode_grid_n % 2:
            raise ConfigError(f"mode_grid_n must be even (an odd n puts k = 0 "
                              f"on the cartesian grid), got {self.mode_grid_n}")
        if self.kmax_sigma < 4.0:
            raise ConfigError("kmax_sigma < 4 leaves the smearing scale unresolved")
        if self.kmax_sigma_physical <= 0:
            raise ConfigError("kmax_sigma_physical must be positive")
        if not all(0 < b < 1 for b in self.sweep_beta):
            raise ConfigError("sweep_beta entries must lie in (0, 1)")
        if not all(lam > 0 for lam in self.sweep_lambda):
            raise ConfigError("sweep_lambda entries must be positive")
        if self.quad_abs_tol <= 0 or self.quad_rel_tol <= 0:
            raise ConfigError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ConfigError("max_subdivisions must be >= 1")
        eps = self.eps_sequence
        if len(eps) < 3 or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps_sequence must be strictly decreasing, length >= 3")
        if not all(0 < e < 1 for e in eps):
            raise ConfigError("eps_sequence entries must lie in (0, 1)")

    # -- domain objects -----------------------------------------------------
    def couplings(self) -> UnitsAndCouplings:
        return UnitsAndCouplings(beta=self.beta, lam=self.lam,
                                 fine_structure=self.fine_structure)

    def trajectory(self) -> TrajectoryHalfCircle:
        return TrajectoryHalfCircle(self.radius, self.beta, Sense.RIGHT,
                                    ramp_fraction=0.0)

    def solenoid_model(self) -> SolenoidModel:
        kind = SolenoidKind.FINITE_LOOPS if self.solenoid == "loops" \
            else SolenoidKind.IDEAL_INFINITE
        return SolenoidModel(self.a_over_r * self.radius, self.flux, kind,
                             n_loops=self.n_loops,
                             length=self.length_over_r * self.radius)

    def smearing(self) -> SmearingProfile:
        return SmearingProfile(SmearKind.LINE_Z, self.lam * self.radius)

    # -- (de)serialization ----------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        known = {f.name: f for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            f = known[key]
            try:
                if f.type == "float":
                    values[key] = float(val)
                elif f.type == "int":
                    values[key] = int(val)
                elif f.type == "bool":
                    values[key] = _BOOL[val.lower()]
                elif f.type == "tuple":
                    values[key] = _parse_float_list(val)
                else:
                    values[key] = val
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"line {lineno}: bad value for '{key}': {val}") from exc
        try:
            return cls(**values)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ", ".join(repr(x) for x in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {f.name: (list(getattr(self, f.name))
                         if isinstance(getattr(self, f.name), tuple)
                         else getattr(self, f.name))
                for f in fields(self)}
