"""Electron traverses, smeared currents, solenoid model, coupling constants.

Geometry conventions (natural units, lengths in units of the orbit radius):
the solenoid axis is z, the electron orbits in the z = 0 plane at radius R.
The right traverse runs counterclockwise from angle -pi/2 to +pi/2 in time
T = pi R / u; the left traverse runs clockwise from 3pi/2 to pi/2.  The two
are exchanged by a 180-degree rotation about the y axis,
(x, y, z) -> (-x, y, -z).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre


class Sense(enum.Enum):
    RIGHT = "right"  # counterclockwise
    LEFT = "left"    # clockwise


class SmearKind(enum.Enum):
    POINT = "point"
    LINE_Z = "line_z"


class SolenoidKind(enum.Enum):
    IDEAL_INFINITE = "ideal_infinite"
    FINITE_LOOPS = "finite_loops"


@dataclass(frozen=True)
class UnitsAndCouplings:
    """Dimensionless parameter group: coupling e^2/(hbar c), beta = u/c, lam = sigma/R."""

    beta: float
    lam: float
    fine_structure: float = 1.0 / 137.036

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must satisfy 0 < beta < 1, got {self.beta}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not self.fine_structure > 0.0:
            raise ValueError(f"fine_structure must be > 0, got {self.fine_structure}")


@dataclass(frozen=True)
class TrajectoryHalfCircle:
    """Half-circle traverse of the electron around the solenoid.

    speed is u in units of c.  ramp_fraction eta >= 0 smooths the impulsive
    start: |velocity| rises from 0 to u over [0, eta*T] (sin^2 profile) and
    stays u afterwards.  With eta > 0 the traverse ends short of the nominal
    final angle by eta*pi/2 radians; eta = 0 reproduces the exact half circle.
    """

    radius: float
    speed: float
    sense: Sense
    ramp_fraction: float = 0.0
    charge: float = 1.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.speed < 1.0:
            raise ValueError(f"speed must satisfy 0 < u < 1 (c = 1), got {self.speed}")
        if self.ramp_fraction < 0.0 or self.ramp_fraction >= 1.0:
            raise ValueError("ramp_fraction must lie in [0, 1)")

    @property
    def traverse_time(self) -> float:
        return np.pi * self.radius / self.speed

    @property
    def start_angle(self) -> float:
        return -np.pi / 2 if self.sense is Sense.RIGHT else 3 * np.pi / 2

    @property
    def angle_rate_sign(self) -> float:
        return +1.0 if self.sense is Sense.RIGHT else -1.0

    def _arc_speed(self, t):
        """Arc length travelled and instantaneous speed at time t (array ok).

        Defined for all real t: at rest with zero arc before t = 0, and the
        circular motion continues past the traverse time (currents are only
        ever integrated over [0, T]).
        """
        t = np.asarray(t, dtype=float)
        u = self.speed
        # eta = 0 leaves no time inside the ramp: arc = u max(t, 0)
        t_ramp = self.ramp_fraction * self.traverse_time
        if t.size == 0 or t.min() >= t_ramp:
            # no time before the ramp's end (a NaN fails the test): constant
            # speed throughout, in the same bytes as the general form
            return u * t_ramp / 2 + u * (t - t_ramp), np.full_like(t, u)
        tc = np.clip(t, 0.0, None)
        spd = np.where(t >= 0.0, u, 0.0)
        arc = np.asarray(u * t_ramp / 2 + u * (tc - t_ramp))  # an array for 0-d t too
        # only times inside the ramp (t < 0 included, where both terms are
        # 0) take the sin^2 profile: speed = u sin^2(pi t / (2 t_ramp))
        in_ramp = tc < t_ramp
        ramp = tc[in_ramp]
        spd[in_ramp] = u * np.sin(np.pi * ramp / (2 * t_ramp)) ** 2
        arc[in_ramp] = u * (ramp / 2 - (t_ramp / (2 * np.pi)) * np.sin(np.pi * ramp / t_ramp))
        return arc, spd

    def angle_speed(self, t):
        """Orbit angle phi and signed tangential speed v_s at times t (array
        ok, see _arc_speed): the position is R (cos phi, sin phi, 0) and the
        velocity v_s (-sin phi, cos phi, 0)."""
        arc, spd = self._arc_speed(t)
        sign = self.angle_rate_sign
        return self.start_angle + sign * arc / self.radius, sign * spd

    def _seen_from(self, x, t):
        """cos phi, sin phi and v_s at times t (N,) (see angle_speed), the
        distance r = |x - x_el(t)| to the points x (N, 3), and the
        tangential component w = y cos phi - x sin phi of x - x_el(t)."""
        phi, v_s = self.angle_speed(t)
        c, s = np.cos(phi), np.sin(phi)
        px, py, pz = x[:, 0], x[:, 1], x[:, 2]
        dx, dy = px - self.radius * c, py - self.radius * s
        return c, s, v_s, np.sqrt(dx * dx + dy * dy + pz * pz), py * c - px * s

    def separation(self, x, t):
        """Distance r = |x - x_el(t)| from the source to the points x (N, 3)
        and (x - x_el(t)) . v(t), at times t (N,), on 1-D arrays.

        On the circle x_el . v = 0, so the second is x . v = v_s w, and no
        (N, 3) source position or velocity is formed."""
        _, _, v_s, r, w = self._seen_from(x, t)
        return r, v_s * w

    def source_terms(self, x, t):
        """What the Lienard-Wiechert fields need of the source at times t
        (N,), seen from the points x (N, 3), on 1-D arrays: r = |r_vec|,
        r_vec . v and r_vec . a for r_vec = x - x_el(t), v . v, and the
        (x, y) components of v and of a.  The orbit lies in the plane
        z = 0, so the z components of v and a are 0.

        The acceleration is the centripetal v_s^2 / R plus, inside the ramp
        [0, eta T), the sin^2 profile's tangential u pi / (2 eta T)
        sin(pi t / (eta T)).  An impulsive start (eta = 0) has a
        delta-function acceleration at t = 0, which is not represented."""
        c, s, v_s, r, w = self._seen_from(x, t)
        R = self.radius
        t = np.asarray(t, dtype=float)
        t_ramp = self.ramp_fraction * self.traverse_time
        a_s = np.zeros_like(v_s)  # signed tangential acceleration
        if t_ramp > 0.0:
            in_ramp = (t >= 0.0) & (t < t_ramp)
            a_s[in_ramp] = (self.angle_rate_sign * self.speed * np.pi / (2 * t_ramp)
                            * np.sin(np.pi * t[in_ramp] / t_ramp))
        a_c = v_s * v_s / R  # centripetal, towards the axis
        radial = x[:, 0] * c + x[:, 1] * s - R  # r_vec . (cos phi, sin phi, 0)
        vel = (-v_s * s, v_s * c)
        acc = (-a_s * s - a_c * c, a_s * c - a_c * s)
        return r, v_s * w, a_s * w - a_c * radial, v_s * v_s, vel, acc

    def acceleration_bound(self, t):
        """An upper bound on |a(s)| over every time s >= t with s >= 0: the
        centripetal u^2 / R, plus the ramp's largest tangential
        u pi / (2 eta T) where t < eta T.  From s = 0 on the motion is
        smooth, so an impulsive start (eta = 0) adds nothing."""
        bound = self.speed**2 / self.radius
        t = np.asarray(t, dtype=float)
        t_ramp = self.ramp_fraction * self.traverse_time
        if t_ramp == 0.0 or t.size == 0 or t.min() >= t_ramp:
            return np.full(t.shape, bound)
        return np.where(t < t_ramp, bound + self.speed * np.pi / (2 * t_ramp), bound)

    def point_velocity_extended(self, t):
        """Position (N,3) and velocity (N,3) for arbitrary t, built from
        angle_speed."""
        phi, v_s = self.angle_speed(t)
        c, s = np.cos(phi), np.sin(phi)
        pos = np.stack([self.radius * c, self.radius * s, np.zeros_like(phi)], axis=-1)
        vel = v_s[..., None] * np.stack([-s, c, np.zeros_like(phi)], axis=-1)
        return pos, vel

    def mirrored(self) -> "TrajectoryHalfCircle":
        """The opposite-sense traverse (same radius, speed, ramp)."""
        other = Sense.LEFT if self.sense is Sense.RIGHT else Sense.RIGHT
        return TrajectoryHalfCircle(self.radius, self.speed, other,
                                    self.ramp_fraction, self.charge)


@dataclass(frozen=True)
class SmearingProfile:
    """Charge smearing: POINT, or LINE_Z, a uniform line of extent sigma along z.

    The line is centred on the trajectory plane (z in [-sigma/2, sigma/2]);
    this preserves the exact 180-degree-about-y exchange symmetry of the two
    traverses, and every quadratic (overlap) quantity is unchanged relative to
    a one-sided line because only |smear factor|^2 enters there.
    """

    kind: SmearKind = SmearKind.POINT
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind is SmearKind.LINE_Z and self.sigma <= 0.0:
            raise ValueError("LINE_Z smearing requires sigma > 0")

    def fourier_factor(self, kz: np.ndarray) -> np.ndarray:
        """Fourier factor S(k_z) of the profile: 1 for POINT, sin(x) / x with
        x = k_z sigma / 2 for the centred line (real)."""
        if self.kind is SmearKind.POINT:
            return np.ones_like(kz)
        x = kz * self.sigma / 2.0
        xs = np.where(np.abs(x) < 1e-30, 1.0, x)
        return np.where(np.abs(x) < 1e-30, 1.0, np.sin(xs) / xs)

    def offsets_weights(self, n: int = 16):
        """Gauss-Legendre nodes/weights for the line parameter (unit total weight)."""
        x, w = gauss_legendre(-0.5, 0.5, n)
        return self.sigma * x, w


@dataclass(frozen=True)
class SolenoidModel:
    """Solenoid of radius a carrying total flux through its cross-section.

    IDEAL_INFINITE uses the analytic azimuthal potential.  FINITE_LOOPS models
    the winding as n_loops coaxial circular loops spread uniformly over length
    L, each carrying loop_current; the mid-plane enclosed flux converges to
    the nominal flux in the long, tightly wound limit.
    """

    solenoid_radius: float
    flux: float
    kind: SolenoidKind = SolenoidKind.FINITE_LOOPS
    n_loops: int = 200
    length: float = 20.0

    def __post_init__(self):
        if self.solenoid_radius <= 0.0:
            raise ValueError("solenoid_radius must be positive")
        if self.kind is SolenoidKind.FINITE_LOOPS:
            if self.n_loops < 2:
                raise ValueError("FINITE_LOOPS needs n_loops >= 2")
            if self.length <= 0.0:
                raise ValueError("FINITE_LOOPS needs length > 0")

    @property
    def loop_current(self) -> float:
        """Per-loop current reproducing the nominal flux in the ideal limit.

        B_inside = I * n / L for a long solenoid (wave-equation normalisation,
        A = Int J / (4 pi |x - x'|)), so I = flux * L / (pi a^2 n).
        """
        a = self.solenoid_radius
        return self.flux * self.length / (np.pi * a * a * self.n_loops)

    def loop_positions(self) -> np.ndarray:
        """z-coordinates of the loops (uniform, centred on the mid-plane)."""
        n, L = self.n_loops, self.length
        return -L / 2 + (np.arange(n) + 0.5) * (L / n)


def mirror_map(x):
    """180-degree rotation about the y axis: (x, y, z) -> (-x, y, -z)."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., 0] *= -1.0
    out[..., 2] *= -1.0
    return out

