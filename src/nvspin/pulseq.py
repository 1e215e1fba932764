"""Pulse sequences on the addressed two-level transition.

Every pulsed measurement follows the three-step experimental template: a
laser pulse initializes the spin, manipulation happens in the dark, and a
second laser pulse reads the state out through the spin-dependent
photoluminescence.  Each experiment does both laser steps, once per trace:
``LaserInit`` and ``Readout`` are the one definition of each.  A sequence
is the manipulation in the dark alone, a tuple of ``RfPulse`` and ``Delay``
segments.  ``run_sequence`` works in the rotating frame of the addressed
pair (|0> = bright level, |1> = driven level); quasi-static detunings enter
via the frame detuning, Markovian rates via the NoiseModel.  An array of
frame detunings runs the whole ensemble at once: every segment is one
stacked ``evolve_lindblad`` step over the members, which exponentiates
their real 4 x 4 generators and returns Hermitian pair states.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import NoiseModel, evolve_lindblad, pair_collapse_ops
from .hamiltonian import DriveParams, pair_hamiltonian


@dataclass(frozen=True)
class LaserInit:
    """Polarizing laser pulse: leaves the addressed pair in m_S = 0 with
    probability p + (1 - p)/2, the rest in the driven level."""

    polarization: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.polarization <= 1.0:
            raise ValueError("polarization must lie in [0, 1]")

    def density(self) -> np.ndarray:
        """Pair density matrix p |0><0| + (1 - p) * identity / 2."""
        p = self.polarization
        return np.diag([p + (1 - p) / 2, (1 - p) / 2]).astype(complex)


@dataclass(frozen=True)
class RfPulse:
    duration_us: float
    drive: DriveParams

    def __post_init__(self):
        _check_duration(self.duration_us)


@dataclass(frozen=True)
class Delay:
    duration_us: float

    def __post_init__(self):
        _check_duration(self.duration_us)


@dataclass(frozen=True)
class Readout:
    """Laser readout: expected counts N * (1 - contrast * (1 - P0))."""

    contrast: float = 0.3
    photons: float = 1000.0

    def __post_init__(self):
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")
        if self.photons < 0:
            raise ValueError("photon budget must be >= 0")

    def counts(self, p0):
        """Expected counts for the m_S = 0 population ``p0`` (broadcasts)."""
        return self.photons * (1.0 - self.contrast * (1.0 - np.asarray(p0)))


Segment = RfPulse | Delay


def _check_duration(value: float) -> None:
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"segment duration must be finite and >= 0, got {value}")


def pi_duration(f1_mhz: float) -> float:
    """Duration of a pi pulse at Rabi frequency f1: 1 / (2 f1)."""
    if not (np.isfinite(f1_mhz) and f1_mhz > 0):
        raise ValueError(f"pi pulse needs f1 finite and > 0, got {f1_mhz}")
    return 1.0 / (2.0 * f1_mhz)


def pi2_duration(f1_mhz: float) -> float:
    """Duration of a pi/2 pulse: half a pi pulse, 1 / (4 f1)."""
    return pi_duration(f1_mhz) / 2


def hahn_sequence(tau1_us: float, tau2_us: float,
                  drive: DriveParams) -> tuple[Segment, ...]:
    """Hahn echo: pi/2 - tau1 - pi - tau2 - pi/2.

    The final pi/2 pulse maps the echo amplitude back onto the populations
    seen by the photoluminescence readout.
    """
    t_pi2 = pi2_duration(drive.f1_mhz)
    t_pi = pi_duration(drive.f1_mhz)
    return (RfPulse(t_pi2, drive), Delay(tau1_us), RfPulse(t_pi, drive),
            Delay(tau2_us), RfPulse(t_pi2, drive))


def run_sequence(seq: tuple[Segment, ...], rho0: np.ndarray,
                 noise: NoiseModel | None = None, detuning_mhz=0.0):
    """Evolve the pair state ``rho0`` through the segments of ``seq`` and
    return the m_S = 0 population P0.

    ``detuning_mhz`` is the frame detuning of the drive from the addressed
    transition (quasi-static noise enters here; Markovian rates from
    ``noise`` act during pulses and delays).  A scalar detuning gives a
    float; an array of detunings gives an array of that shape, one entry
    per detuning.
    """
    detuning = np.asarray(detuning_mhz, dtype=float)
    rho = np.asarray(rho0, dtype=complex)
    collapse = pair_collapse_ops(noise)
    for segment in seq:
        f1 = segment.drive.f1_mhz if isinstance(segment, RfPulse) else 0.0
        rho = evolve_lindblad(pair_hamiltonian(detuning, f1), collapse, rho,
                              segment.duration_us)
    return np.broadcast_to(rho[..., 0, 0].real, detuning.shape).copy()[()]
