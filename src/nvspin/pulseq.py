"""Pulse sequences on the addressed two-level transition.

Every pulsed measurement follows the three-step experimental template: a
laser pulse initializes the spin, manipulation happens in the dark, and a
second laser pulse reads the state out through the spin-dependent
photoluminescence.  Each experiment does both laser steps, once per trace:
``Readout`` is the one definition of the laser cycle, its polarization
setting the initial state and its contrast the counts.  A sequence is the
manipulation in the dark alone, a tuple of ``Segment`` records: a pulse has
a Rabi frequency ``f1_mhz > 0``, a free delay ``f1_mhz = 0``.
``run_sequence`` works in the rotating frame of the addressed pair
(|0> = bright level, |1> = driven level); quasi-static detunings enter via
the frame detuning, Markovian rates via the NoiseModel.  An array of frame
detunings runs the whole ensemble at once.  A sequence's propagator is the
ordered product of its segments' propagators, so ``run_sequence`` builds
the real 4 x 4 generators of its distinct drive strengths in one
``build_liouvillian`` call, exponentiates each distinct segment once (a
swept Hahn echo has three: the pi/2 pulse, the delay and the pi pulse) and
steps the state's real coordinates through them, each step one stacked
product over the members.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NoiseModel,
    _check_evolution,
    _coordinates,
    build_liouvillian,
    expm,
    pair_collapse_ops,
)
from .hamiltonian import _check_finite, pair_hamiltonian


@dataclass(frozen=True)
class Readout:
    """The laser cycle: a polarizing pulse leaves the addressed pair in
    m_S = 0 with probability p + (1 - p)/2, the rest in the driven level;
    the readout pulse gives expected counts N * (1 - contrast * (1 - P0))."""

    polarization: float
    contrast: float
    photons: float

    def __post_init__(self):
        if not 0.0 <= self.polarization <= 1.0:
            raise ValueError("polarization must lie in [0, 1]")
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError("contrast must lie in [0, 1]")
        _check_finite(self, "photons", bound=">= 0")

    def density(self) -> np.ndarray:
        """Pair density matrix p |0><0| + (1 - p) * identity / 2."""
        p = self.polarization
        return np.diag([p + (1 - p) / 2, (1 - p) / 2]).astype(complex)

    def counts(self, p0):
        """Expected counts for the m_S = 0 population ``p0`` (broadcasts)."""
        return self.photons * (1.0 - self.contrast * (1.0 - np.asarray(p0)))


@dataclass(frozen=True)
class Segment:
    """``duration_us`` in the drive's rotating frame at Rabi frequency
    ``f1_mhz``; ``f1_mhz = 0`` is a free delay.  The drive frequency enters
    only through ``run_sequence``'s frame detuning."""

    duration_us: float
    f1_mhz: float = 0.0

    def __post_init__(self):
        _check_finite(self, "duration_us", "f1_mhz", bound=">= 0")


def pi_duration(f1_mhz: float) -> float:
    """Duration of a pi pulse at Rabi frequency f1: 1 / (2 f1)."""
    if not (np.isfinite(f1_mhz) and f1_mhz > 0):
        raise ValueError(f"pi pulse needs f1 finite and > 0, got {f1_mhz}")
    return 1.0 / (2.0 * f1_mhz)


def pi2_duration(f1_mhz: float) -> float:
    """Duration of a pi/2 pulse: half a pi pulse, 1 / (4 f1)."""
    return pi_duration(f1_mhz) / 2


def hahn_sequence(tau1_us: float, tau2_us: float, f1_mhz: float) -> tuple[Segment, ...]:
    """Hahn echo: pi/2 - tau1 - pi - tau2 - pi/2.

    The final pi/2 pulse maps the echo amplitude back onto the populations
    seen by the photoluminescence readout.
    """
    t_pi2 = pi2_duration(f1_mhz)
    t_pi = pi_duration(f1_mhz)
    return (Segment(t_pi2, f1_mhz), Segment(tau1_us), Segment(t_pi, f1_mhz),
            Segment(tau2_us), Segment(t_pi2, f1_mhz))


def run_sequence(seq: tuple[Segment, ...], rho0: np.ndarray,
                 noise: NoiseModel | None = None, detuning_mhz=0.0):
    """Evolve the pair state ``rho0`` through the segments of ``seq`` and
    return the m_S = 0 population P0.

    ``detuning_mhz`` is the frame detuning of the drive from the addressed
    transition (quasi-static noise enters here; Markovian rates from
    ``noise`` act during pulses and delays).  A scalar detuning gives a
    float; an array of detunings gives an array of that shape, one entry
    per detuning.

    The generators of the distinct drive strengths are one stack from one
    ``build_liouvillian`` call, which checks their Hermiticity, and each
    distinct segment of nonzero duration is exponentiated once; a segment
    of zero duration leaves the state as it is.  The state advances as its
    real coordinates x, and P0 is x[0], the coordinate of |0><0|.
    """
    detuning = np.asarray(detuning_mhz, dtype=float)
    rho = np.asarray(rho0, dtype=complex)
    x = _coordinates(rho)
    if seq:
        drives = dict.fromkeys(s.f1_mhz for s in seq)
        h = np.stack([pair_hamiltonian(detuning, f1) for f1 in drives])
        _check_evolution(h, rho)
        liou = dict(zip(drives, build_liouvillian(h, pair_collapse_ops(noise))))
        propagators = {s: expm(liou[s.f1_mhz] * s.duration_us)
                       for s in dict.fromkeys(seq) if s.duration_us > 0}
        for segment in seq:
            if segment in propagators:
                x = (propagators[segment] @ x[..., None])[..., 0]
    return np.broadcast_to(x[..., 0], detuning.shape).copy()[()]
