"""Static levels of the N-V center for a field along its symmetry axis,
the rotating frame of its driven transition with the one test that this
frame holds (``frame_detuning``), and the physical constants they use.

Levels and Hamiltonians are frequencies in MHz; the static magnetic field
is taken along the N-V symmetry axis (z) and is given in gauss.  Along
that axis the ground-state Hamiltonian D Sz^2 + gamma B Sz is diagonal, so
its levels D m^2 + gamma B m are written down rather than diagonalised.
"""

import math
from dataclasses import dataclass

import numpy as np

# Bohr magneton divided by the Planck constant, in MHz per gauss.
# An electron with g-factor g has gyromagnetic ratio g * MU_B_MHZ_PER_G.
MU_B_MHZ_PER_G = 1.3996245


def _check_finite(params, *names: str, bound: str = "") -> None:
    """Raise ValueError, naming the field and its value, for the first of
    ``names`` whose value on ``params`` is not finite or, given ``bound``
    (">= 0" or "> 0"), not within it."""
    for name in names:
        value = getattr(params, name)
        if not (math.isfinite(value) and {"": True, ">= 0": value >= 0, "> 0": value > 0}[bound]):
            raise ValueError(f"{name} must be finite{bound and ' and ' + bound}, got {value}")


@dataclass(frozen=True)
class NvParams:
    """Ground-state N-V parameters.

    ``d_mhz`` is the zero-field splitting, ``g`` the electron g-factor.
    ``a_par_mhz`` is the axial hyperfine coupling to the center's own 14N
    nucleus (I=1): the detuning step -A, 0, +A of the nuclear-state average
    (``NoiseModel.nuclear_splitting_mhz``).
    """

    d_mhz: float
    g: float
    a_par_mhz: float

    def __post_init__(self):
        _check_finite(self, "d_mhz", "g", bound="> 0")
        _check_finite(self, "a_par_mhz")

    @property
    def gamma(self) -> float:
        """Electron gyromagnetic ratio in MHz/G."""
        return self.g * MU_B_MHZ_PER_G


@dataclass(frozen=True)
class BathParams:
    """The explicitly simulated substitutional-N (P1) electron spin.

    ``coupling_mhz`` is the secular dipolar coupling J to the N-V center,
    multiplying J*(SxSx + SySy - 2 SzSz).  With ``include_n_nucleus`` the
    P1 line splits into three branches at -A, 0, +A (``a_n_par_mhz``, the
    axial P1 14N hyperfine), giving the field sweep's sidepeaks.
    ``gamma_bath`` is the Markovian dephasing rate of the P1 spin in 1/us;
    it sets the width of the cross-relaxation resonance.
    """

    coupling_mhz: float
    a_n_par_mhz: float
    include_n_nucleus: bool
    gamma_bath: float

    def __post_init__(self):
        _check_finite(self, "coupling_mhz", "a_n_par_mhz")
        _check_finite(self, "gamma_bath", bound=">= 0")


@dataclass(frozen=True)
class DriveParams:
    """RF drive: Rabi frequency and frequency.

    ``f_rf_mhz=None`` means "on resonance with the addressed transition".
    """

    f1_mhz: float
    f_rf_mhz: float | None = None

    def __post_init__(self):
        _check_finite(self, "f1_mhz", bound=">= 0")
        if self.f_rf_mhz is not None and not np.isfinite(self.f_rf_mhz):
            raise ValueError(f"drive frequency must be finite, got {self.f_rf_mhz}")


def nv_levels(b_gauss, p: NvParams) -> np.ndarray:
    """N-V ground-state levels E_m = D m^2 + gamma B m, the last axis in the
    order m_S = +1, 0, -1.  Broadcasts over ``b_gauss``."""
    zeeman = p.gamma * np.asarray(b_gauss, dtype=float)
    return np.stack([p.d_mhz + zeeman, np.zeros_like(zeeman), p.d_mhz - zeeman], axis=-1)


def resonance_field(p: NvParams) -> float:
    """Field (gauss) where the N-V 0 -> -1 splitting equals the P1 electron
    Zeeman splitting: B* = D / (2 gamma)."""
    return p.d_mhz / (2 * p.gamma)


# a spectator transition closer than this many f1 to the drive makes the
# two-level rotating frame unreliable
SELECTIVITY_FACTOR = 20.0


def pair_hamiltonian(detuning_mhz, f1_mhz: float) -> np.ndarray:
    """Rotating-frame Hamiltonian [[0, f1/2], [f1/2, detuning]] of a driven
    level pair.  Array-valued detunings broadcast into a stack
    ``(..., 2, 2)``."""
    detuning = np.asarray(detuning_mhz, dtype=float)
    h = np.zeros(detuning.shape + (2, 2), dtype=complex)
    h[..., 0, 1] = h[..., 1, 0] = 0.5 * f1_mhz
    h[..., 1, 1] = detuning
    return h


def frame_detuning(b_gauss: float, p: NvParams, drive: DriveParams) -> float:
    """Detuning of the drive from the transition between the two lowest N-V
    levels, the pair every driven experiment addresses; the rotating-frame
    Hamiltonian is ``pair_hamiltonian(detuning, drive.f1_mhz)``.

    Raises ValueError where that two-level frame fails: where two N-V
    levels coincide, so that the addressed pair is ambiguous, and where a
    spectator transition to the third level lies within
    ``SELECTIVITY_FACTOR * f1`` of the drive.
    """
    w = np.sort(nv_levels(b_gauss, p))
    if np.any(np.diff(w) < 1e-6):
        raise ValueError(
            f"N-V levels are degenerate at {b_gauss} G; addressed transition is ambiguous"
        )
    f_t = w[1] - w[0]
    f_rf = drive.f_rf_mhz if drive.f_rf_mhz is not None else f_t
    gap = float(np.min(np.abs(w[2] - w[:2] - f_rf)))
    if gap < SELECTIVITY_FACTOR * drive.f1_mhz:
        raise ValueError(f"drive is not selective at {b_gauss} G: a spectator transition "
                         f"lies {gap:.6g} MHz from the drive, within {SELECTIVITY_FACTOR:g} "
                         f"times its Rabi frequency of {drive.f1_mhz:.6g} MHz")
    return float(f_t - f_rf)
