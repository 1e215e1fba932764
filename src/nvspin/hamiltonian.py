"""Static levels of the N-V center for a field along its symmetry axis,
and the rotating frame of its driven transition.

Levels and Hamiltonians are frequencies in MHz; the static magnetic field
is taken along the N-V symmetry axis (z) and is given in gauss.  Along
that axis the ground-state Hamiltonian D Sz^2 + gamma B Sz is diagonal, so
its levels D m^2 + gamma B m are written down rather than diagonalised.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import ELECTRON_G, gyromagnetic_ratio


def _check_finite(params, *names: str, bound: str = "") -> None:
    """Raise ValueError, naming the field and its value, for the first of
    ``names`` whose value on ``params`` is not finite or, given ``bound``
    (">= 0" or "> 0"), not within it."""
    for name in names:
        value = getattr(params, name)
        if not (np.isfinite(value) and {"": True, ">= 0": value >= 0, "> 0": value > 0}[bound]):
            raise ValueError(f"{name} must be finite{bound and ' and ' + bound}, got {value}")


@dataclass(frozen=True)
class NvParams:
    """Ground-state N-V parameters.

    ``d_mhz`` is the zero-field splitting, ``g`` the electron g-factor.
    ``a_par_mhz`` is the axial hyperfine coupling to the center's own 14N
    nucleus (I=1): the detuning step -A, 0, +A of the nuclear-state average
    (``NoiseModel.nuclear_splitting_mhz``).
    """

    d_mhz: float = 2880.0
    g: float = ELECTRON_G
    a_par_mhz: float = 2.2

    def __post_init__(self):
        _check_finite(self, "d_mhz", "g", bound="> 0")
        _check_finite(self, "a_par_mhz")

    @property
    def gamma(self) -> float:
        """Electron gyromagnetic ratio in MHz/G."""
        return gyromagnetic_ratio(self.g)


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

    coupling_mhz: float = 0.5
    a_n_par_mhz: float = 100.0
    include_n_nucleus: bool = False
    gamma_bath: float = 50.0

    def __post_init__(self):
        _check_finite(self, "coupling_mhz", "a_n_par_mhz")
        _check_finite(self, "gamma_bath", bound=">= 0")


@dataclass(frozen=True)
class DriveParams:
    """RF drive: Rabi frequency and frequency.

    ``f_rf_mhz=None`` means "on resonance with the addressed transition".
    """

    f1_mhz: float = 5.0
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

    Raises if either level of the pair is degenerate (the addressed pair
    would be ambiguous) and warns when a spectator transition to the third
    level lies within ``SELECTIVITY_FACTOR * f1`` of the drive.
    """
    w = np.sort(nv_levels(b_gauss, p))
    if np.any(np.diff(w) < 1e-6):
        raise ValueError(
            f"N-V levels are degenerate at {b_gauss} G; addressed transition is ambiguous"
        )
    f_t = w[1] - w[0]
    f_rf = drive.f_rf_mhz if drive.f_rf_mhz is not None else f_t
    if drive.f1_mhz > 0:
        for level in (0, 1):
            if abs(w[2] - w[level] - f_rf) < SELECTIVITY_FACTOR * drive.f1_mhz:
                warnings.warn(
                    "drive is not selective: spectator transition "
                    f"({level},2) lies within {SELECTIVITY_FACTOR} f1 of the drive",
                    stacklevel=2,
                )
    return float(f_t - f_rf)
