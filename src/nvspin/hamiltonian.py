"""Hamiltonians for the N-V center and a substitutional-nitrogen (P1)
electron spin, and the rotating frame of a driven N-V transition.

All Hamiltonians are frequency operators in MHz; the static magnetic field
is taken along the N-V symmetry axis (z) and is given in gauss.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import ELECTRON_G, gyromagnetic_ratio
from .spinops import eigensystem, spin_matrices


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
        if self.d_mhz <= 0:
            raise ValueError("zero-field splitting must be positive")
        if self.g <= 0:
            raise ValueError("g-factor must be positive")

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
        if self.gamma_bath < 0:
            raise ValueError("gamma_bath must be >= 0")


@dataclass(frozen=True)
class DriveParams:
    """RF drive: Rabi frequency and frequency.

    ``f_rf_mhz=None`` means "on resonance with the addressed transition".
    """

    f1_mhz: float = 5.0
    f_rf_mhz: float | None = None

    def __post_init__(self):
        if self.f1_mhz < 0:
            raise ValueError("Rabi frequency must be >= 0")


def h_nv(b_gauss: float, p: NvParams) -> np.ndarray:
    """N-V ground-state Hamiltonian D*Sz^2 + gamma*B*Sz, 3x3 in the basis
    m_S = +1, 0, -1."""
    _, _, sz = spin_matrices(1.0)
    return p.d_mhz * (sz @ sz) + p.gamma * b_gauss * sz


def h_n(b_gauss: float, g: float = ELECTRON_G) -> np.ndarray:
    """Zeeman Hamiltonian of one P1 electron spin, 2x2."""
    _, _, sz = spin_matrices(0.5)
    return gyromagnetic_ratio(g) * b_gauss * sz


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


def rotating_frame(h_static: np.ndarray, drive: DriveParams,
                   transition: tuple[int, int]) -> np.ndarray:
    """Two-level rotating-frame Hamiltonian for a selectively driven pair.

    Levels are indices into the ascending eigenvalues of ``h_static``.  The
    result is :func:`pair_hamiltonian` with detuning = transition frequency
    - drive frequency; counter-rotating terms are dropped.

    Raises if either selected level is degenerate (the addressed pair would
    be ambiguous) and warns when some spectator transition lies within
    ``SELECTIVITY_FACTOR * f1`` of the drive.
    """
    w, _ = eigensystem(h_static)
    i, j = transition
    if i == j:
        raise ValueError("transition needs two distinct levels")
    for sel in (i, j):
        others = np.delete(np.arange(len(w)), sel)
        if np.any(np.abs(w[others] - w[sel]) < 1e-6):
            raise ValueError(
                f"level {sel} is degenerate; addressed transition is ambiguous"
            )
    f_t = w[j] - w[i]
    f_rf = drive.f_rf_mhz if drive.f_rf_mhz is not None else f_t
    detuning = f_t - f_rf
    # spectator transitions sharing a level with the addressed pair
    if drive.f1_mhz > 0:
        for a in range(len(w)):
            for b in range(a + 1, len(w)):
                if {a, b} == {i, j} or not ({a, b} & {i, j}):
                    continue
                if abs(abs(w[b] - w[a]) - f_rf) < SELECTIVITY_FACTOR * drive.f1_mhz:
                    warnings.warn(
                        "drive is not selective: spectator transition "
                        f"({a},{b}) lies within {SELECTIVITY_FACTOR} f1 of the drive",
                        stacklevel=2,
                    )
    return pair_hamiltonian(detuning, drive.f1_mhz)
