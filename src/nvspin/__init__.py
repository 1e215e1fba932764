"""Desk-scale spin-dynamics simulator for a single nitrogen-vacancy center.

Reproduces the room-temperature single-center experiments as synthetic
datasets: CW ESR spectra, Rabi nutations, Hahn echo decay and the
magnetic-field dependence of decoherence caused by dipolar coupling to
substitutional nitrogen spins, together with the curve fits used to
extract f1, T2', T2 and resonance line parameters.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, standard_config
from .dynamics import (
    NoiseModel,
    evolve_lindblad,
    lindblad_trajectory,
    steady_state,
)
from .experiments import (
    SweepResult,
    exp_cw_esr,
    exp_field_sweep,
    exp_hahn,
    exp_levels,
    exp_rabi,
    exp_t2p_vs_dip,
    trend_configs,
)
from .fitting import (
    FitResult,
    Trace,
    fit_damped_cosine,
    fit_exp_decay,
    fit_lorentzian,
)
from .hamiltonian import (
    MU_B_MHZ_PER_G,
    BathParams,
    DriveParams,
    NvParams,
    frame_detuning,
    gyromagnetic_ratio,
    nv_levels,
    resonance_field,
)
from .pulseq import (
    Delay,
    LaserInit,
    Readout,
    RfPulse,
    hahn_sequence,
    pi2_duration,
    pi_duration,
    run_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
