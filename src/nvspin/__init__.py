"""Desk-scale spin-dynamics simulator for a single nitrogen-vacancy center.

Reproduces the room-temperature single-center experiments as synthetic
datasets: CW ESR spectra, Rabi nutations, Hahn echo decay and the
magnetic-field dependence of decoherence caused by dipolar coupling to
substitutional nitrogen spins, together with the curve fits used to
extract f1, T2', T2 and resonance line parameters.

The public names below load their module on first use (PEP 562), so that
``import nvspin.cli`` and ``nvspin fit`` do not import the simulator.  A
name is looked up in its module on every access and never stored here, so
``nvspin.<name>`` always is the module's current binding.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("ExperimentConfig", "standard_config"),
    "dynamics": ("NoiseModel", "lindblad_trajectory", "steady_state"),
    "experiments": ("SweepResult", "exp_cw_esr", "exp_field_sweep", "exp_hahn", "exp_levels",
                    "exp_rabi", "exp_t2p_vs_dip", "trend_configs"),
    "fitting": ("FitResult", "Trace", "fit_damped_cosine", "fit_exp_decay", "fit_lorentzian"),
    "hamiltonian": ("MU_B_MHZ_PER_G", "BathParams", "DriveParams", "NvParams", "frame_detuning",
                    "nv_levels", "resonance_field"),
    "pulseq": ("Readout", "Segment", "hahn_sequence", "pi2_duration", "pi_duration",
               "run_sequence"),
    "spinops": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules are public names too, as they were when this file imported them
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
