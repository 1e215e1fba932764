"""Experiment drivers producing synthetic datasets for each measurement:
CW ESR spectra, Rabi nutations versus RF power, Hahn echo decay, magnetic
field sweeps of photoluminescence and decoherence rate, and the trend of
T2' against the cross-relaxation dip amplitude across centers.  The
laser cycle is the one record ``cfg.readout``: the pulsed drivers start
from its ``density()``, and every photoluminescence trace is read out
once through its ``counts``.

The explicitly simulated bath spin lives with the N-V center on a joint
four-level rotating-frame space (addressed N-V pair x one P1 electron),
whose N-V factor is the driven pair of ``pair_hamiltonian``.
Near B = D/(2 gamma) the energy-conserving exchange |0,up> <-> |-1,down>
becomes resonant, draining N-V polarization (photoluminescence dip) and
adding decoherence during driving (peak in 1/T2').  Away from resonance
only the dipolar z-shift and the stochastic NoiseModel survive.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .dynamics import NoiseModel, lindblad_trajectory, pair_collapse_ops, steady_state
from .fitting import (
    FitResult,
    Trace,
    fit_damped_cosines,
    fit_exp_decay,
    fit_lorentzian,
)
from .hamiltonian import BathParams, frame_detuning, nv_levels, pair_hamiltonian, resonance_field
from .pulseq import hahn_sequence, run_sequence


# Rabi window (us) of the default rabi grid, the field sweep and the trend
RABI_WINDOW_US = np.linspace(0.0, 4.0, 161)
RABI_WINDOW_US.flags.writeable = False
# the trend takes its off-resonance PL this far above the resonance field
OFF_RESONANCE_OFFSET_GAUSS = 25.0


class SweepResult(NamedTuple):
    traces: list[Trace]
    fits: list[FitResult]


# ---------------------------------------------------------------------------
# shared helpers

def nv_transition_mhz(cfg: ExperimentConfig, b_gauss=None):
    """Frequency of the addressed transition, the gap between the two lowest
    N-V levels (0 -> -1 below the 1029 G level crossing); broadcasts over
    fields."""
    b = cfg.b_field_gauss if b_gauss is None else b_gauss
    w = np.sort(nv_levels(b, cfg.nv))
    return w[..., 1] - w[..., 0]


# ---------------------------------------------------------------------------
# joint N-V + bath-spin model (rotating frame)

_P0 = np.diag([1.0, 0.0]).astype(complex)          # projector on m_S = 0
_SZ_PAIR = np.diag([0.0, -1.0]).astype(complex)    # physical m_S values 0, -1
_SZ_HALF = np.diag([0.5, -0.5]).astype(complex)
_EYE2 = np.eye(2, dtype=complex)
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
_FLIP = np.diag([1.0, -1.0]).astype(complex)

# joint-space operators, N-V factor first
_BATH_OP = np.kron(_EYE2, _SZ_HALF)
_ZZ_OP = np.kron(_SZ_PAIR, _SZ_HALF)
_BATH_DEPHASING = np.kron(_EYE2, _FLIP)
_MS0_OP = np.kron(_P0, _EYE2)


def joint_frame_hamiltonian(delta_nv_mhz, nu_bath_mhz, f1_mhz: float,
                            coupling_mhz: float) -> np.ndarray:
    """Rotating-frame Hamiltonian of the N-V pair coupled to one P1 spin.

    Basis order: |0,up>, |0,down>, |-1,up>, |-1,down>.  The N-V factor is
    the driven pair ``pair_hamiltonian(delta_nv_mhz, f1_mhz)``, the drive
    detuned by ``delta_nv_mhz`` from the N-V transition; ``nu_bath_mhz`` is
    the P1 splitting minus the drive frequency (zero at the
    cross-relaxation resonance).  The coupling J enters twice: a -2 J Sz Sz
    shift of the N-V line by the P1 state, and the energy-conserving
    exchange |0,up> <-> |-1,down> with matrix element J/sqrt(2).
    Array-valued detunings broadcast into a stack of Hamiltonians
    ``(..., 4, 4)``.
    """
    nu = np.asarray(nu_bath_mhz, dtype=float)[..., None, None]
    j = coupling_mhz
    h = (
        np.kron(pair_hamiltonian(delta_nv_mhz, f1_mhz), _EYE2)
        + nu * _BATH_OP
        - 2.0 * j * _ZZ_OP
    )
    v = j / np.sqrt(2.0)
    h[..., 0, 3] += v
    h[..., 3, 0] += v
    return h


def _joint_collapse(noise: NoiseModel, bath: BathParams) -> list:
    """The pair's Markovian operators on the N-V factor, plus the bath
    spin's dephasing."""
    ops = [(np.kron(op, _EYE2), rate) for op, rate in pair_collapse_ops(noise)]
    if bath.gamma_bath > 0:
        ops.append((_BATH_DEPHASING, bath.gamma_bath / 2.0))
    return ops


def _bath_branches(bath: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """Bath-frequency shifts and weights from the P1 14N hyperfine states."""
    if not bath.include_n_nucleus:
        return np.zeros(1), np.ones(1)
    a = bath.a_n_par_mhz
    return np.array([-a, 0.0, a]), np.full(3, 1 / 3)


def _joint_p0(cfg: ExperimentConfig, b_gauss, f1_mhz: float, times) -> np.ndarray:
    """Ensemble-averaged m_S = 0 population of the joint model at ``times``
    after laser initialization, bath spin mixed.

    One Lindblad stack over field x P1 hyperfine branch x N-V ensemble
    member; a scalar ``b_gauss`` gives shape ``(len(times),)`` and a field
    array its shape plus ``(len(times),)``.  With ``f1_mhz = 0`` this is the
    dark wait of the init-wait-readout cycle, which from the diagonal rho0
    reaches only 6 of the 16 real coordinates (the populations and the
    |0,up>, |-1,down> coherence), so ``lindblad_trajectory`` steps 6 x 6
    generators; otherwise a Rabi nutation against the explicit bath spin,
    which reaches all 16.
    """
    b = np.asarray(b_gauss, dtype=float)
    nu0 = cfg.nv.gamma * b - nv_transition_mhz(cfg, b)
    shifts, bath_weights = _bath_branches(cfg.bath)
    deltas, weights = cfg.noise.ensemble()
    h = joint_frame_hamiltonian(deltas, (nu0[..., None] + shifts)[..., None], f1_mhz,
                                cfg.bath.coupling_mhz)
    rho0 = np.kron(cfg.readout.density(), _EYE2 / 2)
    collapse = _joint_collapse(cfg.noise, cfg.bath)
    p0 = lindblad_trajectory(h, collapse, rho0, times, observable=_MS0_OP)
    member_weights = bath_weights[:, None] * weights
    return np.sum(member_weights[..., None] * p0, axis=(-3, -2))


# ---------------------------------------------------------------------------
# experiments

def exp_cw_esr(cfg: ExperimentConfig, f_grid_mhz) -> Trace:
    """Continuous-wave ESR: steady-state photoluminescence versus drive
    frequency.

    Optical pumping repolarizes the spin at ``cfg.pump_rate`` while the
    drive depolarizes it near resonance, producing the photoluminescence
    dip at the 0 -> -1 transition frequency.  One ``steady_state`` call per
    ensemble member: one call on the (member x frequency) stack took a default
    run's in-process peak RSS from 60.0 to 62.4-62.8 MiB (+4.0% to +4.7%).
    """
    f_grid = np.asarray(f_grid_mhz, dtype=float)
    f_t = nv_transition_mhz(cfg)
    # laser-induced dephasing adds to the Markovian noise of the pair
    markov = replace(cfg.noise, gamma_phi=cfg.laser_dephasing + cfg.noise.gamma_phi)
    collapse = [(_LOWER, cfg.pump_rate), *pair_collapse_ops(markov)]
    deltas, weights = cfg.noise.ensemble()
    h = pair_hamiltonian(f_t + deltas[:, None] - f_grid, cfg.drive.f1_mhz)
    p0 = np.array([steady_state(h_m, collapse)[..., 0, 0].real for h_m in h])
    return Trace(f_grid, cfg.readout.counts(weights @ p0))


def exp_rabi(cfg: ExperimentConfig, t_grid_us) -> SweepResult:
    """Rabi nutations for each relative RF power of ``cfg.rabi_powers``; f1
    scales with the square root of the power.  The (power x member) stack
    takes one ``lindblad_trajectory`` call, and the traces one stacked fit."""
    t_grid = np.asarray(t_grid_us, dtype=float)
    deltas, weights = cfg.noise.ensemble()
    f1s = [cfg.drive.f1_mhz * np.sqrt(power) for power in cfg.rabi_powers]
    h = np.stack([pair_hamiltonian(frame_detuning(cfg.b_field_gauss, cfg.nv,
                                                  replace(cfg.drive, f1_mhz=f1)) + deltas, f1)
                  for f1 in f1s])
    p0 = lindblad_trajectory(h, pair_collapse_ops(cfg.noise), cfg.readout.density(), t_grid,
                             observable=_P0)
    counts = cfg.readout.counts(weights @ p0)
    return SweepResult([Trace(t_grid, y) for y in counts], fit_damped_cosines(t_grid, counts))


def exp_hahn(cfg: ExperimentConfig, tau_grid_us) -> SweepResult:
    """Hahn echo decay.

    With ``cfg.echo_tau1_us`` None both delays are swept together and the
    trace is plotted against the total delay 2 tau with an exponential fit
    for T2.  Otherwise tau1 stays fixed, ``tau_grid_us`` sweeps tau2, and no
    fit is attempted (the trace shows the echo-position symmetry).
    """
    tau_grid = np.asarray(tau_grid_us, dtype=float)
    tau1_us = cfg.echo_tau1_us
    rho0 = cfg.readout.density()
    deltas, weights = cfg.noise.ensemble()
    detunings = frame_detuning(cfg.b_field_gauss, cfg.nv, cfg.drive) + deltas
    p0 = np.empty((len(deltas), len(tau_grid)))
    for i, tau in enumerate(tau_grid):
        tau1, tau2 = (tau, tau) if tau1_us is None else (tau1_us, tau)
        p0[:, i] = run_sequence(hahn_sequence(tau1, tau2, cfg.drive.f1_mhz), rho0, cfg.noise,
                                detunings)
    x = 2 * tau_grid if tau1_us is None else tau_grid
    trace = Trace(x, cfg.readout.counts(weights @ p0))
    return SweepResult([trace], [fit_exp_decay(trace)] if tau1_us is None else [])


def exp_field_sweep(cfg: ExperimentConfig, b_grid_gauss) -> SweepResult:
    """Photoluminescence and Rabi decoherence rate across the
    cross-relaxation resonance.

    Per field point the joint N-V + P1 model yields (i) the
    photoluminescence after an init-wait-readout cycle and (ii) an
    ensemble-averaged Rabi trace whose damped-cosine fit gives 1/T2'.
    Each of the two is one ``_joint_p0`` stack over the whole field grid,
    and the Rabi traces take one stacked damped-cosine fit.  Both field
    profiles are then fit with Lorentzians; the fits are those two, dip
    first, followed by the Rabi fit of each field.
    """
    b_grid = np.asarray(b_grid_gauss, dtype=float)
    t_grid = RABI_WINDOW_US
    ipl = cfg.readout.counts(_joint_p0(cfg, b_grid, 0.0, [cfg.t_wait_us])[:, 0])
    rabi = cfg.readout.counts(_joint_p0(cfg, b_grid, cfg.drive.f1_mhz, t_grid))
    rabi_fits = fit_damped_cosines(t_grid, rabi)
    ipl_trace = Trace(b_grid, ipl)
    inv_trace = Trace(b_grid, [1.0 / fit["t2p_us"] for fit in rabi_fits])
    return SweepResult([ipl_trace, inv_trace],
                       [fit_lorentzian(ipl_trace), fit_lorentzian(inv_trace), *rabi_fits])


def exp_t2p_vs_dip(cfgs: list[ExperimentConfig]) -> SweepResult:
    """T2' at each center's ``b_field_gauss`` versus the normalized
    photoluminescence dip amplitude on resonance, one point per synthetic
    center.

    The one trace is sorted by dip amplitude; the Rabi window is the field
    sweep's.  The centers' Rabi traces take one stacked damped-cosine fit,
    and the fits keep the order of ``cfgs``.
    """
    t_grid = RABI_WINDOW_US
    amplitudes, rabi = [], []
    for cfg in cfgs:
        b_res = resonance_field(cfg.nv)
        fields = [b_res, b_res + OFF_RESONANCE_OFFSET_GAUSS]
        i_res, i_off = cfg.readout.counts(_joint_p0(cfg, fields, 0.0, [cfg.t_wait_us])[:, 0])
        amplitudes.append((i_off - i_res) / i_off)
        rabi.append(cfg.readout.counts(
            _joint_p0(cfg, cfg.b_field_gauss, cfg.drive.f1_mhz, t_grid)))
    fits = fit_damped_cosines(t_grid, rabi)
    order = np.argsort(amplitudes, kind="stable")
    t2ps = np.array([fit["t2p_us"] for fit in fits])
    return SweepResult([Trace(np.asarray(amplitudes)[order], t2ps[order])], fits)


def trend_configs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Synthetic centers for the trend experiment: coupling strengths from
    ``cfg.trend_couplings`` with the static noise scaled by their magnitude
    relative to ``cfg.bath.coupling_mhz``, whose sign is physical."""
    base_j = cfg.bath.coupling_mhz
    out = []
    for j in cfg.trend_couplings:
        scale = abs(j / base_j) if base_j else 1.0
        out.append(
            replace(
                cfg,
                bath=replace(cfg.bath, coupling_mhz=j),
                noise=replace(cfg.noise,
                              sigma_static_mhz=cfg.noise.sigma_static_mhz * scale),
            )
        )
    return out


def exp_levels(cfg: ExperimentConfig, b_grid_gauss) -> dict[str, np.ndarray]:
    """Levels of the N-V center and one P1 electron spin versus field, both
    electrons at g = ``cfg.nv.g``.

    N-V levels are labeled by m_S, so columns stay continuous across the
    level crossing.  Also reports the 0 -> -1 transition frequency and the
    P1 splitting, which cross at the resonance field.
    """
    b_grid = np.asarray(b_grid_gauss, dtype=float)
    nv_p1, nv_0, nv_m1 = nv_levels(b_grid, cfg.nv).T
    # P1 levels +-gamma B/2, ascending; the stable sort keeps the zero-field
    # tie in up, down order, so B = 0 writes n_up = -0.0 and n_down = 0.0 as
    # an eigensolver does
    zeeman = cfg.nv.gamma * b_grid
    n_down, n_up = np.sort([zeeman / 2, -zeeman / 2], axis=0, kind="stable")
    return {
        "b_gauss": b_grid,
        "nv_ms0_mhz": nv_0,
        "nv_msm1_mhz": nv_m1,
        "nv_msp1_mhz": nv_p1,
        "n_up_mhz": n_up,
        "n_down_mhz": n_down,
        "f_nv_mhz": nv_m1 - nv_0,
        "f_n_mhz": n_up - n_down,
    }
