"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (run with `pytest -s tests/test_acceptance.py` to see them
as they complete)."""

import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from cli_env import cli_env
from nvspin.config import standard_config
from nvspin.dynamics import NoiseModel, expm, lindblad_trajectory, pair_collapse_ops
from nvspin.experiments import (
    exp_cw_esr,
    exp_field_sweep,
    exp_hahn,
    exp_rabi,
    exp_t2p_vs_dip,
    joint_frame_hamiltonian,
    nv_transition_mhz,
    trend_configs,
)
from nvspin.fitting import Trace, fit_damped_cosine, fit_exp_decay, fit_lorentzian
from nvspin.hamiltonian import DriveParams, resonance_field
from nvspin.pulseq import Segment, hahn_sequence, run_sequence
from oracles import (
    basis_density,
    eigensystem,
    h_nv,
    rabi_probability,
    ramsey_sequence,
    rk4_lindblad,
    spectral_peak_count,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"[FAIL] criterion {number}: {description} ({elapsed:.1f} s)")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f} s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s} s budget"


def test_criterion_1_rabi_formula_equivalence():
    with criterion(1, "two-level propagation matches the analytic nutation "
                      "formula to 1e-6 on a 100 x 10 grid", 1.0):
        # the closed-system path of every pulse sequence: run_sequence with
        # no Markovian noise, one pulse of each duration over the detunings
        f1 = 1.7
        rho0 = basis_density(2, 0)
        dfs = np.linspace(-4.0, 4.0, 10)
        worst = 0.0
        for t in np.linspace(0.0, 3.0, 100):
            p = run_sequence((Segment(t, f1),), rho0, None, dfs)
            worst = max(worst, np.max(np.abs(p - rabi_probability(f1, dfs, t))))
        assert worst < 1e-6


def test_criterion_2_esr_line_position():
    with criterion(2, "CW ESR dip at D - gamma B = 2600.1 MHz for B = 100 G", 10.0):
        cfg = replace(standard_config(), b_field_gauss=100.0)
        grid = np.linspace(2560.0, 2640.0, 161)
        trace = exp_cw_esr(cfg, grid)
        dip = trace.x[np.argmin(trace.y)]
        expected = cfg.nv.d_mhz - cfg.nv.gamma * 100.0
        assert np.isclose(expected, 2600.1, atol=0.05)
        assert abs(dip - expected) <= grid[1] - grid[0]


def test_criterion_3_sqrt_power_scaling():
    with criterion(3, "fitted f1 for powers (1, 4, 9) in ratio 1:2:3 within 1%", 30.0):
        cfg = standard_config()
        cfg = replace(cfg, noise=replace(cfg.noise, sigma_static_mhz=0.0, n_samples=1))
        result = exp_rabi(replace(cfg, rabi_powers=(1.0, 4.0, 9.0)), np.linspace(0.0, 4.0, 161))
        f1 = np.array([fit["f1_mhz"] for fit in result.fits])
        ratios = f1 / f1[0]
        assert np.all(np.abs(ratios / np.array([1.0, 2.0, 3.0]) - 1.0) < 0.01)


def test_criterion_4_echo_vs_rabi_decay_ratio():
    with criterion(4, "standard scenario: T2 = 6 us +/- 5% and T2/T2' in [2.5, 3.5]",
                   60.0):
        cfg = standard_config()
        rabi = exp_rabi(replace(cfg, rabi_powers=(1.0,)), np.linspace(0.0, 4.0, 161))
        t2p = rabi.fits[0]["t2p_us"]
        echo = exp_hahn(cfg, np.linspace(0.25, 6.0, 24))
        t2 = echo.fits[0]["t_us"]
        assert abs(t2 - 6.0) / 6.0 < 0.05
        assert 2.5 <= t2 / t2p <= 3.5


def test_criterion_5_echo_symmetry_and_refocusing():
    with criterion(5, "echo maximum at tau2 = tau1; static-noise echo deficit "
                      "< 1e-3 with Ramsey deficit >= 10x larger", 30.0):
        cfg = standard_config()
        cfg = replace(cfg, noise=replace(cfg.noise, gamma_phi=0.0,
                                         sigma_static_mhz=0.5, n_samples=48))
        result = exp_hahn(replace(cfg, echo_tau1_us=2.0), np.linspace(1.0, 3.0, 41))
        (trace,) = result.traces
        assert abs(trace.x[np.argmax(trace.y)] - 2.0) <= 2.0 / 40

        sigma = 0.3
        tau = 3.0 / (2 * np.pi * sigma) / 2  # 2 pi sigma (2 tau) = 3
        noise = NoiseModel(sigma_static_mhz=sigma, n_samples=400, seed=7)
        drive = DriveParams(f1_mhz=25.0)
        rho0 = replace(cfg.readout, polarization=1.0).density()

        def averaged(seq):
            deltas, weights = noise.ensemble()
            return weights @ run_sequence(seq, rho0, None, deltas)

        echo_deficit = 1.0 - averaged(hahn_sequence(tau, tau, drive.f1_mhz))
        ramsey_deficit = 1.0 - averaged(ramsey_sequence(2 * tau, drive.f1_mhz))
        assert echo_deficit < 1e-3
        assert ramsey_deficit >= 10 * echo_deficit


def test_criterion_6_cross_relaxation_resonance():
    with criterion(6, "I_PL dip and 1/T2' peak centers within 514.4 +/- 2 G, "
                      "mutually within 1 G; formula vs bracketed root < 0.01 G",
                   300.0):
        cfg = standard_config()
        b_star = resonance_field(cfg.nv)
        result = exp_field_sweep(cfg, np.linspace(b_star - 15.0, b_star + 15.0, 60))
        c_ipl = result.fits[0]["center"]
        c_inv = result.fits[1]["center"]
        assert abs(c_ipl - 514.4) < 2.0
        assert abs(c_inv - 514.4) < 2.0
        assert abs(c_ipl - c_inv) < 1.0

        params = cfg.nv

        def mismatch(b):
            w, _ = eigensystem(h_nv(b, params))
            return (w[1] - w[0]) - params.gamma * b

        root = scipy.optimize.brentq(mismatch, 100.0, 1000.0, xtol=1e-6)
        assert abs(root - b_star) < 0.01


def test_criterion_7_t2p_vs_dip_trend():
    with criterion(7, "three synthetic centers: T2' strictly decreasing with "
                      "normalized dip amplitude", 120.0):
        (trace,) = exp_t2p_vs_dip(trend_configs(standard_config())).traces
        assert len(trace.x) == 3
        assert np.all(np.diff(trace.x) > 0)
        assert np.all(np.diff(trace.y) < 0)


def test_criterion_8_hyperfine_beating():
    with criterion(8, "nutation spectrum: 3 peaks for mixed nuclear states, "
                      "1 peak when polarized", 30.0):
        cfg = standard_config()
        f_t = nv_transition_mhz(cfg)
        a = cfg.nv.a_par_mhz
        t_grid = np.linspace(0.0, 12.0, 481)
        base = replace(cfg, rabi_powers=(1.0,),
                       drive=replace(cfg.drive, f1_mhz=6.0, f_rf_mhz=f_t - a))
        mixed = replace(base, noise=NoiseModel(
            nuclear_splitting_mhz=a, nuclear_populations=(1 / 3, 1 / 3, 1 / 3)))
        polarized = replace(base, noise=NoiseModel(
            nuclear_splitting_mhz=a, nuclear_populations=(1.0, 0.0, 0.0)))
        n_mixed = spectral_peak_count(exp_rabi(mixed, t_grid).traces[0])
        n_pol = spectral_peak_count(exp_rabi(polarized, t_grid).traces[0])
        assert n_mixed == 3
        assert n_pol == 1


def test_criterion_9_conservation_suite():
    with criterion(9, "Lindblad trace/Hermiticity/positivity, propagator "
                      "unitarity, and 1%-noise fit round trips", 120.0):
        # Lindblad conservation on the driven pair and on the joint model
        times = np.linspace(0.0, 5.0, 26)
        cases = [
            (np.array([[0.0, 2.5], [2.5, 0.3]], dtype=complex),
             pair_collapse_ops(NoiseModel(gamma_phi=0.4, gamma_1=0.1)),
             basis_density(2, 0)),
            (joint_frame_hamiltonian(0.2, 0.0, 5.0, 0.5),
             [(np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex), 1 / 12),
              (np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex), 25.0)],
             np.kron(np.diag([0.95, 0.05]), np.eye(2) / 2).astype(complex)),
        ]
        for h, collapse, rho0 in cases:
            for rhos in (lindblad_trajectory(h, collapse, rho0, times),
                         [rk4_lindblad(h, collapse, rho0, t) for t in times[::5]]):
                for rho in rhos:
                    assert abs(np.trace(rho).real - 1.0) < 1e-7
                    assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
                    assert np.min(np.linalg.eigvalsh(rho)) > -1e-6

        # propagator unitarity
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h, t = (a + a.conj().T) / 2, rng.uniform(0.0, 3.0)
            u = expm(-2j * np.pi * h * t)
            assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

        # fit round trips at 1% noise
        for k in range(20):
            rng = np.random.default_rng(100 + k)
            amp, f1, t2p = rng.uniform(0.3, 1.5), rng.uniform(0.8, 3.0), rng.uniform(1.0, 4.0)
            t = np.linspace(0.0, 5 * t2p, 1201)
            y = 0.5 + amp * np.exp(-t / t2p) * np.cos(2 * np.pi * f1 * t + 0.4)
            y = y + rng.normal(0.0, 0.01 * amp, len(t))
            fit = fit_damped_cosine(Trace(t, y))
            assert abs(fit["f1_mhz"] - f1) / f1 < 0.01
            assert abs(fit["t2p_us"] - t2p) / t2p < 0.01
        t = np.linspace(0.0, 24.0, 2001)
        for k in range(20):
            rng = np.random.default_rng(200 + k)
            amp, tau = rng.uniform(0.5, 2.0), rng.uniform(2.0, 6.0)
            y = 0.3 + amp * np.exp(-t / tau) + rng.normal(0.0, 0.01 * amp, len(t))
            fit = fit_exp_decay(Trace(t, y))
            assert abs(fit["t_us"] - tau) / tau < 0.01
        x = np.linspace(480.0, 550.0, 561)
        for k in range(20):
            rng = np.random.default_rng(300 + k)
            amp, c, w = rng.uniform(0.5, 2.0), rng.uniform(500, 530), rng.uniform(6, 15)
            y = 1.0 - amp * (w / 2) ** 2 / ((x - c) ** 2 + (w / 2) ** 2)
            y = y + rng.normal(0.0, 0.01 * amp, len(x))
            fit = fit_lorentzian(Trace(x, y))
            assert abs(fit["center"] - c) / c < 0.01
            assert abs(fit["fwhm"] - w) / w < 0.01


@pytest.mark.parametrize("experiment,csv_name,extra",
                         [("esr", "esr.csv", "field.b_gauss = 100\nsweep.grid = 2580:2620:81\n"),
                          ("rabi", "rabi_0.csv", "sweep.grid = 0:2:81\n")])
def test_criterion_10_determinism(tmp_path, experiment, csv_name, extra):
    with criterion(10, f"byte-identical {experiment} CSVs across reruns and "
                       "thread counts", 120.0):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(extra + "noise.n_samples = 8\n")
        outputs = []
        for threads, name in (("1", "a"), ("1", "b"), ("4", "c")):
            out = tmp_path / (experiment + name)
            proc = subprocess.run(
                [sys.executable, "-m", "nvspin.cli", "run", experiment,
                 "--config", str(cfg), "--out", str(out), "--seed", "42"],
                env=cli_env(threads),
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append((out / csv_name).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
