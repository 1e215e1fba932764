import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nvspin.cli import EXPERIMENTS, run
from nvspin.config import resolve_values, standard_config
from nvspin.dynamics import (
    NoiseModel,
    lindblad_trajectory,
    pair_collapse_ops,
    steady_state,
)
from nvspin.experiments import (
    _bath_branches,
    _joint_collapse,
    _joint_p0,
    exp_cw_esr,
    exp_field_sweep,
    exp_hahn,
    exp_levels,
    exp_rabi,
    exp_t2p_vs_dip,
    joint_frame_hamiltonian,
    nv_transition_mhz,
    trend_configs,
)
from nvspin.fitting import fit_lorentzian
from nvspin.hamiltonian import frame_detuning, pair_hamiltonian, resonance_field
from nvspin.pulseq import Readout, hahn_sequence, run_sequence
from oracles import spectral_peak_count


def quiet_config(**kwargs):
    cfg = standard_config()
    noise = replace(cfg.noise, sigma_static_mhz=0.0, gamma_phi=0.0, n_samples=1)
    return replace(cfg, noise=noise, **kwargs)


class TestCwEsr:
    def test_dip_position_tracks_field(self):
        for b in (50.0, 100.0, 200.0):
            cfg = replace(quiet_config(), b_field_gauss=b)
            center = nv_transition_mhz(cfg)
            grid = np.linspace(center - 30, center + 30, 121)
            trace = exp_cw_esr(cfg, grid)
            dip = trace.x[np.argmin(trace.y)]
            expected = 2880.0 - cfg.nv.gamma * b
            assert abs(dip - expected) <= grid[1] - grid[0]

    def test_far_detuned_endpoints_near_rf_off_level(self):
        cfg = replace(quiet_config(), b_field_gauss=100.0,
                      drive=replace(quiet_config().drive, f1_mhz=1.0))
        center = nv_transition_mhz(cfg)
        trace = exp_cw_esr(cfg, np.linspace(center - 50, center + 50, 201))
        rf_off = cfg.readout.photons  # fully polarized without the drive
        assert abs(trace.y[0] - rf_off) / rf_off < 0.01
        assert abs(trace.y[-1] - rf_off) / rf_off < 0.01

    def test_power_broadening(self):
        cfg = replace(quiet_config(), b_field_gauss=100.0)
        center = nv_transition_mhz(cfg)
        grid = np.linspace(center - 40, center + 40, 161)
        widths = []
        for f1 in (1.0, 3.0):
            tuned = replace(cfg, drive=replace(cfg.drive, f1_mhz=f1))
            widths.append(fit_lorentzian(exp_cw_esr(tuned, grid))["fwhm"])
        assert widths[1] > widths[0]


class TestRabi:
    T_GRID = np.linspace(0.0, 4.0, 161)

    def test_sqrt_power_frequency_ratios(self):
        cfg = quiet_config()
        result = exp_rabi(replace(cfg, rabi_powers=(1.0, 4.0, 9.0)), self.T_GRID)
        f1 = np.array([fit["f1_mhz"] for fit in result.fits])
        ratios = f1 / f1[0]
        assert np.all(np.abs(ratios - np.array([1.0, 2.0, 3.0])) < 0.01)

    def test_noise_free_residual_and_bound(self):
        cfg = quiet_config()
        result = exp_rabi(replace(cfg, rabi_powers=(1.0,)), self.T_GRID)
        fit = result.fits[0]
        assert fit.residual_norm < 1e-6 * cfg.readout.photons
        assert "at_bound" in fit.flags
        assert fit["t2p_us"] == 100.0 * (self.T_GRID[-1] - self.T_GRID[0])

    def test_t2p_grows_with_rabi_frequency(self):
        # static noise is refocused more effectively under faster driving
        cfg = standard_config()
        result = exp_rabi(replace(cfg, rabi_powers=(1.0, 4.0, 9.0)), self.T_GRID)
        t2p = [fit["t2p_us"] for fit in result.fits]
        assert t2p[0] < t2p[1] < t2p[2]

    def test_contrast_scales_with_readout(self):
        cfg = quiet_config()
        double = replace(cfg, readout=replace(cfg.readout, contrast=0.6))
        a = exp_rabi(replace(cfg, rabi_powers=(1.0,)), self.T_GRID).traces[0].y
        b = exp_rabi(replace(double, rabi_powers=(1.0,)), self.T_GRID).traces[0].y
        assert np.allclose(np.ptp(b), 2 * np.ptp(a), rtol=1e-9)

    def test_bit_reproducible(self):
        cfg = standard_config()
        a = exp_rabi(replace(cfg, rabi_powers=(1.0,)), self.T_GRID).traces[0].y
        b = exp_rabi(replace(cfg, rabi_powers=(1.0,)), self.T_GRID).traces[0].y
        assert np.array_equal(a, b)


class TestHyperfineBeating:
    T_GRID = np.linspace(0.0, 12.0, 481)

    def scenario(self, populations):
        cfg = standard_config()
        f_t = nv_transition_mhz(cfg)
        a = cfg.nv.a_par_mhz
        # drive sits on the m_I = +1 hyperfine line (detuning branch -A)
        return replace(
            cfg,
            noise=NoiseModel(nuclear_splitting_mhz=a, nuclear_populations=populations),
            drive=replace(cfg.drive, f1_mhz=6.0, f_rf_mhz=f_t - a),
        )

    def test_mixed_nucleus_shows_three_peaks(self):
        cfg = self.scenario((1 / 3, 1 / 3, 1 / 3))
        trace = exp_rabi(replace(cfg, rabi_powers=(1.0,)), self.T_GRID).traces[0]
        assert spectral_peak_count(trace) == 3

    def test_polarized_nucleus_single_peak(self):
        cfg = self.scenario((1.0, 0.0, 0.0))
        trace = exp_rabi(replace(cfg, rabi_powers=(1.0,)), self.T_GRID).traces[0]
        assert spectral_peak_count(trace) == 1


class TestHahn:
    def test_echo_decay_time_from_markovian_rate(self):
        cfg = standard_config()
        result = exp_hahn(cfg, np.linspace(0.25, 6.0, 24))
        t2 = result.fits[0]["t_us"]
        assert abs(t2 - 6.0) / 6.0 < 0.05

    def test_noise_off_echo_flat_at_maximum(self):
        cfg = quiet_config()
        result = exp_hahn(cfg, np.linspace(0.25, 6.0, 12))
        y = result.traces[0].y
        assert np.ptp(y) < 1e-6 * cfg.readout.photons
        p_max = cfg.readout.photons
        assert np.all(np.abs(y - p_max * (1 - 0.3 * (1 - 0.95))) < 1e-6 * p_max)

    def test_tau2_sweep_peaks_at_tau1(self):
        cfg = standard_config()
        cfg = replace(cfg, noise=replace(cfg.noise, gamma_phi=0.0,
                                         sigma_static_mhz=0.5, n_samples=48))
        result = exp_hahn(replace(cfg, echo_tau1_us=2.0), np.linspace(1.0, 3.0, 41))
        step = 2.0 / 40
        (trace,) = result.traces
        assert abs(trace.x[np.argmax(trace.y)] - 2.0) <= step

    def test_bit_reproducible(self):
        cfg = standard_config()
        tau_grid = np.linspace(0.5, 3.0, 6)
        a = exp_hahn(cfg, tau_grid).traces[0].y
        b = exp_hahn(cfg, tau_grid).traces[0].y
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tau1_us", [None, 3.0])
    def test_initialises_and_reads_out_once(self, monkeypatch, tau1_us):
        # one laser initialisation and one readout per trace, as in every
        # other experiment, however many delays the grid holds
        calls = {"density": 0, "counts": 0}

        def counting(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Readout, "density", counting("density", Readout.density))
        monkeypatch.setattr(Readout, "counts", counting("counts", Readout.counts))
        exp_hahn(replace(standard_config(), echo_tau1_us=tau1_us), np.linspace(0.25, 6.0, 24))
        assert calls == {"density": 1, "counts": 1}


def looped_joint_p0(cfg, b_gauss, f1_mhz, times):
    """Reference for the stacked joint model: one trajectory per P1 branch
    and ensemble member, averaged in a loop."""
    nu0 = cfg.nv.gamma * b_gauss - nv_transition_mhz(cfg, b_gauss)
    rho0 = np.kron(cfg.readout.density(), np.eye(2) / 2)
    collapse = _joint_collapse(cfg.noise, cfg.bath)
    total = np.zeros(len(times))
    for shift, bath_weight in zip(*_bath_branches(cfg.bath)):
        for delta, weight in zip(*cfg.noise.ensemble()):
            h = joint_frame_hamiltonian(delta, nu0 + shift, f1_mhz, cfg.bath.coupling_mhz)
            rhos = lindblad_trajectory(h, collapse, rho0, times)
            total += bath_weight * weight * (rhos[:, 0, 0].real + rhos[:, 1, 1].real)
    return total


class TestJointModel:
    @pytest.mark.parametrize("f1", [0.0, 5.0])
    def test_contains_the_driven_pair(self, f1):
        # the N-V factor is the pair model itself; the P1 spin adds its
        # splitting, the -2 J Sz Sz shift and the J/sqrt(2) exchange
        cfg = standard_config()
        fields = resonance_field(cfg.nv) + np.array([-15.0, 0.0, 2.5])
        nu = cfg.nv.gamma * fields - nv_transition_mhz(cfg, fields)
        deltas, _ = cfg.noise.ensemble()
        j = cfg.bath.coupling_mhz
        eye, sz_half = np.eye(2), np.diag([0.5, -0.5])
        exchange = np.zeros((4, 4))
        exchange[0, 3] = exchange[3, 0] = j / np.sqrt(2.0)
        expected = (np.kron(pair_hamiltonian(deltas, f1), eye)
                    + nu[:, None, None, None] * np.kron(eye, sz_half)
                    - 2.0 * j * np.kron(np.diag([0.0, -1.0]), sz_half)
                    + exchange)
        h = joint_frame_hamiltonian(deltas, nu[:, None], f1, j)
        assert h.shape == (len(fields), len(deltas), 4, 4)
        assert np.array_equal(h, expected)

    @pytest.mark.parametrize("hyperfine", [False, True])
    @pytest.mark.parametrize("b_gauss", [514.0, 530.0])
    def test_stack_matches_single_member_loop(self, b_gauss, hyperfine):
        cfg = standard_config()
        noise = replace(cfg.noise, n_samples=5)
        if hyperfine:
            noise = replace(noise, nuclear_splitting_mhz=cfg.nv.a_par_mhz,
                            nuclear_populations=(0.5, 0.0, 0.3))
        cfg = replace(cfg, noise=noise,
                      bath=replace(cfg.bath, include_n_nucleus=hyperfine))
        for f1, times in ((0.0, [cfg.t_wait_us]), (5.0, np.linspace(0.0, 4.0, 161))):
            stacked = _joint_p0(cfg, b_gauss, f1, times)
            assert stacked.shape == (len(times),)
            assert np.max(np.abs(stacked - looped_joint_p0(cfg, b_gauss, f1, times))) <= 1e-9

    def test_field_stack_matches_per_field_calls(self):
        # six fields of 24 members span two trajectory blocks, and the dark
        # wait mixes on- and off-resonance 1-norms in one block
        cfg = standard_config()
        fields = resonance_field(cfg.nv) + np.array([-15.0, -4.0, -0.3, 0.0, 2.5, 15.0])
        for f1, times in ((0.0, [cfg.t_wait_us]), (5.0, np.linspace(0.0, 4.0, 161))):
            stacked = _joint_p0(cfg, fields, f1, times)
            assert stacked.shape == (len(fields), len(times))
            per_field = np.array([_joint_p0(cfg, b, f1, times) for b in fields])
            assert np.max(np.abs(stacked - per_field)) <= 1e-12


def member_average(cfg, member):
    """``member(delta)`` for each detuning of the ensemble, one call at a
    time, averaged with the member weights."""
    deltas, weights = cfg.noise.ensemble()
    return weights @ np.array([member(float(delta)) for delta in deltas])


def looped_esr(cfg, f_grid):
    """``exp_cw_esr`` as one steady state per member and grid point."""
    f_t = nv_transition_mhz(cfg)
    markov = replace(cfg.noise, gamma_phi=cfg.laser_dephasing + cfg.noise.gamma_phi)
    collapse = [(np.array([[0, 1], [0, 0]], dtype=complex), cfg.pump_rate),
                *pair_collapse_ops(markov)]

    def member(delta):
        p0 = [steady_state(pair_hamiltonian(f_t + delta - f, cfg.drive.f1_mhz),
                           collapse)[0, 0].real for f in f_grid]
        return cfg.readout.counts(np.array(p0))

    return member_average(cfg, member)


def frame(cfg, f1):
    return pair_hamiltonian(
        frame_detuning(cfg.b_field_gauss, cfg.nv, replace(cfg.drive, f1_mhz=f1)), f1)


def looped_rabi(cfg, t_grid, power):
    """One ``exp_rabi`` power as one trajectory per member."""
    h_base = frame(cfg, cfg.drive.f1_mhz * np.sqrt(power))

    def member(delta):
        h = h_base.copy()
        h[1, 1] += delta
        rhos = lindblad_trajectory(h, pair_collapse_ops(cfg.noise), cfg.readout.density(), t_grid)
        return cfg.readout.counts(rhos[:, 0, 0].real)

    return member_average(cfg, member)


def looped_hahn(cfg, tau_grid, tau1_us):
    """``exp_hahn`` as one scalar-detuning sequence per member and delay."""
    base = frame(cfg, cfg.drive.f1_mhz)[1, 1].real

    def member(delta):
        y = []
        for tau in tau_grid:
            tau1 = tau if tau1_us is None else tau1_us
            p0 = run_sequence(hahn_sequence(tau1, tau, cfg.drive.f1_mhz), cfg.readout.density(),
                              cfg.noise, base + delta)
            y.append(cfg.readout.counts(p0))
        return np.array(y)

    return member_average(cfg, member)


def max_rel(a, b):
    return np.max(np.abs(a - b) / np.abs(b))


class TestEnsembleStack:
    """Each driver's one stack over the ensemble against a loop over its
    members, averaged with the ensemble weights."""

    @staticmethod
    def config():
        cfg = standard_config()
        noise = replace(cfg.noise, n_samples=4, nuclear_splitting_mhz=cfg.nv.a_par_mhz,
                        nuclear_populations=(0.2, 0.5, 0.3))
        cfg = replace(cfg, noise=noise)
        # a drive off resonance gives the frame a nonzero base detuning
        return replace(cfg, drive=replace(cfg.drive, f_rf_mhz=nv_transition_mhz(cfg) - 0.4))

    def test_esr(self):
        cfg = self.config()  # ESR sweeps the drive frequency, so f_rf_mhz is unused
        f_t = nv_transition_mhz(cfg)
        f_grid = np.linspace(f_t - 10.0, f_t + 10.0, 7)
        assert max_rel(exp_cw_esr(cfg, f_grid).y, looped_esr(cfg, f_grid)) <= 1e-12

    def test_rabi(self):
        cfg = self.config()
        t_grid = np.linspace(0.0, 2.0, 101)
        result = exp_rabi(replace(cfg, rabi_powers=(1.0, 4.0)), t_grid)
        for trace, power in zip(result.traces, (1.0, 4.0)):
            assert max_rel(trace.y, looped_rabi(cfg, t_grid, power)) <= 1e-12

    @pytest.mark.parametrize("tau1_us", [None, 2.0])
    def test_hahn(self, tau1_us):
        cfg = self.config()
        tau_grid = np.linspace(0.5, 3.0, 5)
        trace = exp_hahn(replace(cfg, echo_tau1_us=tau1_us), tau_grid).traces[0]
        assert max_rel(trace.y, looped_hahn(cfg, tau_grid, tau1_us)) <= 1e-12


class TestFieldSweep:
    def test_decoupled_limit_flat(self):
        cfg = quiet_config()
        cfg = replace(cfg, bath=replace(cfg.bath, coupling_mhz=0.0),
                      noise=replace(cfg.noise, gamma_phi=1.0 / 6.0))
        b_grid = np.linspace(500.0, 530.0, 11)
        result = exp_field_sweep(cfg, b_grid)
        ipl, inv = result.traces
        assert np.ptp(ipl.y) < 1e-6 * cfg.readout.photons
        assert np.ptp(inv.y) / np.mean(inv.y) < 1e-3

    def test_decoupled_decoherence_rate_unidentifiable(self):
        # without a bath coupling 1/T2' is flat to rounding (6.4e-15 of its
        # size on the default sweep), which locates no peak
        cfg = standard_config()
        cfg = replace(cfg, bath=replace(cfg.bath, coupling_mhz=0.0))
        result = exp_field_sweep(cfg, EXPERIMENTS["fieldsweep"].grid(cfg))
        assert all("unidentifiable" in fit.flags for fit in result.fits[:2])

    def test_centers_coincide_at_resonance(self):
        cfg = standard_config()
        b_star = resonance_field(cfg.nv)
        result = exp_field_sweep(cfg, np.linspace(b_star - 12, b_star + 12, 49))
        c_ipl = result.fits[0]["center"]
        c_inv = result.fits[1]["center"]
        assert abs(c_ipl - b_star) < 2.0
        assert abs(c_inv - b_star) < 2.0
        assert abs(c_ipl - c_inv) < 1.0
        assert result.fits[0]["amplitude"] < 0  # photoluminescence dips
        assert result.fits[1]["amplitude"] > 0  # decoherence rate peaks

    def test_off_resonance_baseline_flat(self):
        cfg = standard_config()
        b_star = resonance_field(cfg.nv)
        fields = np.concatenate([
            np.linspace(b_star - 80, b_star - 50, 5),
            np.linspace(b_star + 50, b_star + 80, 5),
        ])
        result = exp_field_sweep(cfg, np.sort(fields))
        inv = result.traces[1].y
        assert np.max(np.abs(inv - np.mean(inv))) / np.mean(inv) < 0.10

    def test_hyperfine_sidepeaks_symmetric(self):
        cfg = standard_config()
        cfg = replace(cfg, bath=replace(cfg.bath, include_n_nucleus=True,
                                        a_n_par_mhz=100.0),
                      noise=replace(cfg.noise, n_samples=8))
        b_star = resonance_field(cfg.nv)
        side = cfg.bath.a_n_par_mhz / (2 * cfg.nv.gamma)
        b_grid = np.linspace(b_star - side - 8, b_star + side + 8, 81)
        result = exp_field_sweep(cfg, b_grid)
        ipl, inv = result.traces
        baseline = np.median(ipl.y)
        peak_base = np.median(inv.y)
        for b_line in (b_star - side, b_star, b_star + side):
            window = np.abs(b_grid - b_line) < 3.0
            assert ipl.y[window].min() < baseline - 0.5 * np.ptp(ipl.y) * 0.2
            assert inv.y[window].max() > peak_base + 0.5 * np.ptp(inv.y) * 0.2

    def test_memory_peak_of_default_sweep(self):
        # a larger block or state buffer shows here before it reaches the
        # benchmark's 5% bound on peak RSS: a default sweep peaked at 4.2 MiB
        # with the per-step loop, 4.2 MiB with TRAJECTORY_STATES at 48 x 162,
        # 6.3 MiB at 96 x 162 and 6.6 MiB with all 1,440 members in one block
        # (after a small sweep has loaded every module)
        cfg = standard_config()
        exp_field_sweep(cfg, np.linspace(510.0, 520.0, 7))
        tracemalloc.start()
        try:
            exp_field_sweep(cfg, EXPERIMENTS["fieldsweep"].grid(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.4 * 2**20

    def test_matches_stored_per_step_sweep(self):
        # tests/data/fieldsweep_default.csv is the default sweep as the
        # per-step stepper and the scalar fits wrote it (commit 2d5895d), and
        # the centres are that run's.  Doubling reorders the trajectory
        # arithmetic by about 3e-15 relative, and a fit that stops on ftol
        # fixes T2' only to about 1e-8 (3e-8 seen at 2 of 60 fields), so T2'
        # is held to 1e-7 and the Lorentzian centres to 1e-10
        cfg = standard_config()
        b_grid = EXPERIMENTS["fieldsweep"].grid(cfg)
        sweep = exp_field_sweep(cfg, b_grid)
        stored = np.loadtxt(Path(__file__).parent / "data" / "fieldsweep_default.csv",
                            delimiter=",", skiprows=1)
        ipl, inv = sweep.traces
        assert np.array_equal(b_grid, stored[:, 0])
        assert np.max(np.abs(ipl.y / stored[:, 1] - 1.0)) <= 1e-12
        t2p = np.array([fit["t2p_us"] for fit in sweep.fits[2:]])
        assert np.max(np.abs(t2p / stored[:, 3] - 1.0)) <= 1e-7
        assert np.max(np.abs(inv.y / stored[:, 2] - 1.0)) <= 1e-7
        assert abs(sweep.fits[0]["center"] / 514.3370058219517 - 1.0) <= 1e-10
        assert abs(sweep.fits[1]["center"] / 514.3678951710383 - 1.0) <= 1e-10

    def test_reports_each_rabi_fit(self, tmp_path):
        run("fieldsweep", resolve_values("sweep.grid = 505:524:8\nnoise.n_samples = 4\n"),
            tmp_path)
        lines = (tmp_path / "fieldsweep.csv").read_text().splitlines()
        assert lines[0].endswith(",t2p_us,rabi_converged,rabi_at_bound")
        flags = [line.split(",")[-2:] for line in lines[1:]]
        assert len(flags) == 8 and {value for row in flags for value in row} <= {"1.0", "0.0"}
        data = np.loadtxt(tmp_path / "fieldsweep.csv", delimiter=",", skiprows=1)
        assert data.shape == (8, 6)


class TestTrend:
    def test_strictly_decreasing(self):
        (trace,) = exp_t2p_vs_dip(trend_configs(standard_config())).traces
        assert np.all(np.diff(trace.x) > 0)
        assert np.all(np.diff(trace.y) < 0)

    def test_duplicated_center_identical_points(self):
        cfg = standard_config()
        cfgs = trend_configs(cfg)
        (trace,) = exp_t2p_vs_dip([cfgs[1], cfgs[1]]).traces
        assert trace.x[0] == trace.x[1]
        assert trace.y[0] == trace.y[1]

    def test_zero_coupling_center(self):
        cfg = standard_config()
        zero = replace(cfg, bath=replace(cfg.bath, coupling_mhz=0.0),
                       noise=replace(cfg.noise, sigma_static_mhz=0.0))
        strong = trend_configs(cfg)[-1]
        (trace,) = exp_t2p_vs_dip([zero, strong]).traces
        assert abs(trace.x[0]) < 1e-12
        assert trace.y[0] > trace.y[1]


class TestLevels:
    def test_crossing_geometry(self):
        cfg = standard_config()
        b_grid = np.linspace(0.0, 1100.0, 221)
        cols = exp_levels(cfg, b_grid)
        # N-V transition falls with field, P1 splitting rises; they cross at B*
        mismatch = cols["f_nv_mhz"] - cols["f_n_mhz"]
        sign_change = np.where(np.diff(np.sign(mismatch)))[0]
        assert len(sign_change) == 1
        b_cross = b_grid[sign_change[0]]
        assert abs(b_cross - resonance_field(cfg.nv)) < b_grid[1] - b_grid[0]

    def test_crossing_follows_g_factor(self):
        # both electrons share nv.g, as in the field sweep's resonance field
        cfg = standard_config()
        cfg = replace(cfg, nv=replace(cfg.nv, g=2.02))
        b_grid = np.linspace(500.0, 530.0, 301)
        cols = exp_levels(cfg, b_grid)
        mismatch = cols["f_nv_mhz"] - cols["f_n_mhz"]
        b_cross = b_grid[np.where(np.diff(np.sign(mismatch)))[0][0]]
        assert abs(b_cross - resonance_field(cfg.nv)) < b_grid[1] - b_grid[0]

    def test_zero_field_levels(self):
        cfg = standard_config()
        cols = exp_levels(cfg, np.array([0.0, 100.0]))
        assert np.isclose(cols["nv_ms0_mhz"][0], 0.0, atol=1e-9)
        assert np.isclose(cols["nv_msm1_mhz"][0], 2880.0, atol=1e-9)
        assert np.isclose(cols["nv_msp1_mhz"][0], 2880.0, atol=1e-9)
        # m_S = -1 comes down, +1 goes up
        assert cols["nv_msm1_mhz"][1] < 2880.0 < cols["nv_msp1_mhz"][1]


# small grids and a two-member ensemble for a run of each experiment
SMALL_RUNS = {
    "esr": "sweep.grid = 480:520:21",
    "rabi": "sweep.grid = 0:2:81\nrabi.powers = 1",
    "echo": "sweep.grid = 0.5:3:6",
    "fieldsweep": "sweep.grid = 500:530:11",
    "trend": "trend.couplings_mhz = 0.3,1",
    "levels": "sweep.grid = 0:1100:12",
}


def test_experiments_run_without_an_eigensolver(tmp_path, monkeypatch):
    # the field lies along the N-V axis, so every level is in closed form
    def no_eigh(*_args, **_kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for experiment, text in SMALL_RUNS.items():
        values = resolve_values(f"noise.n_samples = 2\n{text}\n")
        run(experiment, values, tmp_path / experiment)
        assert (tmp_path / experiment / "manifest.txt").exists()


class TestConfigDefaults:
    def test_standard_config_reference_values(self):
        cfg = standard_config()
        assert cfg.nv.d_mhz == 2880.0
        assert cfg.nv.g == 2.00
        assert np.isclose(1.0 / cfg.noise.gamma_phi, 6.0)
