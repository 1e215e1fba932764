import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nvspin
from nvspin import dynamics, experiments, hamiltonian, pulseq, spinops
from nvspin.cli import _default_grid
from nvspin.config import standard_config
from nvspin.dynamics import (
    DegenerateSteadyStateError,
    NoiseModel,
    build_liouvillian,
    evolve_lindblad,
    lindblad_trajectory,
    pair_collapse_ops,
    steady_state,
    validate_density,
)
from nvspin.experiments import (
    RABI_WINDOW_US,
    _joint_collapse,
    _joint_p0,
    joint_frame_hamiltonian,
    nv_transition_mhz,
)
from nvspin.fitting import Trace, fit_exp_decay
from nvspin.hamiltonian import DriveParams, pair_hamiltonian, resonance_field
from nvspin.pulseq import LaserInit, hahn_sequence, run_sequence
from nvspin.spinops import NonHermitianError
from oracles import (
    basis_density,
    propagate,
    rabi_probability,
    ramsey_sequence,
    rk4_lindblad,
    stepped_trajectory,
)


def rwa_hamiltonian(f1, df):
    return np.array([[0.0, f1 / 2], [f1 / 2, df]], dtype=complex)


SZ = np.diag([1.0, -1.0]).astype(complex)


class TestRabiProbability:
    """The closed-form nutation reference of ``oracles.py``."""

    def test_zero_time(self):
        assert rabi_probability(1.3, 0.7, 0.0) == 1.0

    def test_full_pi_rotation(self):
        assert abs(rabi_probability(1.0, 0.0, 0.5)) < 1e-12

    def test_half_contrast_point(self):
        p = rabi_probability(1.0, 1.0, 1.0 / (2 * np.sqrt(2)))
        assert np.isclose(p, 0.5, atol=1e-12)

    def test_zero_drive_zero_detuning(self):
        assert rabi_probability(0.0, 0.0, 3.0) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        f1=st.floats(0.0, 10.0),
        df=st.floats(-10.0, 10.0),
        t=st.floats(0.0, 10.0),
    )
    def test_bounds(self, f1, df, t):
        p = rabi_probability(f1, df, t)
        denom = f1**2 + df**2
        floor = 1.0 - (f1**2 / denom if denom > 0 else 0.0)
        assert floor - 1e-12 <= p <= 1.0 + 1e-12


class TestPropagate:
    """The unitary reference integrator of ``oracles.py``."""

    def test_empty_segments(self):
        rho0 = basis_density(2, 0)
        assert np.allclose(propagate([], rho0), rho0)

    def test_matches_rabi_formula_on_grid(self):
        # analytic nutation formula as oracle, 100 x 10 grid
        rho0 = basis_density(2, 0)
        ts = np.linspace(0.0, 4.0, 100)
        dfs = np.linspace(-3.0, 3.0, 10)
        worst = 0.0
        for df in dfs:
            h = rwa_hamiltonian(1.3, df)
            for t in ts:
                p_num = propagate([(h, t)], rho0)[0, 0].real
                worst = max(worst, abs(p_num - rabi_probability(1.3, df, t)))
        assert worst < 1e-6

    def test_time_reversal(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (a + a.conj().T) / 2
        rho0 = basis_density(3, 1)
        rho = propagate([(h, 0.37), (-h, 0.37)], rho0)
        assert np.max(np.abs(rho - rho0)) < 1e-9

    def test_preserves_trace_and_hermiticity(self):
        h = rwa_hamiltonian(2.0, 0.5)
        rho = propagate([(h, 0.123)], basis_density(2, 0))
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            propagate([(rwa_hamiltonian(1, 0), -1.0)], basis_density(2, 0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            propagate([(rwa_hamiltonian(1, 0), 0.1)], basis_density(3, 0))


class TestEvolveLindblad:
    def test_closed_system_matches_propagate(self):
        h = rwa_hamiltonian(1.7, 0.4)
        rho0 = basis_density(2, 0)
        a = evolve_lindblad(h, [], rho0, 0.9)
        b = propagate([(h, 0.9)], rho0)
        assert np.max(np.abs(a - b)) < 1e-7

    def test_pure_dephasing_analytic(self):
        gamma_phi = 0.8
        rho0 = np.full((2, 2), 0.5, dtype=complex)
        t = 1.0 / gamma_phi
        out = evolve_lindblad(np.zeros((2, 2), dtype=complex),
                              [(SZ, gamma_phi / 2)], rho0, t)
        assert abs(out[0, 1].real - 0.5 * np.exp(-1.0)) < 1e-4

    def test_relaxation_analytic(self):
        gamma_1 = 0.5
        lower = np.zeros((2, 2), dtype=complex)
        lower[0, 1] = 1.0
        rho0 = basis_density(2, 1)
        for t in (0.5, 2.0):
            out = evolve_lindblad(np.zeros((2, 2), dtype=complex),
                                  [(lower, gamma_1)], rho0, t)
            assert abs(out[1, 1].real - np.exp(-gamma_1 * t)) < 1e-7

    def test_rk4_agrees_with_expm(self):
        h = rwa_hamiltonian(3.0, 1.0)
        collapse = [(SZ, 0.3), (np.array([[0, 1], [0, 0]], dtype=complex), 0.2)]
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        a = evolve_lindblad(h, collapse, rho0, 1.5)
        b = rk4_lindblad(h, collapse, rho0, 1.5)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_conservation_along_trajectory(self):
        h = rwa_hamiltonian(5.0, 1.0)
        collapse = pair_collapse_ops(NoiseModel(gamma_phi=0.4, gamma_1=0.1))
        times = np.linspace(0.0, 4.0, 41)
        rhos = lindblad_trajectory(h, collapse, basis_density(2, 0), times)
        for rho in rhos:
            assert abs(np.trace(rho).real - 1.0) < 1e-7
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-6

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            evolve_lindblad(np.array([[0, 1], [0, 0]], dtype=complex), [],
                            basis_density(2, 0), 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        # raised by the guard, before the exponential could warn or fail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"finite and >= 0, got {t}"):
                evolve_lindblad(rwa_hamiltonian(1.0, 0.0), [(SZ, 0.5)],
                                basis_density(2, 0), t)

    def test_non_hermitian_rejected_at_zero_time(self):
        # a zero step returns rho0 unchanged, but still checks the Hamiltonian
        with pytest.raises(NonHermitianError, match="Hermitian"):
            evolve_lindblad(np.array([[0, 1], [0, 0]], dtype=complex), [],
                            basis_density(2, 0), 0.0)

    def test_trajectory_rejects_non_hermitian_stack(self):
        hs = np.array([rwa_hamiltonian(1.0, df) for df in (0.0, 0.5)])
        hs[1, 0, 1] += 0.1j
        with pytest.raises(NonHermitianError):
            lindblad_trajectory(hs, [], basis_density(2, 0), [0.0, 1.0])

    def test_trajectory_rejects_state_dimension_mismatch(self):
        h = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValueError, match="dimensions"):
            lindblad_trajectory(h, [], basis_density(2, 0), [0.0, 1.0])

    def test_trajectory_rejects_non_finite_times(self):
        with pytest.raises(ValueError, match="finite"):
            lindblad_trajectory(rwa_hamiltonian(1.0, 0.0), [], basis_density(2, 0),
                                [0.0, np.nan, 1.0])

    def test_trajectory_rejects_stacked_state(self):
        rhos = np.array([basis_density(2, 0), basis_density(2, 1)])
        with pytest.raises(ValueError, match=r"rho0 must be one \(d, d\) state"):
            lindblad_trajectory(rwa_hamiltonian(1.0, 0.0), [], rhos, [0.0, 1.0])

    def test_trajectory_matches_single_shot(self):
        h = rwa_hamiltonian(2.0, -0.7)
        collapse = [(SZ, 0.25)]
        rho0 = basis_density(2, 0)
        times = np.array([0.0, 0.4, 1.1])
        traj = lindblad_trajectory(h, collapse, rho0, times)
        for t, rho in zip(times, traj):
            direct = evolve_lindblad(h, collapse, rho0, t)
            assert np.max(np.abs(rho - direct)) < 1e-9

    def test_trajectory_defective_liouvillian_fallback(self):
        # equal-rate decay cascade |2> -> |1> -> |0>: the Liouvillian has a
        # Jordan block, which no eigenbasis can represent; the middle
        # population is analytic, t exp(-t)
        collapse = cascade_collapse()
        h = np.zeros((3, 3), dtype=complex)
        times = np.linspace(0.0, 3.0, 7)
        traj = lindblad_trajectory(h, collapse, basis_density(3, 2), times)
        for t, rho in zip(times, traj):
            assert abs(rho[1, 1].real - t * np.exp(-t)) < 1e-9
            assert abs(np.trace(rho).real - 1.0) < 1e-9

    def test_liouvillian_shape(self):
        liou = build_liouvillian(rwa_hamiltonian(1, 0), [(SZ, 0.1)])
        assert liou.shape == (4, 4)


def test_reference_paths_are_not_library_api():
    # the library has one evolution path and closed-form static levels; the
    # references live in tests/oracles.py
    moved = ("propagate", "expm_unitary", "rabi_probability", "basis_density",
             "_rk4_steps", "_lindblad_rhs", "spectral_peak_count", "ramsey_sequence",
             "spin_matrices", "SUPPORTED_SPINS", "UnsupportedSpinError", "eigensystem",
             "h_nv", "h_n", "rotating_frame")
    for module in (nvspin, dynamics, spinops, hamiltonian, experiments, pulseq):
        assert not [name for name in moved if hasattr(module, name)], module
    assert not set(moved) & set(nvspin.__all__)
    with pytest.raises(TypeError):
        evolve_lindblad(rwa_hamiltonian(1.0, 0.0), [], basis_density(2, 0), 1.0,
                        method="rk4")


def kron_liouvillian(h, collapse_ops):
    """The Kronecker-product form of the Lindblad generator, as the oracle."""
    ident = np.eye(h.shape[0])
    liou = -2j * np.pi * (np.kron(h, ident) - np.kron(ident, h.T))
    for op, rate in collapse_ops:
        opd_op = op.conj().T @ op
        liou = liou + rate * (np.kron(op, op.conj())
                              - 0.5 * (np.kron(opd_op, ident) + np.kron(ident, opd_op.T)))
    return liou


def cascade_collapse():
    # equal-rate decay cascade |2> -> |1> -> |0>
    lower_21 = np.zeros((3, 3), dtype=complex)
    lower_21[1, 2] = 1.0
    lower_10 = np.zeros((3, 3), dtype=complex)
    lower_10[0, 1] = 1.0
    return [(lower_21, 1.0), (lower_10, 1.0)]


class TestHamiltonianStacks:
    """Stacked Hamiltonians against one-at-a-time reference paths."""

    def test_stacked_liouvillian_matches_kron_form(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 3, 3)) + 1j * rng.normal(size=(2, 3, 3, 3))
        hs = (a + np.conj(np.swapaxes(a, -1, -2))) / 2
        ops = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
        collapse = [(ops[0], 0.3), (ops[1], 1.7)]
        stacked = build_liouvillian(hs, collapse)
        assert stacked.shape == (2, 3, 9, 9)
        assert stacked.dtype == np.float64
        # the generator is real in the orthonormal Hermitian basis T
        basis, norm, _ = dynamics._hermitian_basis(3)
        t = basis / norm
        assert np.max(np.abs(t.conj().T @ t - np.eye(9))) <= 1e-15
        for idx in np.ndindex(2, 3):
            oracle = t.conj().T @ kron_liouvillian(hs[idx], collapse) @ t
            assert np.max(np.abs(stacked[idx] - oracle)) <= 1e-12

    def test_stacked_trajectory_matches_expm_per_member(self):
        hs = np.array([[rwa_hamiltonian(f1, df) for df in (-1.5, 0.0, 0.8)]
                       for f1 in (1.0, 4.0)])
        collapse = pair_collapse_ops(NoiseModel(gamma_phi=0.4, gamma_1=0.1))
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        times = np.array([0.0, 0.3, 1.1, 2.5])
        traj = lindblad_trajectory(hs, collapse, rho0, times)
        assert traj.shape == (2, 3, 4, 2, 2)
        for idx in np.ndindex(2, 3):
            for t, rho in zip(times, traj[idx]):
                direct = evolve_lindblad(hs[idx], collapse, rho0, t)
                assert np.max(np.abs(rho - direct)) <= 1e-9
                assert np.array_equal(rho, rho.conj().T)

    def test_defective_member_and_propagator_count(self, monkeypatch):
        # a Jordan-block member beside a generic one: both follow their own
        # trajectory, and the stack costs one exponential per distinct step
        expm_calls = []
        expm = dynamics.expm

        def counted(a):
            expm_calls.append(a)
            return expm(a)

        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        hs = np.array([np.zeros((3, 3)), (a + a.conj().T) / 2], dtype=complex)
        collapse = cascade_collapse()
        rho0 = basis_density(3, 2)
        times = np.linspace(0.0, 3.0, 7)
        single = lindblad_trajectory(hs[1], collapse, rho0, times)
        monkeypatch.setattr(dynamics, "expm", counted)
        traj = lindblad_trajectory(hs, collapse, rho0, times)
        # a uniform grid reuses one propagator
        assert len(expm_calls) == 1
        for t, rho in zip(times, traj[0]):
            assert abs(rho[1, 1].real - t * np.exp(-t)) < 1e-9
            assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.max(np.abs(traj[1] - single)) <= 1e-9
        expm_calls.clear()
        lindblad_trajectory(hs, collapse, rho0, np.array([0.0, 0.3, 1.1, 2.5]))
        assert len(expm_calls) == 3

    @pytest.mark.parametrize("df", [0.0, 0.7, -2.2])
    def test_closed_nutation_matches_rabi_formula(self, df):
        # a closed-system Liouvillian is degenerate; stepping it on a long
        # grid must still give the two-level formula to rounding
        times = np.linspace(0.0, 12.0, 481)
        traj = lindblad_trajectory(rwa_hamiltonian(6.0, df), [], basis_density(2, 0), times)
        assert np.max(np.abs(traj[:, 0, 0].real - rabi_probability(6.0, df, times))) <= 1e-12

    def test_stacked_evolve_matches_per_member(self):
        hs = np.array([rwa_hamiltonian(f1, df)
                       for f1, df in ((5.0, 0.0), (5.0, -1.3), (0.0, 0.7))])
        collapse = pair_collapse_ops(NoiseModel(gamma_phi=0.4, gamma_1=0.1))
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        rhos = np.array([rho0, basis_density(2, 1), np.eye(2) / 2])
        for t in (0.0, 0.37, 2.1):
            shared = evolve_lindblad(hs, collapse, rho0, t)
            paired = evolve_lindblad(hs, collapse, rhos, t)
            assert shared.shape == paired.shape == (3, 2, 2)
            for k in range(3):
                direct = evolve_lindblad(hs[k], collapse, rho0, t)
                assert np.max(np.abs(shared[k] - direct)) <= 1e-12
                direct = evolve_lindblad(hs[k], collapse, rhos[k], t)
                assert np.max(np.abs(paired[k] - direct)) <= 1e-12

    def test_stack_with_one_non_hermitian_member_rejected(self):
        hs = np.array([rwa_hamiltonian(1.0, df) for df in (0.0, 0.5, -0.5)])
        hs[1, 0, 1] += 0.1j
        with pytest.raises(NonHermitianError):
            evolve_lindblad(hs, [], basis_density(2, 0), 1.0)

    def test_state_dimension_mismatch_rejected(self):
        hs = np.array([rwa_hamiltonian(1.0, df) for df in (0.0, 0.5)])
        with pytest.raises(ValueError, match="dimensions"):
            evolve_lindblad(hs, [], basis_density(3, 0), 1.0)
        with pytest.raises(ValueError, match="dimensions"):
            evolve_lindblad(hs[0], [], basis_density(3, 0), 1.0)

    def test_observable_matches_trace_of_full_states(self):
        # a stack longer than two blocks, so members on both sides of each
        # block boundary are checked
        n = 2 * dynamics.TRAJECTORY_BLOCK + 5
        rng = np.random.default_rng(11)
        hs = pair_hamiltonian(rng.normal(0.0, 2.0, size=n), 5.0).reshape(n, 1, 2, 2)
        collapse = pair_collapse_ops(NoiseModel(gamma_phi=0.4, gamma_1=0.1))
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        obs = np.array([[0.9, 0.3 + 0.4j], [0.3 - 0.4j, -0.2]])
        times = np.array([0.0, 0.3, 1.1, 1.9, 2.5])
        full = lindblad_trajectory(hs, collapse, rho0, times)
        traced = lindblad_trajectory(hs, collapse, rho0, times, observable=obs)
        assert full.shape == (n, 1, len(times), 2, 2)
        assert traced.shape == (n, 1, len(times))
        expected = np.einsum("ij,...ji->...", obs, full).real
        assert np.max(np.abs(traced - expected)) <= 1e-12
        single = lindblad_trajectory(hs[-1, 0], collapse, rho0, times)
        assert np.max(np.abs(full[-1, 0] - single)) <= 1e-12


def relative_error(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


class TestDoublingStepper:
    """``lindblad_trajectory`` advances each run of equal steps by doubling;
    the per-step loop it replaced (``oracles.stepped_trajectory``) is the
    reference."""

    GRIDS = {
        "empty": np.array([]),
        "one_point": np.array([0.7]),
        "two_points": np.array([0.0, 0.4]),
        "three_points": np.array([0.0, 0.4, 0.8]),
        "17_points": np.linspace(0.0, 3.2, 17),
        "rabi_window": RABI_WINDOW_US,
        "starts_late": np.linspace(0.5, 2.5, 9),
        "first_step_in_run": 0.25 * np.arange(1, 10),
        "repeated_times": np.array([0.0, 0.0, 0.3, 0.3, 0.3, 0.6, 0.6, 1.0, 1.0]),
        "runs_of_equal_steps": np.concatenate([
            np.linspace(0.0, 1.0, 6), 1.0 + 0.35 * np.arange(1, 8), [3.7, 3.7],
            3.7 + 0.2 * np.arange(1, 12), [6.1, 6.15, 7.0]]),
    }

    @pytest.mark.parametrize("times", GRIDS.values(), ids=GRIDS.keys())
    def test_matches_per_step_loop(self, times):
        # more members than two blocks, so both sides of each block
        # boundary are checked
        n = 2 * dynamics.TRAJECTORY_BLOCK + 5
        rng = np.random.default_rng(11)
        hs = pair_hamiltonian(rng.normal(0.0, 2.0, size=n), 5.0).reshape(n, 1, 2, 2)
        collapse = pair_collapse_ops(NoiseModel(gamma_phi=0.4, gamma_1=0.1))
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        obs = np.array([[0.9, 0.3 + 0.4j], [0.3 - 0.4j, -0.2]])
        full = lindblad_trajectory(hs, collapse, rho0, times)
        traced = lindblad_trajectory(hs, collapse, rho0, times, observable=obs)
        assert full.shape == (n, 1, len(times), 2, 2)
        assert traced.shape == (n, 1, len(times))
        for got, observable in ((full, None), (traced, obs)):
            want = stepped_trajectory(hs, collapse, rho0, times, observable=observable)
            assert got.shape == want.shape
            assert not got.size or relative_error(got, want) <= 1e-12

    @pytest.mark.parametrize("f1", [0.0, 5.0], ids=["dark_wait", "rabi"])
    def test_joint_model_matches_per_step_loop(self, f1):
        # the field sweep's stacks: 6 reachable coordinates in the dark, 16
        # under the drive
        cfg = standard_config()
        b_res = resonance_field(cfg.nv)
        nu0 = np.array([cfg.nv.gamma * b - nv_transition_mhz(cfg, b)
                        for b in (b_res - 15.0, b_res, b_res + 15.0)])
        deltas, _ = cfg.noise.ensemble()
        hs = joint_frame_hamiltonian(deltas, nu0[:, None], f1, cfg.bath.coupling_mhz)
        collapse = _joint_collapse(cfg.noise, cfg.bath)
        rho0 = np.kron(cfg.init.density(), np.eye(2) / 2)
        times = RABI_WINDOW_US if f1 else np.array([cfg.t_wait_us])
        obs = experiments._MS0_OP
        for observable in (None, obs):
            got = lindblad_trajectory(hs, collapse, rho0, times, observable=observable)
            want = stepped_trajectory(hs, collapse, rho0, times, observable=observable)
            assert relative_error(got, want) <= 1e-12

    def test_one_exponential_per_run_length(self, monkeypatch):
        # a 161-point uniform grid takes one exponential per block, however
        # long the run; repeated times take none
        shapes = counted_expm(monkeypatch)
        hs = pair_hamiltonian(np.linspace(-1.0, 1.0, 3), 5.0)
        lindblad_trajectory(hs, [], basis_density(2, 0), RABI_WINDOW_US)
        assert len(shapes) == 1
        shapes.clear()
        lindblad_trajectory(hs, [], basis_density(2, 0), np.zeros(4))
        assert shapes == []


def counted_expm(monkeypatch):
    """Record the shape of every matrix stack ``dynamics.expm`` is given."""
    shapes = []
    expm = dynamics.expm

    def counted(a):
        shapes.append(a.shape)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counted)
    return shapes


class TestReachableSector:
    """Trajectories step only the coordinates reachable from rho0, and the
    restriction is exact."""

    @staticmethod
    def joint_stack(cfg, f1s):
        # one member per drive and field, on and beside the resonance
        b_res = resonance_field(cfg.nv)
        nu0 = np.array([cfg.nv.gamma * b - nv_transition_mhz(cfg, b)
                        for b in (b_res - 15.0, b_res, b_res + 15.0)])
        return np.array([joint_frame_hamiltonian(0.3, nu0, f1, cfg.bath.coupling_mhz)
                         for f1 in f1s])

    @pytest.mark.parametrize("f1s, size", [((0.0,), 6), ((0.0, 5.0, 0.0), 16)])
    def test_matches_kron_oracle(self, monkeypatch, f1s, size):
        # gamma_1 > 0, so the lowering operator couples the populations; the
        # bath dephasing stays on.  A driven member in the block widens the
        # sector to every coordinate.
        cfg = standard_config()
        noise = replace(cfg.noise, gamma_1=0.2)
        assert cfg.bath.gamma_bath > 0
        collapse = _joint_collapse(noise, cfg.bath)
        hs = self.joint_stack(cfg, f1s)
        rho0 = np.kron(cfg.init.density(), np.eye(2) / 2)
        times = np.array([0.0, 0.7, 2.5, cfg.t_wait_us])
        shapes = counted_expm(monkeypatch)
        traj = lindblad_trajectory(hs, collapse, rho0, times)
        assert shapes and all(shape[-2:] == (size, size) for shape in shapes)
        for idx in np.ndindex(hs.shape[:-2]):
            liou = kron_liouvillian(hs[idx], collapse)
            for t, rho in zip(times, traj[idx]):
                oracle = (scipy.linalg.expm(liou * t) @ rho0.reshape(-1)).reshape(4, 4)
                assert np.max(np.abs(rho - oracle)) <= 1e-12

    def test_default_dark_wait_and_rabi_sizes(self, monkeypatch):
        cfg = standard_config()
        b_res = resonance_field(cfg.nv)
        fields = [b_res - 15.0, b_res, b_res + 15.0]
        shapes = counted_expm(monkeypatch)
        _joint_p0(cfg, fields, 0.0, [cfg.t_wait_us])
        assert shapes and all(shape[-2:] == (6, 6) for shape in shapes)
        shapes.clear()
        _joint_p0(cfg, fields, cfg.drive.f1_mhz, RABI_WINDOW_US[:3])
        assert shapes and all(shape[-2:] == (16, 16) for shape in shapes)


class TestGeneratorsPerCall:
    """``lindblad_trajectory`` checks Hermiticity, builds the dissipator and
    finds the reachable sector once per call, before its block loop."""

    def test_dark_block_among_driven_blocks(self, monkeypatch):
        # one all-dark block (6 reachable coordinates on its own) between
        # driven ones (16): every block steps the union, and the dark
        # members' coordinates outside their own sector stay exactly zero
        cfg = standard_config()
        block = dynamics.TRAJECTORY_BLOCK
        n = 3 * block + 7
        rng = np.random.default_rng(5)
        delta, nu = rng.normal(0.0, 0.5, n), rng.normal(0.0, 3.0, n)
        hs = joint_frame_hamiltonian(delta, nu, cfg.drive.f1_mhz, cfg.bath.coupling_mhz)
        dark = slice(block, 2 * block)
        hs[dark] = joint_frame_hamiltonian(delta, nu, 0.0, cfg.bath.coupling_mhz)[dark]
        collapse = _joint_collapse(cfg.noise, cfg.bath)
        rho0 = np.kron(cfg.init.density(), np.eye(2) / 2)
        times = np.linspace(0.0, 0.4, 9)
        want_traced = stepped_trajectory(hs, collapse, rho0, times,
                                         observable=experiments._MS0_OP)
        want = stepped_trajectory(hs, collapse, rho0, times)
        shapes = counted_expm(monkeypatch)
        traced = lindblad_trajectory(hs, collapse, rho0, times, observable=experiments._MS0_OP)
        assert relative_error(traced, want_traced) <= 1e-12
        full = lindblad_trajectory(hs, collapse, rho0, times)
        assert full.shape == want.shape == (n, len(times), 4, 4)
        assert relative_error(full, want) <= 1e-12
        assert len(shapes) == 8 and all(shape[-2:] == (16, 16) for shape in shapes)
        outside = want[dark] == 0
        assert np.all(np.count_nonzero(outside, axis=(-2, -1)) >= 10)
        assert np.all(full[dark][outside] == 0)

    @staticmethod
    def pair_stack():
        n = 2 * dynamics.TRAJECTORY_BLOCK + 5
        rng = np.random.default_rng(11)
        return pair_hamiltonian(rng.normal(0.0, 2.0, size=n), 5.0)

    def test_non_hermitian_member_in_last_block(self, monkeypatch):
        hs = self.pair_stack()
        hs[-1, 0, 1] += 0.1j
        shapes = counted_expm(monkeypatch)
        with pytest.raises(NonHermitianError):
            lindblad_trajectory(hs, [(SZ, 0.2)], basis_density(2, 0), [0.0, 1.0])
        assert shapes == []

    def test_negative_collapse_rate(self, monkeypatch):
        shapes = counted_expm(monkeypatch)
        with pytest.raises(ValueError, match="collapse rates must be >= 0"):
            lindblad_trajectory(self.pair_stack(), [(SZ, 0.2), (SZ, -0.1)],
                                basis_density(2, 0), [0.0, 1.0])
        assert shapes == []

    def test_dissipator_built_once(self, monkeypatch):
        calls = []
        dissipator = dynamics._dissipator

        def counted(collapse_ops, dim):
            calls.append(dim)
            return dissipator(collapse_ops, dim)

        monkeypatch.setattr(dynamics, "_dissipator", counted)
        monkeypatch.setattr(dynamics, "build_liouvillian", None)
        collapse = pair_collapse_ops(NoiseModel(gamma_phi=0.4, gamma_1=0.1))
        traj = lindblad_trajectory(self.pair_stack(), collapse, basis_density(2, 0),
                                   [0.0, 0.5, 1.0])
        assert traj.shape == (2 * dynamics.TRAJECTORY_BLOCK + 5, 3, 2, 2)
        assert calls == [2]

    def test_empty_stack(self):
        traj = lindblad_trajectory(np.zeros((0, 2, 2), dtype=complex), [(SZ, 0.2)],
                                   basis_density(2, 0), [0.0, 1.0])
        assert traj.shape == (0, 2, 2, 2)


class TestExpm:
    """``dynamics.expm`` against ``scipy.linalg.expm`` on the stacks the
    experiments exponentiate."""

    def test_pair_liouvillians_at_delays_and_pulses(self):
        cfg = standard_config()
        deltas, _ = cfg.noise.ensemble()
        collapse = pair_collapse_ops(cfg.noise)
        for f1, t in ((cfg.drive.f1_mhz, 0.1), (cfg.drive.f1_mhz, 0.05),
                      (0.0, 0.5), (0.0, 6.0)):
            liou = build_liouvillian(pair_hamiltonian(deltas, f1), collapse) * t
            assert liou.shape == (len(deltas), 4, 4)
            assert relative_error(dynamics.expm(liou), scipy.linalg.expm(liou)) <= 1e-12

    @staticmethod
    def joint_liouvillians(fields, f1, t):
        cfg = standard_config()
        deltas, _ = cfg.noise.ensemble()
        nu0 = [cfg.nv.gamma * b - nv_transition_mhz(cfg, b) for b in fields]
        h = joint_frame_hamiltonian(deltas, np.array(nu0)[:, None], f1,
                                    cfg.bath.coupling_mhz)
        return build_liouvillian(h, _joint_collapse(cfg.noise, cfg.bath)) * t

    def test_joint_rabi_step(self):
        b_res = resonance_field(standard_config().nv)
        liou = self.joint_liouvillians([b_res - 15.0, b_res, b_res + 15.0], 5.0, 0.025)
        assert liou.shape == (3, 24, 16, 16)
        assert relative_error(dynamics.expm(liou), scipy.linalg.expm(liou)) <= 1e-12

    def test_dark_wait_mixing_on_and_off_resonance(self):
        # one squaring count serves 1-norms an order of magnitude apart
        cfg = standard_config()
        b_res = resonance_field(cfg.nv)
        liou = self.joint_liouvillians([b_res - 15.0, b_res, b_res + 15.0], 0.0,
                                       cfg.t_wait_us)
        norms = np.max(np.sum(np.abs(liou), axis=-2), axis=-1)
        assert np.min(norms) < 300 and np.max(norms) > 2500
        assert relative_error(dynamics.expm(liou), scipy.linalg.expm(liou)) <= 1e-12

    def test_defective_cascade(self):
        liou = build_liouvillian(np.zeros((3, 3), dtype=complex), cascade_collapse())
        for t in (0.1, 1.0, 7.5):
            assert relative_error(dynamics.expm(liou * t),
                                  scipy.linalg.expm(liou * t)) <= 1e-12

    def test_zero_matrix_and_empty_stack(self):
        zero = np.zeros((2, 4, 4), dtype=complex)
        assert relative_error(dynamics.expm(zero), scipy.linalg.expm(zero)) <= 1e-12
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert dynamics.expm(empty).shape == scipy.linalg.expm(empty).shape == (0, 4, 4)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("k", range(5))
    def test_both_sides_of_each_squaring_step(self, k, dtype):
        # 1-norms just below and just above theta_18 2^k, where the
        # squaring count steps from k to k + 1; theta_18 as published by
        # Bader, Blanes & Casas (2019)
        rng = np.random.default_rng(k)
        for factor in (1 - 1e-6, 1 + 1e-6):
            a = rng.normal(size=(5, 6, 6)).astype(dtype)
            if dtype is complex:
                a += 1j * rng.normal(size=a.shape)
            a *= 1.090863719290036 * 2**k * factor / np.max(np.sum(np.abs(a), axis=-2))
            assert relative_error(dynamics.expm(a), scipy.linalg.expm(a)) <= 1e-12

    def test_single_matrices(self):
        rng = np.random.default_rng(3)
        two_d = 3.0 * rng.normal(size=(5, 5))
        integer = np.array([[0, 1], [-2, -3]])
        for a in (two_d, np.array([[-2.5]]), integer):
            got = dynamics.expm(a)
            assert got.shape == a.shape and got.dtype == float
            assert relative_error(got, scipy.linalg.expm(a)) <= 1e-12

    def test_unitary_propagators(self):
        # criterion 9's propagators expm(-2j pi h t) of random 6 x 6 Hermitian h
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            h, t = (a + a.conj().T) / 2, rng.uniform(0.0, 3.0)
            u = -2j * np.pi * h * t
            assert relative_error(dynamics.expm(u), scipy.linalg.expm(u)) <= 1e-12

    def test_no_linear_solve(self, monkeypatch):
        # the default field sweep's first Rabi and dark-wait blocks,
        # exponentiated with np.linalg.solve unavailable
        cfg = standard_config()
        fields = _default_grid("fieldsweep", cfg)[:4]
        stacks = []

        def record(a):
            stacks.append(a)
            return np.broadcast_to(np.eye(a.shape[-1]), a.shape)

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "expm", record)
            for f1, times in ((cfg.drive.f1_mhz, RABI_WINDOW_US), (0.0, [cfg.t_wait_us])):
                _joint_p0(cfg, fields, f1, times)
        stacks = [stacks[0], stacks[-1]]
        assert [a.shape for a in stacks] == [(48, 16, 16), (96, 6, 6)]
        refs = [scipy.linalg.expm(a) for a in stacks]

        def no_solve(*args, **kwargs):
            raise AssertionError("expm called np.linalg.solve")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        for a, ref in zip(stacks, refs):
            assert relative_error(dynamics.expm(a), ref) <= 1e-12


class TestSteadyState:
    def pump(self):
        op = np.zeros((2, 2), dtype=complex)
        op[0, 1] = 1.0
        return op

    def test_pumping_only_polarizes(self):
        rho = steady_state(np.zeros((2, 2), dtype=complex), [(self.pump(), 2.0)])
        assert np.max(np.abs(rho - basis_density(2, 0))) < 1e-6

    def test_resonant_drive_depletes_bright_state(self):
        collapse = [(self.pump(), 1.0)]
        rho_off = steady_state(rwa_hamiltonian(0.0, 0.0), collapse)
        rho_on = steady_state(rwa_hamiltonian(2.0, 0.0), collapse)
        assert rho_on[0, 0].real < rho_off[0, 0].real - 0.1

    def test_far_detuned_recovers_rf_off(self):
        collapse = [(self.pump(), 1.0)]
        rho = steady_state(rwa_hamiltonian(1.0, 500.0), collapse)
        assert abs(rho[0, 0].real - 1.0) < 1e-4

    def test_degenerate_nullspace_rejected(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(np.zeros((2, 2), dtype=complex), [])

    def test_stack_matches_member_loop(self):
        collapse = [(self.pump(), 1.0), (np.diag([1.0, -1.0]).astype(complex), 0.3)]
        h = np.array([[rwa_hamiltonian(f1, df) for df in np.linspace(-4.0, 4.0, 5)]
                      for f1 in (0.5, 1.5, 3.0)])
        rho = steady_state(h, collapse)
        assert rho.shape == (3, 5, 2, 2)
        for idx in np.ndindex(3, 5):
            assert np.max(np.abs(rho[idx] - steady_state(h[idx], collapse))) <= 1e-12

    def test_degenerate_stack_rejected(self):
        with pytest.raises(DegenerateSteadyStateError, match="dimension 4"):
            steady_state(np.zeros((4, 2, 2), dtype=complex), [])

    def test_stack_with_one_undissipated_member_rejected(self):
        # the pump empties level 1 only; level 2 reaches it through the
        # drive in every member but the last, where its population is kept
        pump = np.zeros((3, 3), dtype=complex)
        pump[0, 1] = 1.0
        h = np.zeros((3, 3, 3), dtype=complex)
        h[:, 2, 2] = 0.5
        h[:-1, 1, 2] = h[:-1, 2, 1] = 1.0
        steady_state(h[:-1], [(pump, 1.0)])
        with pytest.raises(DegenerateSteadyStateError) as err:
            steady_state(h, [(pump, 1.0)])
        assert isinstance(err.value.__cause__, ValueError)


class TestValidateDensity:
    def test_accepts_valid(self):
        validate_density(np.eye(3) / 3)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            validate_density(2 * np.eye(2) / 2)

    def test_rejects_negative(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            validate_density(rho)

    @staticmethod
    def stack():
        return np.broadcast_to(np.diag([0.75, 0.25]).astype(complex), (3, 4, 2, 2)).copy()

    def test_accepts_valid_stack(self):
        validate_density(self.stack())

    @pytest.mark.parametrize("defect, message", [
        (np.array([[0.0, 0.1], [0.0, 0.0]]), "not Hermitian"),
        (np.diag([0.1, 0.0]), "trace"),
        (np.diag([0.5, -0.5]), "negative eigenvalue"),
    ])
    def test_rejects_stack_with_one_bad_member(self, defect, message):
        rho = self.stack()
        rho[2, 1] += defect
        with pytest.raises(ValueError, match=message):
            validate_density(rho)

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density(np.full((2, 2), np.nan, dtype=complex))

    def test_rejects_stack_with_one_nan_member(self):
        rho = self.stack()
        rho[1, 3, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            validate_density(rho)


class TestEnsembleAverage:
    """Nutations averaged over ``NoiseModel.ensemble()`` with its weights."""

    T_GRID = np.linspace(0.0, 4.0, 81)

    @staticmethod
    def averaged_rabi(noise, f1=1.0, t_grid=T_GRID):
        deltas, weights = noise.ensemble()
        return weights @ rabi_probability(f1, deltas[:, None], t_grid)

    def test_zero_sigma_single_sample_is_identity(self):
        noise = NoiseModel(sigma_static_mhz=0.0, n_samples=1, seed=3)
        out = self.averaged_rabi(noise)
        assert np.allclose(out, rabi_probability(1.0, 0.0, self.T_GRID))

    def test_deterministic_given_seed(self):
        noise = NoiseModel(sigma_static_mhz=0.5, n_samples=16, seed=11)
        a = self.averaged_rabi(noise)
        b = self.averaged_rabi(noise)
        assert np.array_equal(a, b)

    def test_large_sigma_collapses_contrast(self):
        # numerically computed limit of the detuning-averaged nutation: for
        # sigma >> f1 most shots are far off resonance, so the oscillation
        # contrast collapses and the trace settles at its per-shot baseline
        # 1 - <f1^2/(f1^2+d^2)>/2
        noise = NoiseModel(sigma_static_mhz=30.0, n_samples=400, seed=2)
        out = self.averaged_rabi(noise, f1=1.0)
        bare = rabi_probability(1.0, 0.0, self.T_GRID)
        late = out[self.T_GRID > 1.0]
        assert np.ptp(late) < 0.02 * np.ptp(bare)  # oscillation gone
        deltas = noise.static_detunings()
        baseline = 1.0 - np.mean(1.0 / (1.0 + deltas**2)) / 2.0
        assert abs(np.mean(late) - baseline) < 0.01

    def test_polarized_nucleus_single_frequency(self):
        t = np.linspace(0.0, 8.0, 161)
        noise = NoiseModel(nuclear_splitting_mhz=2.2,
                           nuclear_populations=(1.0, 0.0, 0.0))
        out = self.averaged_rabi(noise, f1=2.0, t_grid=t)
        # single branch at detuning -A: pure cosine at sqrt(f1^2 + A^2)
        f_eff = np.sqrt(2.0**2 + 2.2**2)
        expected = rabi_probability(2.0, 2.2, t)
        assert np.max(np.abs(out - expected)) < 1e-12
        spec = np.abs(np.fft.rfft(out - out.mean()))
        freqs = np.fft.rfftfreq(len(t), d=t[1] - t[0])
        assert abs(freqs[np.argmax(spec)] - f_eff) < 0.2

    def test_mixed_nucleus_averages_branches(self):
        t = np.linspace(0.0, 4.0, 41)
        noise = NoiseModel(nuclear_splitting_mhz=2.2,
                           nuclear_populations=(1 / 3, 1 / 3, 1 / 3))
        out = self.averaged_rabi(noise, f1=2.0, t_grid=t)
        expected = (rabi_probability(2.0, -2.2, t)
                    + rabi_probability(2.0, 0.0, t)
                    + rabi_probability(2.0, 2.2, t)) / 3
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_static_mhz=-1.0)
        with pytest.raises(ValueError):
            NoiseModel(n_samples=0)
        with pytest.raises(ValueError):
            NoiseModel(nuclear_populations=(1.0, 0.0), nuclear_splitting_mhz=2.2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_fields_rejected(self, value):
        # a NaN rate failed every "> 0" test and so switched its process off
        for name in ("sigma_static_mhz", "gamma_phi", "gamma_1", "nuclear_splitting_mhz"):
            with pytest.raises(ValueError, match=f"{name} must be finite.*, got {value}"):
                NoiseModel(**{name: value})
        with pytest.raises(ValueError, match=f"finite weights >= 0, got .*{value}"):
            NoiseModel(nuclear_populations=(1.0, value, 1.0), nuclear_splitting_mhz=2.2)

    def test_nuclear_populations_need_a_splitting(self):
        # with A = 0 the three branches coincide and the weights do nothing
        with pytest.raises(ValueError, match="splitting"):
            NoiseModel(nuclear_populations=(1, 1, 1))


class TestEchoRefocusing:
    """The dynamics-level coherence claims behind the Hahn echo."""

    DRIVE = DriveParams(f1_mhz=25.0)
    RHO_0 = LaserInit(polarization=1.0).density()

    def signal(self, seq, noise, markov=None):
        deltas, weights = noise.ensemble()
        return weights @ run_sequence(seq, self.RHO_0, markov, deltas)

    def test_static_noise_echo_vs_ramsey(self):
        sigma = 0.3
        tau = 3.0 / (2 * np.pi * sigma) / 2  # 2 pi sigma (2 tau) = 3
        noise = NoiseModel(sigma_static_mhz=sigma, n_samples=400, seed=7)
        echo = self.signal(hahn_sequence(tau, tau, self.DRIVE), noise)
        ramsey = self.signal(ramsey_sequence(2 * tau, self.DRIVE), noise)
        echo_deficit = 1.0 - echo
        ramsey_deficit = 1.0 - ramsey
        assert echo_deficit < 1e-3
        assert ramsey_deficit >= 10 * echo_deficit

    def test_markovian_echo_decay_matches_rate(self):
        gamma_phi = 1.0 / 6.0
        noise = NoiseModel(gamma_phi=gamma_phi)
        taus = np.linspace(0.5, 5.0, 16)
        ys = []
        for tau in taus:
            ys.append(run_sequence(hahn_sequence(tau, tau, self.DRIVE), self.RHO_0, noise, 0.0))
        fit = fit_exp_decay(Trace(2 * taus, np.array(ys)))
        assert fit.converged
        assert abs(fit["t_us"] - 1.0 / gamma_phi) / (1.0 / gamma_phi) < 0.02
