import inspect
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import nvspin
from nvspin import exp_hahn, pulseq, standard_config
from nvspin.dynamics import NoiseModel
from nvspin.hamiltonian import pair_hamiltonian
from nvspin.pulseq import (
    Readout,
    Segment,
    hahn_sequence,
    pi2_duration,
    pi_duration,
    run_sequence,
)
from oracles import basis_density, propagate, rabi_probability, run_sequence_per_segment

F1 = 5.0
PERFECT_READ = Readout(polarization=1.0, contrast=1.0, photons=1.0)
READOUT = standard_config().readout
RHO_0 = PERFECT_READ.density()


class TestDurations:
    def test_pi(self):
        assert pi_duration(1.0) == 0.5

    def test_pi2(self):
        assert pi2_duration(5.0) == 0.05

    def test_zero_f1_rejected(self):
        with pytest.raises(ValueError):
            pi_duration(0.0)
        with pytest.raises(ValueError):
            pi2_duration(0.0)

    @pytest.mark.parametrize("f1", [np.nan, np.inf])
    def test_non_finite_f1_rejected(self, f1):
        # 1 / (2 inf) would be a zero-length pi pulse
        with pytest.raises(ValueError, match=f"f1 finite and > 0, got {f1}"):
            pi_duration(f1)

    def test_double_pi_returns_to_start(self):
        t_pi = pi_duration(F1)
        p0 = run_sequence((Segment(t_pi, F1), Segment(t_pi, F1)), RHO_0)
        assert abs(p0 - 1.0) < 1e-9


class TestSequenceValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Segment(-0.1)
        with pytest.raises(ValueError):
            Segment(-0.1, F1)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {duration}"):
            Segment(duration)
        with pytest.raises(ValueError, match=f"finite and >= 0, got {duration}"):
            Segment(duration, F1)

    @pytest.mark.parametrize("f1", [-1.0, np.nan, np.inf])
    def test_bad_rabi_frequency_rejected(self, f1):
        with pytest.raises(ValueError, match=f"f1_mhz must be finite and >= 0, got {f1}"):
            Segment(0.1, f1)

    def test_bad_polarization_and_contrast(self):
        with pytest.raises(ValueError):
            replace(READOUT, polarization=1.5)
        with pytest.raises(ValueError):
            replace(READOUT, contrast=-0.1)

    @pytest.mark.parametrize("photons", [np.nan, np.inf])
    def test_non_finite_photon_budget_rejected(self, photons):
        # nan or inf photons would give nan or inf counts
        with pytest.raises(ValueError, match=f"photons must be finite and >= 0, got {photons}"):
            replace(READOUT, photons=photons)


class TestInitAndReadout:
    def test_init_density(self):
        rho = replace(READOUT, polarization=0.9).density()
        assert np.allclose(rho, 0.9 * np.diag([1.0, 0.0]) + 0.1 * np.eye(2) / 2)

    def test_counts_broadcast_over_populations(self):
        readout = replace(READOUT, contrast=0.3, photons=1000.0)
        assert np.allclose(readout.counts([1.0, 0.5, 0.0]), [1000.0, 850.0, 700.0])


class TestRunSequence:
    def test_init_then_readout_max_counts(self):
        p0 = run_sequence((), RHO_0)
        i_pl = replace(READOUT, contrast=0.3, photons=800.0).counts(p0)
        assert p0 == 1.0
        assert i_pl == 800.0

    def test_pi_pulse_full_contrast(self):
        p0 = run_sequence((Segment(pi_duration(F1), F1),), RHO_0)
        i_pl = replace(READOUT, contrast=0.3, photons=1000.0).counts(p0)
        assert abs(p0) < 1e-9
        assert abs(i_pl - 700.0) < 1e-6

    def test_starts_from_the_given_state(self):
        # no implicit |0><0|: an empty sequence returns rho0's P0, and a
        # sequence from a polarized state equals one from |0><0|
        # mixed with identity / 2 by the same weights
        init = replace(READOUT, polarization=0.6)
        assert run_sequence((), init.density()) == 0.8
        seq = hahn_sequence(0.4, 0.7, F1)
        pure = run_sequence(seq, basis_density(2, 0), detuning_mhz=0.9)
        mixed = run_sequence(seq, np.eye(2) / 2, detuning_mhz=0.9)
        assert abs(run_sequence(seq, init.density(), detuning_mhz=0.9)
                   - (0.6 * pure + 0.4 * mixed)) < 1e-12

    def test_returns_p0_only(self):
        assert isinstance(run_sequence(hahn_sequence(0.6, 0.9, F1), RHO_0), float)
        p0 = run_sequence(hahn_sequence(0.6, 0.9, F1), RHO_0,
                          detuning_mhz=np.array([0.0, 0.5]))
        assert isinstance(p0, np.ndarray) and p0.shape == (2,)

    def test_rabi_sweep_matches_formula(self):
        for t in np.linspace(0.0, 1.0, 23):
            p0 = run_sequence((Segment(t, F1),), RHO_0, detuning_mhz=1.3)
            assert abs(p0 - rabi_probability(F1, 1.3, t)) < 1e-9

    def test_interpreter_equals_concatenated_propagate(self):
        # pure RF segments == one closed-system propagation
        detuning = 0.8
        segs = [Segment(0.07, F1), Segment(0.11, 2.0), Segment(0.05, F1)]
        p0 = run_sequence(tuple(segs), basis_density(2, 0), detuning_mhz=detuning)
        rho = propagate(
            [(pair_hamiltonian(detuning, s.f1_mhz), s.duration_us) for s in segs],
            basis_density(2, 0),
        )
        assert abs(p0 - rho[0, 0].real) < 1e-9

    def test_ipl_affine_in_contrast(self):
        # doubling the contrast doubles the Rabi contrast exactly
        def contrast_span(eps):
            readout = replace(READOUT, contrast=eps, photons=1000.0)
            values = []
            for t in np.linspace(0.0, 0.4, 41):
                values.append(readout.counts(run_sequence((Segment(t, F1),), RHO_0)))
            return max(values) - min(values)

        assert np.isclose(contrast_span(0.3), 2 * contrast_span(0.15), rtol=1e-12)


class TestHahnSequence:
    def test_structure(self):
        seq = hahn_sequence(1.0, 2.0, F1)
        assert all(type(s) is Segment for s in seq)
        # pulse, delay, pulse, delay, pulse
        assert [s.f1_mhz for s in seq] == [F1, 0.0, F1, 0.0, F1]
        assert seq[0].duration_us == pi2_duration(F1)
        assert seq[2].duration_us == pi_duration(F1)
        assert seq[1].duration_us == 1.0
        assert seq[3].duration_us == 2.0

    def test_no_laser_parameters(self):
        # the experiment initialises and reads out; a sequence is the dark part,
        # a plain tuple of pulses and delays
        assert list(inspect.signature(hahn_sequence).parameters) == [
            "tau1_us", "tau2_us", "f1_mhz"]
        assert type(hahn_sequence(1.0, 2.0, F1)) is tuple
        assert not hasattr(pulseq, "PulseSequence")
        assert "PulseSequence" not in nvspin.__all__

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            hahn_sequence(-1.0, 1.0, F1)

    def test_zero_delay_equals_concatenated_pulses(self):
        # tau1 = tau2 = 0: three back-to-back pulses, check against propagate
        p0 = run_sequence(hahn_sequence(0.0, 0.0, F1), RHO_0)
        h = np.array([[0.0, F1 / 2], [F1 / 2, 0.0]], dtype=complex)
        total = 2 * pi2_duration(F1) + pi_duration(F1)
        rho = propagate([(h, total)], basis_density(2, 0))
        assert abs(p0 - rho[0, 0].real) < 1e-9
        # 2 pi total rotation restores the population
        assert abs(p0 - 1.0) < 1e-9

    @pytest.mark.parametrize("delta", [-0.05, 0.02, 0.04])
    def test_echo_independent_of_static_detuning(self, delta):
        # exact refocusing of the free-evolution phase; residual deficit is
        # the finite-pulse tilt ~ (delta / f1)^2, negligible here
        tau = 2.0
        seq = hahn_sequence(tau, tau, 40.0)
        p_ref = run_sequence(seq, RHO_0, detuning_mhz=0.0)
        p_det = run_sequence(seq, RHO_0, detuning_mhz=delta)
        assert abs(p_det - p_ref) < 1e-6

    def test_echo_robust_at_larger_detuning(self):
        seq = hahn_sequence(2.0, 2.0, 40.0)
        p_det = run_sequence(seq, RHO_0, detuning_mhz=0.6)
        assert abs(p_det - 1.0) < 1e-3

    def test_echo_maximum_at_symmetric_delays(self):
        tau1 = 1.5
        delta = 0.8
        taus2 = np.linspace(0.5, 2.5, 41)
        signal = []
        for tau2 in taus2:
            seq = hahn_sequence(tau1, tau2, F1)
            signal.append(run_sequence(seq, RHO_0, detuning_mhz=delta))
        assert abs(taus2[np.argmax(signal)] - tau1) <= (taus2[1] - taus2[0])


class TestEnsembleStack:
    """An array of detunings runs every member at once."""

    DETUNINGS = np.array([-1.3, 0.0, 0.4, 2.5])

    @pytest.mark.parametrize("noise", [None, NoiseModel(gamma_phi=0.4, gamma_1=0.1)])
    def test_stack_matches_scalar_loop(self, noise):
        seq = hahn_sequence(0.6, 0.9, F1)
        readout = READOUT
        rho0 = readout.density()
        p0 = run_sequence(seq, rho0, noise, self.DETUNINGS)
        i_pl = readout.counts(p0)
        assert p0.shape == i_pl.shape == self.DETUNINGS.shape
        for k, delta in enumerate(self.DETUNINGS):
            p_ref = run_sequence(seq, rho0, noise, delta)
            i_ref = readout.counts(p_ref)
            assert abs(p0[k] - p_ref) <= 1e-12
            assert abs(i_pl[k] - i_ref) <= 1e-12 * i_ref

    def test_closed_system_matches_propagate_per_member(self):
        segs = [Segment(0.07, F1), Segment(0.3), Segment(0.11, 2.0), Segment(0.0),
                Segment(pi_duration(F1), F1)]
        p0 = run_sequence(tuple(segs), RHO_0, detuning_mhz=self.DETUNINGS)
        for k, delta in enumerate(self.DETUNINGS):
            rho = propagate(
                [(pair_hamiltonian(delta, s.f1_mhz), s.duration_us) for s in segs],
                basis_density(2, 0),
            )
            assert abs(p0[k] - rho[0, 0].real) <= 1e-12

    def test_init_only_sequence_broadcasts(self):
        p0 = run_sequence((), RHO_0, detuning_mhz=self.DETUNINGS.reshape(2, 2))
        i_pl = PERFECT_READ.counts(p0)
        assert np.array_equal(p0, np.ones((2, 2)))
        assert np.array_equal(i_pl, np.ones((2, 2)))

    def test_scalar_detuning_returns_floats(self):
        readout = READOUT
        p0 = run_sequence(hahn_sequence(0.6, 0.9, F1), readout.density(), None, 0.3)
        i_pl = readout.counts(p0)
        assert type(p0) is np.float64 and type(i_pl) is np.float64


@pytest.fixture
def work(monkeypatch):
    """Calls that ``run_sequence`` makes to ``build_liouvillian`` and
    ``expm`` through its own bindings, by name."""
    counts = Counter()

    def count(name):
        original = getattr(pulseq, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pulseq, name, counted)

    count("build_liouvillian")
    count("expm")
    return counts


class TestDistinctSegments:
    """One generator stack per sequence and one exponential per distinct
    segment, against the per-segment loop that ran before."""

    # name: (sequence, exponentials), the exponentials being its distinct
    # segments of nonzero duration
    SEQUENCES = {
        "hahn_tau1_eq_tau2": (hahn_sequence(0.6, 0.6, F1), 3),
        "hahn_tau1_ne_tau2": (hahn_sequence(0.6, 0.9, F1), 4),
        "three_drives_repeated": ((Segment(0.07, F1), Segment(0.3), Segment(0.11, 2.0),
                                   Segment(0.07, F1), Segment(0.05, 9.0), Segment(0.3),
                                   Segment(0.11, 2.0)), 4),
        "zero_durations": ((Segment(0.0, F1), Segment(0.3), Segment(0.0),
                            Segment(pi_duration(F1), F1), Segment(0.0, 2.0)), 2),
        "empty": ((), 0),
    }
    DETUNINGS = {"scalar": 0.4, "1-d": np.array([-1.3, 0.0, 0.4, 2.5]),
                 "2-d": np.array([[-1.3, 0.0], [0.4, 2.5]])}

    @pytest.mark.parametrize("noise", [None, NoiseModel(gamma_phi=0.4, gamma_1=0.1)],
                             ids=["closed", "markovian"])
    @pytest.mark.parametrize("detuning", DETUNINGS.values(), ids=DETUNINGS.keys())
    def test_matches_per_segment_loop(self, work, noise, detuning):
        rho0 = READOUT.density()
        for name, (seq, exponentials) in self.SEQUENCES.items():
            work.clear()
            p0 = run_sequence(seq, rho0, noise, detuning)
            builds, calls = work["build_liouvillian"], work["expm"]
            ref = run_sequence_per_segment(seq, rho0, noise, detuning)
            assert type(p0) is type(ref) and np.shape(p0) == np.shape(ref), name
            assert np.max(np.abs(p0 - ref)) <= 1e-12, name
            assert (builds, calls) == (int(bool(seq)), exponentials), name

    @pytest.mark.parametrize("tau1_us, exponentials", [(None, 24 * 3), (3.0, 23 * 4 + 3)])
    def test_default_echo_dataset_work(self, work, tau1_us, exponentials):
        # 24 delays, one sequence each; a fixed tau1 shares the delay
        # segment only where tau2 = tau1 (3 us lies on the grid)
        exp_hahn(replace(standard_config(), echo_tau1_us=tau1_us), np.linspace(0.25, 6.0, 24))
        assert work == {"build_liouvillian": 24, "expm": exponentials}

    def test_state_of_another_size_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            run_sequence(hahn_sequence(0.6, 0.9, F1), basis_density(3, 0))
