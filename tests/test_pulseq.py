import numpy as np
import pytest

from nvspin.dynamics import NoiseModel
from nvspin.hamiltonian import DriveParams, pair_hamiltonian
from nvspin.pulseq import (
    Delay,
    LaserInit,
    PulseSequence,
    Readout,
    RfPulse,
    hahn_sequence,
    pi2_duration,
    pi_duration,
    run_sequence,
)
from oracles import basis_density, propagate, rabi_probability

DRIVE = DriveParams(f1_mhz=5.0)
PERFECT_INIT = LaserInit(polarization=1.0)
PERFECT_READ = Readout(contrast=1.0, photons=1.0)


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

    def test_double_pi_returns_to_start(self):
        t_pi = pi_duration(DRIVE.f1_mhz)
        seq = PulseSequence((PERFECT_INIT, RfPulse(t_pi, DRIVE),
                             RfPulse(t_pi, DRIVE), PERFECT_READ))
        p0, _ = run_sequence(seq)
        assert abs(p0 - 1.0) < 1e-9


class TestSequenceValidation:
    def test_readout_must_be_last(self):
        with pytest.raises(ValueError, match="Readout"):
            PulseSequence((PERFECT_READ, RfPulse(0.1, DRIVE)))

    def test_exactly_one_readout(self):
        with pytest.raises(ValueError, match="Readout"):
            PulseSequence((PERFECT_INIT, PERFECT_READ, PERFECT_READ))

    def test_laser_init_only_first(self):
        with pytest.raises(ValueError, match="LaserInit"):
            PulseSequence((RfPulse(0.1, DRIVE), PERFECT_INIT, PERFECT_READ))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Delay(-0.1)
        with pytest.raises(ValueError):
            RfPulse(-0.1, DRIVE)

    def test_bad_polarization_and_contrast(self):
        with pytest.raises(ValueError):
            LaserInit(polarization=1.5)
        with pytest.raises(ValueError):
            Readout(contrast=-0.1)


class TestInitAndReadout:
    def test_init_density(self):
        rho = LaserInit(polarization=0.9).density()
        assert np.allclose(rho, 0.9 * np.diag([1.0, 0.0]) + 0.1 * np.eye(2) / 2)

    def test_counts_broadcast_over_populations(self):
        readout = Readout(contrast=0.3, photons=1000.0)
        assert np.allclose(readout.counts([1.0, 0.5, 0.0]), [1000.0, 850.0, 700.0])


class TestRunSequence:
    def test_init_then_readout_max_counts(self):
        seq = PulseSequence((PERFECT_INIT, Readout(contrast=0.3, photons=800.0)))
        p0, i_pl = run_sequence(seq)
        assert p0 == 1.0
        assert i_pl == 800.0

    def test_pi_pulse_full_contrast(self):
        seq = PulseSequence((
            PERFECT_INIT,
            RfPulse(pi_duration(DRIVE.f1_mhz), DRIVE),
            Readout(contrast=0.3, photons=1000.0),
        ))
        p0, i_pl = run_sequence(seq)
        assert abs(p0) < 1e-9
        assert abs(i_pl - 700.0) < 1e-6

    def test_rabi_sweep_matches_formula(self):
        for t in np.linspace(0.0, 1.0, 23):
            seq = PulseSequence((PERFECT_INIT, RfPulse(t, DRIVE), PERFECT_READ))
            p0, _ = run_sequence(seq, detuning_mhz=1.3)
            assert abs(p0 - rabi_probability(DRIVE.f1_mhz, 1.3, t)) < 1e-9

    def test_interpreter_equals_concatenated_propagate(self):
        # pure RF segments == one closed-system propagation
        detuning = 0.8
        segs = [RfPulse(0.07, DRIVE), RfPulse(0.11, DriveParams(f1_mhz=2.0)),
                RfPulse(0.05, DRIVE)]
        seq = PulseSequence((*segs, PERFECT_READ))
        p0, _ = run_sequence(seq, detuning_mhz=detuning)
        rho = propagate(
            [(pair_hamiltonian(detuning, s.drive.f1_mhz), s.duration_us) for s in segs],
            basis_density(2, 0),
        )
        assert abs(p0 - rho[0, 0].real) < 1e-9

    def test_ipl_affine_in_contrast(self):
        # doubling the contrast doubles the Rabi contrast exactly
        def contrast_span(eps):
            readout = Readout(contrast=eps, photons=1000.0)
            values = []
            for t in np.linspace(0.0, 0.4, 41):
                seq = PulseSequence((PERFECT_INIT, RfPulse(t, DRIVE), readout))
                values.append(run_sequence(seq)[1])
            return max(values) - min(values)

        assert np.isclose(contrast_span(0.3), 2 * contrast_span(0.15), rtol=1e-12)


class TestHahnSequence:
    def test_structure(self):
        seq = hahn_sequence(1.0, 2.0, DRIVE)
        kinds = [type(s).__name__ for s in seq.segments]
        assert kinds == ["LaserInit", "RfPulse", "Delay", "RfPulse", "Delay",
                         "RfPulse", "Readout"]
        assert seq.segments[1].duration_us == pi2_duration(DRIVE.f1_mhz)
        assert seq.segments[3].duration_us == pi_duration(DRIVE.f1_mhz)
        assert seq.segments[2].duration_us == 1.0
        assert seq.segments[4].duration_us == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            hahn_sequence(-1.0, 1.0, DRIVE)

    def test_zero_delay_equals_concatenated_pulses(self):
        # tau1 = tau2 = 0: three back-to-back pulses, check against propagate
        seq = hahn_sequence(0.0, 0.0, DRIVE, init=PERFECT_INIT, readout=PERFECT_READ)
        p0, _ = run_sequence(seq)
        h = np.array([[0.0, DRIVE.f1_mhz / 2], [DRIVE.f1_mhz / 2, 0.0]], dtype=complex)
        total = 2 * pi2_duration(DRIVE.f1_mhz) + pi_duration(DRIVE.f1_mhz)
        rho = propagate([(h, total)], basis_density(2, 0))
        assert abs(p0 - rho[0, 0].real) < 1e-9
        # 2 pi total rotation restores the population
        assert abs(p0 - 1.0) < 1e-9

    @pytest.mark.parametrize("delta", [-0.05, 0.02, 0.04])
    def test_echo_independent_of_static_detuning(self, delta):
        # exact refocusing of the free-evolution phase; residual deficit is
        # the finite-pulse tilt ~ (delta / f1)^2, negligible here
        tau = 2.0
        seq = hahn_sequence(tau, tau, DriveParams(f1_mhz=40.0),
                            init=PERFECT_INIT, readout=PERFECT_READ)
        p_ref, _ = run_sequence(seq, detuning_mhz=0.0)
        p_det, _ = run_sequence(seq, detuning_mhz=delta)
        assert abs(p_det - p_ref) < 1e-6

    def test_echo_robust_at_larger_detuning(self):
        seq = hahn_sequence(2.0, 2.0, DriveParams(f1_mhz=40.0),
                            init=PERFECT_INIT, readout=PERFECT_READ)
        p_det, _ = run_sequence(seq, detuning_mhz=0.6)
        assert abs(p_det - 1.0) < 1e-3

    def test_echo_maximum_at_symmetric_delays(self):
        tau1 = 1.5
        delta = 0.8
        taus2 = np.linspace(0.5, 2.5, 41)
        signal = []
        for tau2 in taus2:
            seq = hahn_sequence(tau1, tau2, DRIVE, init=PERFECT_INIT,
                                readout=PERFECT_READ)
            signal.append(run_sequence(seq, detuning_mhz=delta)[0])
        assert abs(taus2[np.argmax(signal)] - tau1) <= (taus2[1] - taus2[0])


class TestEnsembleStack:
    """An array of detunings runs every member at once."""

    DETUNINGS = np.array([-1.3, 0.0, 0.4, 2.5])

    @pytest.mark.parametrize("noise", [None, NoiseModel(gamma_phi=0.4, gamma_1=0.1)])
    def test_stack_matches_scalar_loop(self, noise):
        seq = hahn_sequence(0.6, 0.9, DRIVE)
        p0, i_pl = run_sequence(seq, noise, self.DETUNINGS)
        assert p0.shape == i_pl.shape == self.DETUNINGS.shape
        for k, delta in enumerate(self.DETUNINGS):
            p_ref, i_ref = run_sequence(seq, noise, delta)
            assert abs(p0[k] - p_ref) <= 1e-12
            assert abs(i_pl[k] - i_ref) <= 1e-12 * i_ref

    def test_closed_system_matches_propagate_per_member(self):
        segs = [RfPulse(0.07, DRIVE), Delay(0.3), RfPulse(0.11, DriveParams(f1_mhz=2.0)),
                Delay(0.0), RfPulse(pi_duration(DRIVE.f1_mhz), DRIVE)]
        p0, _ = run_sequence(PulseSequence((PERFECT_INIT, *segs, PERFECT_READ)),
                             detuning_mhz=self.DETUNINGS)
        for k, delta in enumerate(self.DETUNINGS):
            rho = propagate(
                [(pair_hamiltonian(delta, s.drive.f1_mhz if isinstance(s, RfPulse) else 0.0),
                  s.duration_us) for s in segs],
                basis_density(2, 0),
            )
            assert abs(p0[k] - rho[0, 0].real) <= 1e-12

    def test_init_only_sequence_broadcasts(self):
        p0, i_pl = run_sequence(PulseSequence((PERFECT_INIT, PERFECT_READ)),
                                detuning_mhz=self.DETUNINGS.reshape(2, 2))
        assert np.array_equal(p0, np.ones((2, 2)))
        assert np.array_equal(i_pl, np.ones((2, 2)))

    def test_scalar_detuning_returns_floats(self):
        p0, i_pl = run_sequence(hahn_sequence(0.6, 0.9, DRIVE), None, 0.3)
        assert type(p0) is np.float64 and type(i_pl) is np.float64
