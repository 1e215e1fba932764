from dataclasses import replace

import numpy as np
import pytest
import scipy.constants as const
import scipy.optimize

from nvspin.cli import _default_grid
from nvspin.config import standard_config
from nvspin.constants import ELECTRON_G, MU_B_MHZ_PER_G
from nvspin.experiments import exp_levels, nv_transition_mhz
from nvspin.hamiltonian import (
    BathParams,
    DriveParams,
    NvParams,
    frame_detuning,
    nv_levels,
    pair_hamiltonian,
    resonance_field,
)
from oracles import eigensystem, h_n, h_nv


def max_abs(a):
    return np.max(np.abs(a))


class TestConstants:
    def test_bohr_magneton_over_h(self):
        # oracle: CODATA values, converted to MHz per gauss
        expected = const.value("Bohr magneton") / const.h * 1e-4 * 1e-6
        assert np.isclose(MU_B_MHZ_PER_G, expected, rtol=1e-6)


class TestHNv:
    """The closed-form N-V levels, ``nv_levels``, and the dense oracle."""

    def test_zero_field_eigenvalues(self):
        p = NvParams()
        w = np.sort(nv_levels(0.0, p))
        assert np.allclose(w, [0.0, 2880.0, 2880.0])

    def test_transition_at_100_gauss(self):
        p = NvParams()
        w = np.sort(nv_levels(100.0, p))
        assert np.isclose(w[1] - w[0], 2600.0751, atol=1e-4)

    def test_level_crossing_field(self):
        p = NvParams()
        b_cross = p.d_mhz / p.gamma
        assert np.isclose(b_cross, 1028.9, atol=0.1)
        w = np.sort(nv_levels(b_cross, p))
        # m_S = 0 and m_S = -1 degenerate at the crossing
        assert np.isclose(w[0], w[1], atol=1e-9)

    @pytest.mark.parametrize("b", [37.0, 100.0, 514.4, 850.0])
    def test_transitions_match_formula(self, b):
        # oracle: the eigenvalues of the dense Hamiltonian
        p = NvParams()
        w, _ = eigensystem(h_nv(b, p))
        f_minus = w[1] - w[0]
        f_plus = w[2] - w[0]
        assert abs(f_minus - (p.d_mhz - p.gamma * b)) < 1e-9 * p.d_mhz
        assert abs(f_plus - (p.d_mhz + p.gamma * b)) < 1e-9 * p.d_mhz

    def test_hermitian(self):
        h = h_nv(321.0, NvParams())
        assert max_abs(h - h.conj().T) < 1e-12

    @pytest.mark.parametrize("d_mhz, g", [(2880.0, ELECTRON_G), (2870.0, 2.0), (1420.0, 2.01)])
    def test_sorted_levels_and_gap_equal_the_eigensolver(self, d_mhz, g):
        # 10,001 fields in [-2000, 2000] G plus zero field, the level
        # crossing and the default fieldsweep and levels grids
        p = NvParams(d_mhz=d_mhz, g=g)
        cfg = replace(standard_config(), nv=p)
        b = np.concatenate([np.linspace(-2000.0, 2000.0, 10_001), [0.0, p.d_mhz / p.gamma],
                            _default_grid("fieldsweep", cfg), _default_grid("levels", cfg)])
        w, _ = eigensystem(h_nv(b, p))
        assert np.array_equal(np.sort(nv_levels(b, p)), w)
        assert np.array_equal(nv_transition_mhz(cfg, b), w[:, 1] - w[:, 0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NvParams(d_mhz=-1.0)
        with pytest.raises(ValueError):
            NvParams(g=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, value):
        for name in ("d_mhz", "g", "a_par_mhz"):
            with pytest.raises(ValueError, match=f"{name} must be finite.*, got {value}"):
                NvParams(**{name: value})


class TestBathParams:
    def test_negative_dephasing_rejected(self):
        with pytest.raises(ValueError, match="gamma_bath must be finite and >= 0, got -1.0"):
            BathParams(gamma_bath=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, value):
        # the coupling's sign is physical; only a non-finite value is refused
        assert BathParams(coupling_mhz=-0.5).coupling_mhz == -0.5
        for name in ("coupling_mhz", "a_n_par_mhz", "gamma_bath"):
            with pytest.raises(ValueError, match=f"{name} must be finite.*, got {value}"):
                BathParams(**{name: value})


class TestHN:
    """The P1 levels that ``exp_levels`` writes."""

    def test_splitting_at_resonance_field(self):
        cols = exp_levels(standard_config(), [514.4236900683])
        assert np.isclose(cols["n_up_mhz"][0] - cols["n_down_mhz"][0], 1440.0, atol=1e-3)

    def test_zero_field_degenerate(self):
        cols = exp_levels(standard_config(), [0.0])
        assert np.isclose(cols["n_down_mhz"][0], cols["n_up_mhz"][0], atol=1e-12)

    def test_levels_equal_the_eigensolver(self):
        # the old per-field route: eigenlevels of the dense Hamiltonians, N-V
        # levels labeled by dominant m_S character; repr compares signed zeros
        cfg = standard_config()
        b_grid = np.concatenate([_default_grid("levels", cfg), [-300.0, 1028.9, 1500.0]])
        cols = exp_levels(cfg, b_grid)
        labels = ("nv_msp1_mhz", "nv_ms0_mhz", "nv_msm1_mhz")
        for i, b in enumerate(b_grid):
            w, v = eigensystem(h_nv(b, cfg.nv))
            for level in range(3):
                label = labels[int(np.argmax(np.abs(v[:, level]) ** 2))]
                assert repr(cols[label][i]) == repr(w[level])
            wn, _ = eigensystem(h_n(b, cfg.nv))
            expected = {"n_down_mhz": wn[0], "n_up_mhz": wn[1], "f_n_mhz": wn[1] - wn[0]}
            for key, value in expected.items():
                assert repr(cols[key][i]) == repr(value)


class TestResonanceField:
    def test_known_resonance_value(self):
        assert np.isclose(resonance_field(NvParams()), 514.4, atol=0.05)

    def test_bracketed_root_oracle(self):
        # independent route: root of [E_-1(B) - E_0(B)] - gamma B on eigensolver output
        p = NvParams()

        def mismatch(b):
            w, _ = eigensystem(h_nv(b, p))
            return (w[1] - w[0]) - p.gamma * b

        root = scipy.optimize.brentq(mismatch, 100.0, 1000.0, xtol=1e-6)
        assert abs(root - resonance_field(p)) < 0.01

    def test_small_d_limit(self):
        assert resonance_field(NvParams(d_mhz=1e-9)) < 1e-6

    def test_g_scaling(self):
        b1 = resonance_field(NvParams(g=2.0))
        b2 = resonance_field(NvParams(g=4.0))
        assert np.isclose(b1, 2 * b2)


class TestRotatingFrame:
    """``frame_detuning``: the drive's detuning from the lowest N-V pair."""

    def frame(self, b, drive):
        return pair_hamiltonian(frame_detuning(b, NvParams(), drive), drive.f1_mhz)

    def test_on_resonance_gap(self):
        drive = DriveParams(f1_mhz=1.0)
        assert frame_detuning(850.0, NvParams(), drive) == 0.0
        w, _ = eigensystem(self.frame(850.0, drive))
        assert np.isclose(w[1] - w[0], 1.0, atol=1e-9)

    def test_generalized_rabi_gap(self):
        w = np.sort(nv_levels(850.0, NvParams()))
        f_t = w[1] - w[0]
        drive = DriveParams(f1_mhz=1.0, f_rf_mhz=f_t - 1.0)
        assert frame_detuning(850.0, NvParams(), drive) == 1.0
        w, _ = eigensystem(self.frame(850.0, drive))
        assert np.isclose(w[1] - w[0], np.sqrt(2.0), atol=1e-9)

    def test_no_drive_is_diagonal(self):
        w = np.sort(nv_levels(850.0, NvParams()))
        f_t = w[1] - w[0]
        frame = self.frame(850.0, DriveParams(f1_mhz=0.0, f_rf_mhz=f_t - 2.5))
        assert max_abs(frame - np.diag([0.0, 2.5])) < 1e-9

    def test_degenerate_pair_rejected(self):
        # m_S = +/-1 degenerate at zero field, 0 and -1 at the level crossing
        p = NvParams()
        for b in (0.0, p.d_mhz / p.gamma):
            with pytest.raises(ValueError, match="degenerate"):
                frame_detuning(b, p, DriveParams(f1_mhz=1.0))

    def test_poor_selectivity_warns(self):
        # at low field the m_S = +1 transition sits within 20 f1 of the drive
        with pytest.warns(UserWarning, match="selective"):
            frame_detuning(10.0, NvParams(), DriveParams(f1_mhz=5.0))


class TestDriveParams:
    def test_negative_f1_rejected(self):
        with pytest.raises(ValueError):
            DriveParams(f1_mhz=-1.0)

    @pytest.mark.parametrize("f1", [np.nan, np.inf, -np.inf])
    def test_non_finite_f1_rejected(self, f1):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {f1}"):
            DriveParams(f1_mhz=f1)

    def test_non_finite_drive_frequency_rejected(self):
        # a NaN frame detuning would otherwise surface as a non-Hermitian
        # Hamiltonian in the first evolution step
        with pytest.raises(ValueError, match="drive frequency must be finite, got nan"):
            DriveParams(f1_mhz=1.0, f_rf_mhz=np.nan)
