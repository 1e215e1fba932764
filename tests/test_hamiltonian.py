import numpy as np
import pytest
import scipy.constants as const
import scipy.optimize

from nvspin.constants import MU_B_MHZ_PER_G
from nvspin.hamiltonian import (
    DriveParams,
    NvParams,
    h_n,
    h_nv,
    resonance_field,
    rotating_frame,
)
from nvspin.spinops import eigensystem


def max_abs(a):
    return np.max(np.abs(a))


class TestConstants:
    def test_bohr_magneton_over_h(self):
        # oracle: CODATA values, converted to MHz per gauss
        expected = const.value("Bohr magneton") / const.h * 1e-4 * 1e-6
        assert np.isclose(MU_B_MHZ_PER_G, expected, rtol=1e-6)


class TestHNv:
    def test_zero_field_eigenvalues(self):
        p = NvParams()
        w, _ = eigensystem(h_nv(0.0, p))
        assert np.allclose(w, [0.0, 2880.0, 2880.0])

    def test_transition_at_100_gauss(self):
        p = NvParams()
        w, _ = eigensystem(h_nv(100.0, p))
        assert np.isclose(w[1] - w[0], 2600.0751, atol=1e-4)

    def test_level_crossing_field(self):
        p = NvParams()
        b_cross = p.d_mhz / p.gamma
        assert np.isclose(b_cross, 1028.9, atol=0.1)
        w, _ = eigensystem(h_nv(b_cross, p))
        # m_S = 0 and m_S = -1 degenerate at the crossing
        assert np.isclose(w[0], w[1], atol=1e-9)

    @pytest.mark.parametrize("b", [37.0, 100.0, 514.4, 850.0])
    def test_transitions_match_formula(self, b):
        p = NvParams()
        w, _ = eigensystem(h_nv(b, p))
        f_minus = w[1] - w[0]
        f_plus = w[2] - w[0]
        assert abs(f_minus - (p.d_mhz - p.gamma * b)) < 1e-9 * p.d_mhz
        assert abs(f_plus - (p.d_mhz + p.gamma * b)) < 1e-9 * p.d_mhz

    def test_hermitian(self):
        h = h_nv(321.0, NvParams())
        assert max_abs(h - h.conj().T) < 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NvParams(d_mhz=-1.0)
        with pytest.raises(ValueError):
            NvParams(g=0.0)


class TestHN:
    def test_splitting_at_resonance_field(self):
        w, _ = eigensystem(h_n(514.4236900683))
        assert np.isclose(w[1] - w[0], 1440.0, atol=1e-3)

    def test_zero_field_degenerate(self):
        w, _ = eigensystem(h_n(0.0))
        assert np.isclose(w[0], w[1], atol=1e-12)


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
    def test_on_resonance_gap(self):
        h = h_nv(850.0, NvParams())
        frame = rotating_frame(h, DriveParams(f1_mhz=1.0), (0, 1))
        w, _ = eigensystem(frame)
        assert np.isclose(w[1] - w[0], 1.0, atol=1e-9)

    def test_generalized_rabi_gap(self):
        h = h_nv(850.0, NvParams())
        w, _ = eigensystem(h)
        f_t = w[1] - w[0]
        frame = rotating_frame(h, DriveParams(f1_mhz=1.0, f_rf_mhz=f_t - 1.0), (0, 1))
        w, _ = eigensystem(frame)
        assert np.isclose(w[1] - w[0], np.sqrt(2.0), atol=1e-9)

    def test_no_drive_is_diagonal(self):
        h = h_nv(850.0, NvParams())
        w, _ = eigensystem(h)
        f_t = w[1] - w[0]
        frame = rotating_frame(h, DriveParams(f1_mhz=0.0, f_rf_mhz=f_t - 2.5), (0, 1))
        assert max_abs(frame - np.diag([0.0, 2.5])) < 1e-9

    def test_degenerate_pair_rejected(self):
        h = h_nv(0.0, NvParams())  # m_S = +/-1 degenerate at zero field
        with pytest.raises(ValueError, match="ambiguous|degenerate"):
            rotating_frame(h, DriveParams(f1_mhz=1.0), (0, 1))

    def test_poor_selectivity_warns(self):
        # at low field the m_S = +1 transition sits within 20 f1 of the drive
        h = h_nv(10.0, NvParams())
        with pytest.warns(UserWarning, match="selective"):
            rotating_frame(h, DriveParams(f1_mhz=5.0), (0, 1))


class TestDriveParams:
    def test_negative_f1_rejected(self):
        with pytest.raises(ValueError):
            DriveParams(f1_mhz=-1.0)
