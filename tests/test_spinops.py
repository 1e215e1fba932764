"""``is_hermitian`` of ``nvspin.spinops``, and the spin matrices,
eigensolver and propagator that the oracles build on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvspin.spinops import NonHermitianError, is_hermitian
from oracles import UnsupportedSpinError, eigensystem, expm_unitary, spin_matrices


def max_abs(a):
    return np.max(np.abs(a))


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestSpinMatrices:
    """The ladder-operator spin matrices of ``oracles.py``."""

    def test_spin_half_sz(self):
        _, _, sz = spin_matrices(0.5)
        assert np.allclose(sz, np.diag([0.5, -0.5]))

    def test_spin_one_ladder(self):
        sx, _, sz = spin_matrices(1.0)
        assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))
        assert np.allclose(sx[0, 1], 1 / np.sqrt(2))
        assert np.allclose(sx[1, 2], 1 / np.sqrt(2))

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_commutation_relation(self, s):
        sx, sy, sz = spin_matrices(s)
        assert max_abs(sx @ sy - sy @ sx - 1j * sz) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_casimir(self, s):
        sx, sy, sz = spin_matrices(s)
        s_sq = sx @ sx + sy @ sy + sz @ sz
        assert max_abs(s_sq - s * (s + 1) * np.eye(int(2 * s + 1))) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_hermiticity(self, s):
        for m in spin_matrices(s):
            assert max_abs(m - m.conj().T) < 1e-12

    def test_unsupported_spin_rejected(self):
        with pytest.raises(UnsupportedSpinError):
            spin_matrices(1.5)
        with pytest.raises(UnsupportedSpinError):
            spin_matrices(2.0)
        with pytest.raises(UnsupportedSpinError):
            spin_matrices(0.3)


class TestEigensystem:
    """The Hermitian eigensolver of ``oracles.py``."""

    def test_diagonal_sorted(self):
        w, _ = eigensystem(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_spin_half_sx(self):
        sx, _, _ = spin_matrices(0.5)
        w, _ = eigensystem(sx)
        assert np.allclose(w, [-0.5, 0.5])

    def test_reconstruction_oracle_9x9(self):
        h = random_hermitian(9, 42)
        w, v = eigensystem(h)
        assert max_abs(h @ v - v @ np.diag(w)) < 1e-9
        assert max_abs(v.conj().T @ v - np.eye(9)) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestIsHermitian:
    def test_checks_every_member_of_a_stack(self):
        stack = np.array([[random_hermitian(3, 10 * i + j) for j in range(3)]
                          for i in range(2)])
        assert is_hermitian(stack)
        stack[1, 2, 0, 1] += 1e-6
        assert not is_hermitian(stack)


class TestExpmUnitary:
    """The eigendecomposition propagator of ``oracles.py``."""

    def test_zero_time_identity(self):
        h = random_hermitian(4, 1)
        assert max_abs(expm_unitary(h, 0.0) - np.eye(4)) < 1e-12

    def test_larmor_half_period(self):
        # H = f * Sz for spin 1/2; at t = 1/(2 f) the phases are exp(-/+ i pi/2)
        _, _, sz = spin_matrices(0.5)
        f = 3.7
        u = expm_unitary(f * sz, 1 / (2 * f))
        assert np.allclose(u[0, 0], np.exp(-1j * np.pi / 2))
        assert np.allclose(u[1, 1], np.exp(+1j * np.pi / 2))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_group_property(self, seed):
        h = random_hermitian(3, seed)
        rng = np.random.default_rng(seed + 1)
        t1, t2 = rng.uniform(0, 2, size=2)
        lhs = expm_unitary(h, t1) @ expm_unitary(h, t2)
        assert max_abs(lhs - expm_unitary(h, t1 + t2)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_unitarity(self, seed):
        h = random_hermitian(6, seed)
        u = expm_unitary(h, 0.731)
        assert max_abs(u.conj().T @ u - np.eye(6)) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            expm_unitary(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)
