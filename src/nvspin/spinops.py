"""Spin-operator algebra for small dense complex matrices.

Conventions used by every module in this package:

* Hamiltonians are frequency operators in MHz (hbar absorbed), time is in
  microseconds, so the propagator for a constant Hamiltonian is
  ``exp(-i 2 pi H t)``.
* The Sz eigenbasis is ordered m = +s ... -s (Sz diagonal, largest
  projection first).
"""

from math import isclose

import numpy as np

SUPPORTED_SPINS = (0.5, 1.0)


class UnsupportedSpinError(ValueError):
    """Raised for spin quantum numbers outside the supported set."""


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix but got none."""


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) for spin quantum number ``s``.

    Matrices are (2s+1)-dimensional in the Sz eigenbasis ordered
    m = +s ... -s, built from the standard ladder operators.
    """
    if not any(isclose(s, v) for v in SUPPORTED_SPINS):
        raise UnsupportedSpinError(
            f"spin quantum number {s} not supported (use one of {SUPPORTED_SPINS})"
        )
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    # <m+1| S+ |m> = sqrt(s(s+1) - m(m+1)) on the superdiagonal
    ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(dim - 1), np.arange(1, dim)] = ladder
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return sx, sy, sz


def is_hermitian(a: np.ndarray) -> bool:
    """True if every matrix of ``a`` (one matrix or a stack ``(..., n, n)``)
    is Hermitian to within 1e-9, entry by entry."""
    return bool(np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2)))) < 1e-9)


def eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Columns of the returned matrix are the eigenvectors, so
    ``h @ v == v @ diag(w)``.
    """
    if not is_hermitian(h):
        raise NonHermitianError("eigensystem requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return w, v
