"""Hermiticity check for small dense complex matrices.

Conventions used by every module in this package:

* Hamiltonians are frequency operators in MHz (hbar absorbed), time is in
  microseconds, so the propagator for a constant Hamiltonian is
  ``exp(-i 2 pi H t)``.
* The Sz eigenbasis is ordered m = +s ... -s (Sz diagonal, largest
  projection first).
"""

import numpy as np


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix but got none."""


def is_hermitian(a: np.ndarray) -> bool:
    """True if every matrix of ``a`` (one matrix or a stack ``(..., n, n)``)
    is Hermitian to within 1e-9, entry by entry."""
    return bool((np.abs(a - np.conj(np.swapaxes(a, -1, -2))) < 1e-9).all())
