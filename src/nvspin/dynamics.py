"""Time evolution: Lindblad dissipation, quasi-static noise ensembles and
driven steady states.

The Lindblad generator used throughout is

    drho/dt = -i 2 pi [H, rho] + sum_k gamma_k (L rho L+ - {L+L, rho}/2)

with H in MHz and rates gamma_k in 1/us.  It preserves Hermiticity, so in
an orthonormal basis of Hermitian matrices T (cached per dimension) it is a
real matrix acting on real coordinates x = T+ vec(rho) (Havel, J. Math.
Phys. 44, 534 (2003)); ``build_liouvillian`` returns that real matrix, and
every state mapped back as rho = T x is Hermitian by construction, with no
re-Hermitisation.  Hamiltonians may be stacks ``(..., d, d)`` whose leading
axes index the members of :meth:`NoiseModel.ensemble`.

The generator is the Hamiltonian's coordinates times cached commutator
generators plus a dissipator that does not depend on H (Lindblad, Commun.
Math. Phys. 48, 119 (1976)).  ``evolve_lindblad`` exponentiates the
generator over one step (the one evolution path of the pulse sequences,
closed systems included; the tests check it against a fixed-step RK4),
``lindblad_trajectory`` advances a time grid with the same exponential,
restricted to the coordinates reachable from rho0 (an invariant block,
Buca & Prosen, New J. Phys. 14, 073007 (2012)), each run of equal steps
by doubling (P^2m = (P^m)^2); it builds the dissipator, checks
Hermiticity and finds the sector once per call, for the whole stack, and
forms each block's generators from them.  ``steady_state`` takes every
member's null space in one batched solve.  Both integrators reject a
non-Hermitian Hamiltonian and a state whose size differs from it.  Their
exponential is :func:`expm`, numpy only and free of linear solves:
scaling and squaring with the degree-18 Taylor polynomial, whose
threshold theta_18 = 1.0909 keeps the backward error below 2^-53, one
squaring count for the whole stack.  scipy is imported by
``steady_state`` alone, for ``null_space``.
"""

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hamiltonian import _check_finite
from .spinops import NonHermitianError, is_hermitian

CollapseOps = Sequence[tuple[np.ndarray, float]]


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space is not one-dimensional."""


@dataclass(frozen=True)
class NoiseModel:
    """Decoherence knobs for one simulated experiment.

    ``sigma_static_mhz`` is the standard deviation of a quasi-static detuning
    (constant within a shot, Gaussian across shots).  ``gamma_phi`` and
    ``gamma_1`` are Markovian pure-dephasing and relaxation rates in 1/us,
    defined so that a free coherence decays as exp(-gamma_phi t) and an
    excited population as exp(-gamma_1 t).  ``nuclear_populations``
    (weights of the discrete detunings -A, 0, +A, with A the nonzero
    ``nuclear_splitting_mhz``) enables averaging over the host 14N nuclear
    spin states.
    """

    sigma_static_mhz: float = 0.0
    gamma_phi: float = 0.0
    gamma_1: float = 0.0
    n_samples: int = 1
    seed: int = 0
    nuclear_splitting_mhz: float = 0.0
    nuclear_populations: tuple[float, float, float] | None = None

    def __post_init__(self):
        _check_finite(self, "sigma_static_mhz", "gamma_phi", "gamma_1", bound=">= 0")
        _check_finite(self, "nuclear_splitting_mhz")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.nuclear_populations is not None:
            pops = self.nuclear_populations
            if len(pops) != 3 or not np.all(np.isfinite(pops)) or min(pops) < 0 or sum(pops) <= 0:
                raise ValueError(f"nuclear_populations must be 3 finite weights >= 0, got {pops}")
            if self.nuclear_splitting_mhz == 0.0:
                raise ValueError("nuclear_populations need a nonzero nuclear_splitting_mhz")

    def static_detunings(self) -> np.ndarray:
        """The quasi-static detuning samples for this model, in MHz."""
        if self.sigma_static_mhz == 0.0:
            return np.zeros(self.n_samples)
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, self.sigma_static_mhz, self.n_samples)

    def ensemble(self) -> tuple[np.ndarray, np.ndarray]:
        """Detuning (MHz) and weight of every ensemble member: each nuclear
        branch shifted by each quasi-static sample, branch-major.  The
        weights sum to one."""
        samples = self.static_detunings()
        a = self.nuclear_splitting_mhz
        pops = np.asarray(self.nuclear_populations or (0.0, 1.0, 0.0), dtype=float)
        keep = pops > 0
        shifts = np.array([-a, 0.0, a])[keep]
        weights = pops[keep] / pops.sum() / len(samples)
        return ((shifts[:, None] + samples).reshape(-1),
                np.repeat(weights, len(samples)))


# ---------------------------------------------------------------------------
# density-matrix helpers

def validate_density(rho: np.ndarray) -> None:
    """Raise if ``rho``, or any member of a stack ``(..., d, d)``, is not
    finite, Hermitian to 1e-8, of trace 1 to 1e-8 and without an eigenvalue
    below -1e-6."""
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has a non-finite entry")
    rho_dag = np.conj(np.swapaxes(rho, -1, -2))
    if np.max(np.abs(rho - rho_dag)) > 1e-8:
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    if np.max(np.abs(tr.real - 1.0)) > 1e-8 or np.max(np.abs(tr.imag)) > 1e-8:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho_dag))) < -1e-6:
        raise ValueError("density matrix has a significantly negative eigenvalue")


# ---------------------------------------------------------------------------
# Lindblad dissipation

def _superop(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of rho -> left @ rho @ right on row-major vectorized rho;
    broadcasts over leading stack axes."""
    sup = np.einsum("...ik,...lj->...ijkl", left, right)
    n = sup.shape[-1] ** 2
    return sup.reshape(sup.shape[:-4] + (n, n))


@functools.lru_cache(maxsize=None)
def _hermitian_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orthonormal Hermitian basis T of d x d matrices, built once per
    dimension, as ``(basis, norm, commutators)``.

    T_p = B_p / norm[p].  Column p of ``basis`` is the row-major vectorized
    B_p: E_kk in slot (k, k) and, for j < k, E_jk + E_kj in slot (j, k) and
    i (E_jk - E_kj) in slot (k, j); ``norm`` is 1 or sqrt 2.  Changing basis
    through the B_p multiplies only by 0, +-1 and +-i, so a generator entry
    that vanishes by symmetry comes out as an exact zero.  Row p of
    ``commutators`` is the real generator of rho -> -i 2 pi [T_p, rho],
    flattened to d^4 entries.
    """
    n = dim * dim
    basis = np.zeros((n, n), dtype=complex)
    norm = np.ones(n)
    for j in range(dim):
        basis[j * dim + j, j * dim + j] = 1.0
        for k in range(j + 1, dim):
            upper, lower = j * dim + k, k * dim + j
            basis[[upper, lower], upper] = 1.0
            basis[[upper, lower], lower] = 1j, -1j
            norm[[upper, lower]] = np.sqrt(2.0)
    mats = basis.T.reshape(n, dim, dim)
    ident = np.eye(dim)
    comm = -1j * (_superop(mats, ident) - _superop(ident, mats))
    comm = (basis.conj().T @ comm @ basis).real
    commutators = 2 * np.pi * comm / (norm[:, None, None] * np.outer(norm, norm))
    cached = basis, norm, commutators.reshape(n, n * n)
    for arr in cached:
        arr.flags.writeable = False
    return cached


def _coordinates(m: np.ndarray) -> np.ndarray:
    """Real coordinates tr(T_p m) of a Hermitian matrix or stack
    ``(..., d, d)``, shape ``(..., d*d)``."""
    basis, norm, _ = _hermitian_basis(m.shape[-1])
    return (m.reshape(m.shape[:-2] + (len(norm),)) @ basis.conj()).real / norm


def _matrices(x: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrices sum_p x_p T_p of real coordinates ``(..., d*d)``;
    Hermitian to the last bit, since the B_p carry only 0, +-1 and +-i."""
    basis, norm, _ = _hermitian_basis(dim)
    return ((x / norm) @ basis.T).reshape(x.shape[:-1] + (dim, dim))


def _hamiltonian_coordinates(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hamiltonian or stack ``(..., d, d)``, one row
    ``(d*d,)`` per member, after the generators' one Hermiticity check:
    raises :class:`NonHermitianError` if any member is not Hermitian."""
    if not is_hermitian(h):
        raise NonHermitianError("Lindblad Hamiltonian must be Hermitian")
    return _coordinates(h).reshape(-1, h.shape[-1] ** 2)


def _dissipator(collapse_ops: CollapseOps, dim: int) -> np.ndarray:
    """Real matrix of the dissipator sum_k gamma_k (L rho L+ - {L+L, rho}/2)
    in the Hermitian basis: the part of the generator that does not depend
    on H, so one matrix serves every member of a stack."""
    basis, norm, _ = _hermitian_basis(dim)
    ident = np.eye(dim)
    dissipator = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op, rate in collapse_ops:
        if rate < 0:
            raise ValueError("collapse rates must be >= 0")
        if rate == 0:
            continue
        opd = op.conj().T
        opd_op = opd @ op
        dissipator += rate * (_superop(op, opd)
                              - 0.5 * (_superop(opd_op, ident) + _superop(ident, opd_op)))
    return (basis.conj().T @ dissipator @ basis).real / np.outer(norm, norm)


def build_liouvillian(h: np.ndarray, collapse_ops: CollapseOps) -> np.ndarray:
    """Real matrix T+ L T of the Lindblad generator L in the Hermitian basis T
    (see :func:`_hermitian_basis`), acting on real coordinates x = T+ vec(rho).

    ``h`` may be a stack of Hamiltonians ``(..., d, d)``; the result is then
    the matching float stack ``(..., d*d, d*d)``.  Every Lindblad generator
    preserves Hermiticity, which is why it is real in this basis.  The
    Hamiltonian part is h's coordinates times the cached commutator
    generators; the dissipator (:func:`_dissipator`) is the same for the
    whole stack and built once.  Raises :class:`NonHermitianError` for a
    non-Hermitian ``h``.
    """
    dim = h.shape[-1]
    liou = _hamiltonian_coordinates(h) @ _hermitian_basis(dim)[2]
    return liou.reshape(h.shape[:-2] + (dim * dim,) * 2) + _dissipator(collapse_ops, dim)


def _check_evolution(h: np.ndarray, rho: np.ndarray) -> None:
    """Guard shared by the Lindblad integrators: a state of the Hamiltonian's
    size.  :func:`_hamiltonian_coordinates`, which both reach, checks
    Hermiticity."""
    if h.shape[-2:] != rho.shape[-2:]:
        raise ValueError("Hamiltonian and state dimensions differ")


# the 1-norm up to which the degree-18 Taylor polynomial's backward error is
# at most 2^-53 (Bader, Blanes & Casas 2019), and its coefficients 1/k!: row j
# holds those of I, A, A^2, A^3 in the coefficient block of A^(4j)
_THETA18 = 1.090863719290036
_TAYLOR18 = np.append(1.0 / np.cumprod([1.0, *range(1, 19)]), 0.0).reshape(5, 4)


def expm(a: np.ndarray) -> np.ndarray:
    """Exponential of a matrix, or of each member of a stack ``(..., n, n)``.

    Scaling and squaring with the degree-18 truncated Taylor polynomial
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)): A is
    scaled by 2^-s until its 1-norm is at most theta_18 = 1.0909, where the
    polynomial's backward error is at most 2^-53 (Bader, Blanes & Casas,
    Mathematics 7, 1174 (2019)), and the result is squared s times.  The
    polynomial is evaluated by Paterson-Stockmeyer, as a polynomial of
    degree 4 in A^4 whose coefficients are combinations of I, A, A^2 and
    A^3: 7 stacked products and no linear solve.  The whole stack takes one
    squaring count, set by its largest 1-norm, so smaller members are
    squared more often than they need.
    """
    a = np.asarray(a)
    if a.size == 0:
        return np.array(a, dtype=np.result_type(a, 1.0))
    norm = float(np.max(np.sum(np.abs(a), axis=-2)))
    if not np.isfinite(norm):
        raise ValueError("expm needs finite entries")
    s = int(np.ceil(np.log2(norm / _THETA18))) if norm > _THETA18 else 0
    # I, A, A^2, A^3 in one buffer: the five blocks are one product, not 20 copies
    powers = np.empty((4,) + a.shape, dtype=np.result_type(a, 1.0))
    powers[0] = np.eye(a.shape[-1])
    np.multiply(a, 2.0**-s, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    a4 = powers[2] @ powers[2]
    blocks = (_TAYLOR18 @ powers.reshape(4, -1)).reshape((5,) + a.shape)
    r = blocks[4]
    for b in blocks[3::-1]:
        r = a4 @ r
        r += b
    for _ in range(s):
        r = r @ r
    return r


def evolve_lindblad(h: np.ndarray, collapse_ops: CollapseOps, rho0: np.ndarray,
                    t: float) -> np.ndarray:
    """Evolve a density matrix for time ``t`` under a constant Hamiltonian
    and Lindblad dissipators.

    ``h`` and ``rho0`` may be stacks ``(..., d, d)`` whose leading axes
    broadcast against each other; the result has the broadcast shape.  Each
    member's real generator is exponentiated exactly and the coordinates are
    mapped back to Hermitian matrices.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    rho = np.asarray(rho0, dtype=complex)
    _check_evolution(h, rho)
    liou = build_liouvillian(h, collapse_ops)
    if t == 0:
        return np.broadcast_to(rho, np.broadcast_shapes(h.shape, rho.shape)).copy()
    x = expm(liou * t) @ _coordinates(rho)[..., None]
    return _matrices(x[..., 0], rho.shape[-1])


# members that lindblad_trajectory steps together: 96 (four field points of
# the default field sweep) ran that sweep as fast as any larger block, and
# stepping all its 1,440 members at once took peak RSS from 45 to 97 MiB
TRAJECTORY_BLOCK = 96
# a block also holds at most this many states, members x (grid points + 1),
# in its (members, points + 1, sector) buffer: on the 161-point Rabi window
# 48 members ran as fast as 96 and faster than 24, and at 96 one default
# sweep's tracemalloc peak rose from 4.2 to 6.3 MiB, as much as the 5% bound
# on the benchmark's peak RSS (about 44 MiB); a 1-point wait keeps 96
TRAJECTORY_STATES = 48 * 162


def _reachable(liou: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Mask of the coordinates reachable from ``support`` under a generator,
    a generator stack or a boolean nonzero pattern ``(n, n)``: the closure
    of ``support`` under the union of the members' nonzero patterns.  Every
    other coordinate of a state supported on ``support`` stays exactly zero,
    so the generators may be restricted to it.  The pattern alone decides
    the sector, so :func:`lindblad_trajectory` finds one per call from a
    pattern that covers every member, before it builds any generator."""
    coupled = np.any(liou != 0, axis=tuple(range(liou.ndim - 2)))
    sector = support
    while True:
        grown = sector | np.any(coupled[:, sector], axis=1)
        if np.array_equal(grown, sector):
            return sector
        sector = grown


def _equal_step_runs(times: np.ndarray) -> list[list]:
    """The grid 0, times[0], times[1], ... as runs ``[start, stop, dt]`` of
    steps within 1e-12 relative of the run's first, ``dt``, indexed by grid
    point: the run takes point ``start`` to points ``start + 1 ... stop``.
    Repeated times make runs with dt = 0."""
    runs = []
    for i, dt in enumerate(np.diff(times, prepend=0.0).tolist()):
        if runs and abs(dt - runs[-1][2]) <= 1e-12 * runs[-1][2]:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1, dt])
    return runs


def lindblad_trajectory(h: np.ndarray, collapse_ops: CollapseOps, rho0: np.ndarray,
                        times: np.ndarray, observable: np.ndarray | None = None) -> np.ndarray:
    """Density matrices at each time in ``times`` (finite, sorted, >= 0),
    or, given an ``observable`` O, only the real tr(O rho) at each time.

    ``h`` is one Hamiltonian ``(d, d)`` or a stack ``(..., d, d)``, and
    ``rho0`` is one ``(d, d)`` state shared by every member; both pass
    ``evolve_lindblad``'s guards.  The result has shape
    ``(..., len(times), d, d)``, or ``(..., len(times))`` with an observable.
    The stack steps on the real coordinates of rho0, restricted to the
    sector the whole stack can reach from them (:func:`_reachable`) under a
    pattern that covers every member's generator: the dissipator's nonzeros
    and those of the commutator generator of every coordinate that is
    nonzero in some member.  A dark joint wait from a diagonal rho0 steps 6
    of its 16 coordinates.  The Hermiticity check, the Hamiltonian
    coordinates of every member, the dissipator, the sector and the
    restriction of the commutator generators and the dissipator to it are
    all done once per call; a member whose own sector is smaller steps the
    union, its other coordinates staying exactly zero.  The members then
    step in blocks of ``TRAJECTORY_BLOCK``, fewer on a grid so long that a
    block would hold over ``TRAJECTORY_STATES`` states (48 on the 161-point
    Rabi window), each block's generators being one product, coordinates
    times restricted commutators, plus the restricted dissipator.  The grid
    from t = 0 splits into runs of equal steps, and each run is advanced by
    doubling: with P = expm(L dt) and the states at its first m points
    known, the next m are P^m times those, one stacked product, and
    P^2m = (P^m)^2 (the squaring phase of :func:`expm`).  A uniform
    161-point grid thus costs one exponential, 7 squarings and 8 products
    per block; a run whose step matches the previous run's to 1e-12
    relative reuses its propagator.  The
    states T x are Hermitian by construction.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be finite, sorted and >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2:
        raise ValueError(f"rho0 must be one (d, d) state, got shape {rho0.shape}")
    _check_evolution(h, rho0)
    dim = rho0.shape[0]
    n = dim * dim
    x0 = _coordinates(rho0)
    coords = _hamiltonian_coordinates(h)
    basis, norm, commutators = _hermitian_basis(dim)
    dissipator = _dissipator(collapse_ops, dim)
    pattern = (dissipator != 0) | commutators[coords.any(axis=0)].any(axis=0).reshape(n, n)
    sector = np.flatnonzero(_reachable(pattern, x0 != 0))
    commutators = commutators.reshape(n, n, n)[:, sector[:, None], sector].reshape(n, -1)
    dissipator = dissipator[sector[:, None], sector]
    runs = _equal_step_runs(times)
    if observable is None:
        out = np.zeros((len(coords), len(times), n))
    else:
        # tr(O rho) = sum_p x_p tr(O T_p)
        trace_row = (np.asarray(observable).T.reshape(-1) @ basis).real / norm
        out = np.empty((len(coords), len(times)))
    size = max(1, min(TRAJECTORY_BLOCK, TRAJECTORY_STATES // (len(times) + 1)))
    # time-major states, point 0 being t = 0, in one buffer for all blocks:
    # a buffer per block left the process's peak RSS 1 MiB higher after 130
    # default-size sweeps, as the heap fragmented around the freed buffers
    buffer = np.empty(size * (len(times) + 1) * n)
    for lo in range(0, len(coords), size):
        block = slice(lo, lo + size)
        liou = (coords[block] @ commutators).reshape(-1, len(sector), len(sector)) + dissipator
        states = buffer[:len(liou) * (len(times) + 1) * len(sector)].reshape(
            len(liou), len(times) + 1, len(sector))
        states[:, 0] = x0[sector]
        dt_prop = 0.0
        for start, stop, dt in runs:
            if dt == 0.0:
                states[:, start + 1:stop + 1] = states[:, start, None]
                continue
            if abs(dt - dt_prop) > 1e-12 * dt_prop:
                # transposed, as the states are rows; a contiguous copy
                # halves the cost of the products
                prop = np.ascontiguousarray(np.swapaxes(expm(liou * dt), -1, -2))
                dt_prop = dt
            power, known = prop, 1
            while known <= stop - start:
                if known > 1:
                    power = power @ power
                m = min(known, stop - start + 1 - known)
                np.matmul(states[:, start:start + m], power,
                          out=states[:, start + known:start + known + m])
                known += m
        if observable is None:
            out[block, :, sector] = states[:, 1:]
        else:
            out[block] = states[:, 1:] @ trace_row[sector]
    if observable is not None:
        return out.reshape(h.shape[:-2] + (len(times),))
    return _matrices(out, dim).reshape(h.shape[:-2] + (len(times), dim, dim))


def steady_state(h: np.ndarray, collapse_ops: CollapseOps) -> np.ndarray:
    """Unique stationary state of the Lindblad generator, for one
    Hamiltonian or a stack ``(..., d, d)`` solved in one batched call.

    The null space is taken of the real generator of
    :func:`build_liouvillian`, so its vector x is real and T x is Hermitian
    with no re-Hermitisation.  Raises :class:`DegenerateSteadyStateError`
    when any member's null space is not one-dimensional (e.g. no dissipation
    at all) or its vector has zero trace; every member passes
    :func:`validate_density`.
    """
    import scipy.linalg

    liou = build_liouvillian(h, collapse_ops)
    try:
        ns = scipy.linalg.null_space(liou, rcond=1e-10)
    except ValueError as exc:
        if liou.ndim == 2:
            raise
        raise DegenerateSteadyStateError(
            f"Liouvillian null spaces differ across the stack: {exc}") from exc
    if ns.shape[-1] != 1:
        raise DegenerateSteadyStateError(
            f"Liouvillian null space has dimension {ns.shape[-1]}, expected 1"
        )
    rho = _matrices(ns[..., 0], h.shape[-1])
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    if np.any(np.abs(tr) < 1e-12):
        raise DegenerateSteadyStateError("null-space vector has zero trace")
    rho = rho / tr[..., None, None]
    validate_density(rho)
    return rho


# ---------------------------------------------------------------------------
# Markovian noise

def pair_collapse_ops(noise: NoiseModel | None) -> list[tuple[np.ndarray, float]]:
    """Collapse operators realizing a NoiseModel's Markovian rates on the
    addressed level pair (|0> = ground, |1> = excited).

    Dephasing uses L = diag(+1, -1) at rate gamma_phi / 2, so a free
    coherence decays as exp(-gamma_phi t); relaxation uses L = |0><1| at
    rate gamma_1.
    """
    if noise is None:
        return []
    ops = []
    if noise.gamma_phi > 0:
        ops.append((np.diag([1.0, -1.0]).astype(complex), noise.gamma_phi / 2.0))
    if noise.gamma_1 > 0:
        ops.append((np.array([[0, 1], [0, 0]], dtype=complex), noise.gamma_1))
    return ops
