"""Reference implementations the tests compare the library against.

None of these is on a production path: the library evolves every state
through ``dynamics.evolve_lindblad`` and ``dynamics.lindblad_trajectory``
and writes the static levels in closed form (``hamiltonian.nv_levels``).
``stepped_trajectory`` is the per-step loop that ``lindblad_trajectory``
ran before it advanced runs of equal steps by doubling.
Each function here is an independent route to a quantity that those paths
or the experiments also produce; the dense Hamiltonians are built from
ladder-operator spin matrices and diagonalised numerically.  The
Levenberg-Marquardt loop and the three fit models (each building its
Jacobian with ``np.column_stack``) are the plain forms of the library's,
which must give the same floating-point results bit for bit.
"""

from collections.abc import Sequence
from math import isclose

import numpy as np

from nvspin import dynamics
from nvspin.dynamics import CollapseOps
from nvspin.fitting import LM_FTOL, LM_GTOL, LM_MAX_ITER, LM_XTOL, LMResult, Trace
from nvspin.hamiltonian import DriveParams, NvParams
from nvspin.pulseq import Delay, RfPulse, Segment, pi2_duration
from nvspin.spinops import NonHermitianError, is_hermitian

SUPPORTED_SPINS = (0.5, 1.0)


class UnsupportedSpinError(ValueError):
    """Raised for spin quantum numbers outside the supported set."""


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


def eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix or a
    stack of them.

    Columns of the returned matrix are the eigenvectors, so
    ``h @ v == v @ diag(w)``.
    """
    if not is_hermitian(h):
        raise NonHermitianError("eigensystem requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return w, v


def h_nv(b_gauss, p: NvParams) -> np.ndarray:
    """Dense N-V ground-state Hamiltonian D*Sz^2 + gamma*B*Sz in the basis
    m_S = +1, 0, -1; a field array gives a stack ``(..., 3, 3)``."""
    _, _, sz = spin_matrices(1.0)
    zeeman = p.gamma * np.asarray(b_gauss, dtype=float)[..., None, None]
    return p.d_mhz * (sz @ sz) + zeeman * sz


def h_n(b_gauss: float, p: NvParams) -> np.ndarray:
    """Zeeman Hamiltonian of one P1 electron spin at g = ``p.g``, 2x2."""
    _, _, sz = spin_matrices(0.5)
    return p.gamma * b_gauss * sz


def basis_density(dim: int, index: int) -> np.ndarray:
    """The pure state |index><index| of a ``dim``-level system."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def rabi_probability(f1: float, df, t):
    """Probability of remaining in the initial level under resonant driving.

    P = 1 - f1^2/(f1^2 + df^2) * sin^2(pi sqrt(f1^2 + df^2) t), the
    textbook two-level result; broadcasts over ``df`` and ``t``.
    """
    df = np.asarray(df, dtype=float)
    t = np.asarray(t, dtype=float)
    f_eff_sq = f1**2 + df**2
    with np.errstate(invalid="ignore", divide="ignore"):
        contrast = np.where(f_eff_sq > 0, f1**2 / np.where(f_eff_sq > 0, f_eff_sq, 1.0), 0.0)
    p = 1.0 - contrast * np.sin(np.pi * np.sqrt(f_eff_sq) * t) ** 2
    if p.ndim == 0:
        return float(p)
    return p


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Propagator exp(-i 2 pi h t) for a Hermitian ``h`` in MHz, ``t`` in us,
    from the eigendecomposition of ``h``."""
    w, v = eigensystem(h)
    phases = np.exp(-2j * np.pi * w * t)
    return (v * phases) @ v.conj().T


def propagate(segments: Sequence[tuple[np.ndarray, float]], rho0: np.ndarray) -> np.ndarray:
    """Apply rho -> U rho U+ for each (Hamiltonian, duration) segment."""
    rho = np.asarray(rho0, dtype=complex)
    for h, dt in segments:
        if dt < 0:
            raise ValueError("segment durations must be >= 0")
        if h.shape != rho.shape:
            raise ValueError(f"Hamiltonian shape {h.shape} != state shape {rho.shape}")
        if dt == 0:
            continue
        u = expm_unitary(h, dt)
        rho = u @ rho @ u.conj().T
    return rho


def rk4_lindblad(h: np.ndarray, collapse_ops: CollapseOps, rho: np.ndarray,
                 t: float) -> np.ndarray:
    """Evolve one density matrix for time ``t`` under the Lindblad equation
    with fixed-step RK4, directly on the matrix.

    The step is kept well below 1/(50 * max frequency scale); the factor 200
    holds the mismatch against the exact exponential under 1e-6.
    """
    def rhs(rho):
        out = -2j * np.pi * (h @ rho - rho @ h)
        for op, rate in collapse_ops:
            opd = op.conj().T
            opd_op = opd @ op
            out = out + rate * (op @ rho @ opd - 0.5 * (opd_op @ rho + rho @ opd_op))
        return out

    rho = np.asarray(rho, dtype=complex)
    freq_scale = float(np.max(np.abs(np.linalg.eigvalsh(h)))) if h.size else 0.0
    rate_scale = max((rate for _, rate in collapse_ops), default=0.0)
    scale = max(freq_scale, rate_scale, 1e-9)
    n = max(1, int(np.ceil(t * scale * 200)))
    dt = t / n
    for _ in range(n):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def stepped_trajectory(h: np.ndarray, collapse_ops: CollapseOps, rho0: np.ndarray,
                       times: np.ndarray, observable: np.ndarray | None = None) -> np.ndarray:
    """``dynamics.lindblad_trajectory`` one step at a time: the same blocks,
    sectors and exponential expm(L dt), rebuilt only when dt moves by more
    than 1e-12 relative, applied to one state column per step."""
    times = np.asarray(times, dtype=float)
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    x0 = dynamics._coordinates(rho0)
    members = h.reshape((-1, dim, dim))
    if observable is None:
        out = np.zeros((len(members), len(times), dim * dim))
    else:
        basis, norm, _ = dynamics._hermitian_basis(dim)
        trace_row = (np.asarray(observable).T.reshape(-1) @ basis).real / norm
        out = np.empty((len(members), len(times)))
    for lo in range(0, len(members), dynamics.TRAJECTORY_BLOCK):
        block = slice(lo, lo + dynamics.TRAJECTORY_BLOCK)
        liou = dynamics.build_liouvillian(members[block], collapse_ops)
        sector = np.flatnonzero(dynamics._reachable(liou, x0 != 0))
        liou = liou[..., sector[:, None], sector]
        state = np.broadcast_to(x0[sector, None], liou.shape[:-1] + (1,))
        prev = dt_prop = 0.0
        for i, t in enumerate(times):
            dt = t - prev
            if dt > 0:
                if abs(dt - dt_prop) > 1e-12 * dt_prop:
                    prop, dt_prop = dynamics.expm(liou * dt), dt
                state = prop @ state
                prev = t
            if observable is None:
                out[block, i, sector] = state[..., 0]
            else:
                out[block, i] = state[..., 0] @ trace_row[sector]
    if observable is not None:
        return out.reshape(h.shape[:-2] + (len(times),))
    return dynamics._matrices(out, dim).reshape(h.shape[:-2] + (len(times), dim, dim))


def spectral_peak_count(trace: Trace) -> int:
    """Number of distinct frequencies in a trace's discrete spectrum.

    Counts local maxima of the Hann-windowed, zero-padded magnitude
    spectrum that reach half of the strongest nonzero-frequency component.
    Zero padding keeps a line that falls between Fourier bins from being
    split below the half-max threshold.
    """
    y = trace.y - np.mean(trace.y)
    spec = np.abs(np.fft.rfft(y * np.hanning(len(y)), n=8 * len(y)))
    spec[0] = 0.0
    top = np.max(spec)
    if top == 0:
        return 0
    count = 0
    for k in range(1, len(spec) - 1):
        if spec[k] >= spec[k - 1] and spec[k] > spec[k + 1] and spec[k] >= 0.5 * top:
            count += 1
    return count


def ramsey_sequence(tau_us: float, drive: DriveParams) -> tuple[Segment, ...]:
    """Unrefocused pi/2 - tau - pi/2 reference for the echo comparison."""
    t_pi2 = pi2_duration(drive.f1_mhz)
    return (RfPulse(t_pi2, drive), Delay(tau_us), RfPulse(t_pi2, drive))


def levenberg_marquardt(fun, p0) -> LMResult:
    """The loop of ``nvspin.fitting.levenberg_marquardt`` written plainly,
    one numpy call per formula (``np.diag``, ``np.clip``, ``a + np.diag(...)``,
    ``np.linalg.norm``); the library's leaner loop must match it bit for bit.

    ``fun`` maps a parameter vector to ``(r, J)``, the residual and its exact
    Jacobian.  Each iteration tries one step damped by ``lam * diag(J^T J)``;
    ``lam`` shrinks on accepted steps and grows on rejected ones, so the cost
    history decreases monotonically.  ``stop`` names the test that ended it:
    ``"ftol"`` (a step's actual, in magnitude, and predicted relative cost
    reductions both <= LM_FTOL), ``"xtol"`` (a trial step <= LM_XTOL of the
    parameters, both scaled by J's column norms), ``"gtol"`` (every cosine
    between r and a column of J <= LM_GTOL), or ``"max_iter"``, the only
    outcome that is not ``converged``.
    """
    p = np.asarray(p0, dtype=float).copy()
    r, jac = fun(p)
    cost = float(r @ r)
    history = [cost]
    lam = 1e-3
    stop, it = "max_iter", 0
    for it in range(1, LM_MAX_ITER + 1):
        g, a = jac.T @ r, jac.T @ jac
        d = np.sqrt(np.diag(a))
        if np.all(np.abs(g) <= LM_GTOL * np.sqrt(cost) * d):
            stop = "gtol"
            break
        damping = lam * np.clip(np.diag(a), 1e-14, None)
        try:
            step = np.linalg.solve(a + np.diag(damping), -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        if np.linalg.norm(d * step) <= LM_XTOL * np.linalg.norm(d * p):
            stop = "xtol"
            break
        r_new, jac_new = fun(p + step)
        cost_new = float(r_new @ r_new)
        js = jac @ step
        predicted = float(js @ js + 2.0 * step @ (damping * step))
        # tested on rejected steps too, as lmder does: at the roundoff floor
        # whether a step lowers the cost turns on the last bits of the data
        small = abs(cost - cost_new) <= LM_FTOL * cost and predicted <= LM_FTOL * cost
        if cost_new < cost:
            p, r, jac, cost = p + step, r_new, jac_new, cost_new
            history.append(cost)
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 4.0
        if small:
            stop = "ftol"
            break
    return LMResult(p, history, float(np.sqrt(cost)), stop != "max_iter", it, stop)


def damped_cosine_model(p, x, y):
    """Residual and Jacobian of offset + A exp(-|rate| t) cos(2 pi f1 t + phase)."""
    offset, amp, f1, rate, phase = p
    envelope = np.exp(-abs(rate) * x)
    arg = 2 * np.pi * f1 * x + phase
    c, s = envelope * np.cos(arg), envelope * np.sin(arg)
    jac = np.column_stack([np.ones_like(x), c, -2 * np.pi * amp * x * s,
                           -np.sign(rate) * amp * x * c, -amp * s])
    return offset + amp * c - y, jac


def exp_decay_model(p, x, y):
    """Residual and Jacobian of offset + A exp(-|rate| t)."""
    offset, amp, rate = p
    decay = np.exp(-abs(rate) * x)
    jac = np.column_stack([np.ones_like(x), decay, -np.sign(rate) * amp * x * decay])
    return offset + amp * decay - y, jac


def lorentzian_model(p, x, y):
    """Residual and Jacobian of offset + A h^2 / ((x - c)^2 + h^2), h = w/2."""
    offset, amp, c, w = p
    h, u = w / 2, x - c
    q = u ** 2 + h ** 2
    shape = h ** 2 / q
    jac = np.column_stack([np.ones_like(x), shape, 2 * amp * shape * u / q,
                           amp * h * u ** 2 / q ** 2])
    return offset + amp * shape - y, jac
