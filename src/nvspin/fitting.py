"""Nonlinear least-squares extraction of experimental observables.

Three fit models cover everything the simulator produces:

* damped cosine  ->  Rabi frequency f1 and nutation decay time T2'
* exponential decay  ->  echo coherence time T2
* Lorentzian  ->  center/width of resonance dips and peaks

Each model is one residual function that returns its exact Jacobian too.
The optimizer is a self-contained damped least-squares (Levenberg-Marquardt)
loop that stops on MINPACK's named tests (``ftol``, ``xtol``, ``gtol``) or at
``max_iter``; the name goes into ``FitResult.flags``.  A stack of
damped-cosine traces on one grid (the field sweep's and the Rabi powers')
is fitted by ``fit_damped_cosines`` in one pass of the same loop over the
stack, each trace with its own damping and stop test and the same result
as its scalar fit, through the same model function.  Initial guesses are
taken from the data, so fits are reproducible without hand-tuned starting
points: a damped cosine starts at its interpolated spectral peak, with the
least-squares amplitude and phase there, an exponential from a log-linear
regression and a Lorentzian from its extremum.  A damped cosine and an
exponential are fitted on their grid shifted to start at zero, x - x[0], so
that a trace recorded far from t = 0 has a start and a Jacobian as well
scaled as one from 0; amplitude and phase are then mapped back to t = 0 in
closed form.  One rule, ``_separable``, decides whether an oscillation
resolves an amplitude and phase, at a damped cosine's start and its result.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Decay times are reported within [sample spacing, 100 * span]; results
# clipped to either end carry an "at_bound" flag.
DECAY_BOUND_FACTOR = 100.0
# Levenberg-Marquardt: tolerances of MINPACK lmder's ftol, xtol and gtol
# stopping tests, and the cap on trial steps
LM_FTOL = LM_XTOL = LM_GTOL = 1e-12
LM_MAX_ITER = 500
# A damped-cosine fit takes its starting frequency from a discrete Fourier
# transform, so its x steps may differ by at most this fraction of their mean;
# the rounding of linspace and decimal grids moves them by about 1e-13.
SPACING_RTOL = 1e-6
# A trace whose range is at most this fraction of its largest magnitude is
# flat: no fit can identify a shape in it.  Every default trace spans at
# least 5.7e-2 of its largest value, and the rounding noise of an undriven
# ESR spectrum or of 1/T2' without a bath coupling at most 6.4e-15.
FLAT_RTOL = 1e-9
# The fewest points each model's fit takes, by the names of FIT_MODELS.
MIN_POINTS = {"damped_cosine": 5, "exp_decay": 5, "lorentzian": 7}


@dataclass
class Trace:
    """Sampled signal versus one independent variable."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if np.any(np.diff(self.x) < 0):
            raise ValueError("x must be sorted in increasing order")

    def __len__(self) -> int:
        return len(self.x)


@dataclass
class FitResult:
    """Fitted parameters plus convergence diagnostics."""

    model: str
    params: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    flags: tuple[str, ...] = ()

    def __getitem__(self, name: str) -> float:
        return self.params[name]


class LMResult(NamedTuple):
    params: np.ndarray
    cost_history: list[float]
    residual_norm: float
    converged: bool
    iterations: int
    stop: str


def levenberg_marquardt(fun, p0) -> LMResult:
    """Minimize ||r(p)||^2 by damped least squares.

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
        diag = a.diagonal()
        d = np.sqrt(diag)
        if (np.abs(g) <= LM_GTOL * math.sqrt(cost) * d).all():
            stop = "gtol"
            break
        damping = lam * np.maximum(diag, 1e-14)
        # a is rebuilt every iteration, so it takes the damping in place
        a.flat[::len(p) + 1] += damping
        try:
            step = np.linalg.solve(a, -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        # the scaled norms |d * step| and |d * p|, as np.linalg.norm forms them
        ds, dp = d * step, d * p
        if math.sqrt(ds @ ds) <= LM_XTOL * math.sqrt(dp @ dp):
            stop = "xtol"
            break
        trial = p + step
        r_new, jac_new = fun(trial)
        cost_new = float(r_new @ r_new)
        js = jac @ step
        predicted = float(js @ js + 2.0 * step @ (damping * step))
        # tested on rejected steps too, as lmder does: at the roundoff floor
        # whether a step lowers the cost turns on the last bits of the data
        small = abs(cost - cost_new) <= LM_FTOL * cost and predicted <= LM_FTOL * cost
        if cost_new < cost:
            p, r, jac, cost = trial, r_new, jac_new, cost_new
            history.append(cost)
            lam = max(lam / 3.0, 1e-12)
        else:
            lam *= 4.0
        if small:
            stop = "ftol"
            break
    return LMResult(p, history, math.sqrt(cost), stop != "max_iter", it, stop)


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[i] @ v[i] for each row i, as one dot product per row."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _lm_stack(fun, p0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """:func:`levenberg_marquardt` on a stack of independent problems at once.

    ``fun(p, rows)`` maps parameter rows ``(k, m)`` of the problems numbered
    ``rows`` to their residuals ``(k, n)`` and Jacobians ``(k, n, m)``.  Each
    problem keeps its own lam, acceptance and stop test, and leaves the
    stack when it stops.  Every product is numpy's matmul on a stack, which
    makes the same gemv, syrk or dot call per problem as the scalar loop,
    and the damped steps take one stacked solve; so each problem stops where
    the scalar loop would, with the same parameters to the bit.  Returns the
    parameters, residual norms, iterations and stop names of all problems.
    """
    p = np.array(p0, dtype=float)
    params, norms = p.copy(), np.empty(len(p))
    iterations, stops = np.full(len(p), LM_MAX_ITER), ["max_iter"] * len(p)
    rows = np.arange(len(p))
    r, jac = fun(p, rows)
    cost = _rowdot(r, r)
    lam = np.full(len(p), 1e-3)
    for it in range(1, LM_MAX_ITER + 1):
        jac_t = np.swapaxes(jac, -1, -2)
        g, a = (jac_t @ r[..., None])[..., 0], jac_t @ jac
        diag = a.diagonal(axis1=-2, axis2=-1)
        d = np.sqrt(diag)
        stop = np.where((np.abs(g) <= (LM_GTOL * np.sqrt(cost))[:, None] * d).all(axis=1),
                        "gtol", "")
        damping = lam[:, None] * np.maximum(diag, 1e-14)
        a.reshape(len(a), -1)[:, ::a.shape[-1] + 1] += damping
        try:
            step = np.linalg.solve(a, -g[..., None])[..., 0]
            solved = np.ones(len(a), dtype=bool)
        except np.linalg.LinAlgError:
            step, solved = np.zeros_like(g), np.zeros(len(a), dtype=bool)
            for i in np.flatnonzero(stop == ""):
                try:
                    step[i] = np.linalg.solve(a[i], -g[i])
                    solved[i] = True
                except np.linalg.LinAlgError:
                    pass
        lam[(stop == "") & ~solved] *= 10.0
        ds, dp = d * step, d * p
        xtol = np.sqrt(_rowdot(ds, ds)) <= LM_XTOL * np.sqrt(_rowdot(dp, dp))
        stop[(stop == "") & solved & xtol] = "xtol"
        # every row takes a trial, and only those still stepping use it: the
        # masked updates copy nothing, where taking the rows out would copy
        # the Jacobians twice
        go = (stop == "") & solved
        trial = p + step
        r_new, jac_new = fun(trial, rows)
        cost_new = _rowdot(r_new, r_new)
        js = (jac @ step[..., None])[..., 0]
        predicted = _rowdot(js, js) + _rowdot(2.0 * step, damping * step)
        small = go & (np.abs(cost - cost_new) <= LM_FTOL * cost) & (predicted <= LM_FTOL * cost)
        better = go & (cost_new < cost)
        np.copyto(p, trial, where=better[:, None])
        np.copyto(r, r_new, where=better[:, None])
        np.copyto(jac, jac_new, where=better[:, None, None])
        np.copyto(cost, cost_new, where=better)
        lam = np.where(better, np.maximum(lam / 3.0, 1e-12), np.where(go, lam * 4.0, lam))
        stop[small] = "ftol"
        ended = stop != ""
        if ended.any():
            done = rows[ended]
            params[done], norms[done], iterations[done] = p[ended], np.sqrt(cost[ended]), it
            for i, name in zip(done, stop[ended]):
                stops[i] = str(name)
            keep = ~ended
            p, r, jac, cost = p[keep], r[keep], jac[keep], cost[keep]
            lam, rows = lam[keep], rows[keep]
            if not len(rows):
                break
    params[rows], norms[rows] = p, np.sqrt(cost)
    return params, norms, iterations, stops


def _wrap_phase(phi: float) -> float:
    """Wrap to (-pi, pi]."""
    out = (phi + np.pi) % (2 * np.pi) - np.pi
    if out == -np.pi:
        out = np.pi
    return float(out)


def _check_trace(trace: Trace, model: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, np.diff(x)) of a trace long enough for ``model`` and strictly
    increasing."""
    if len(trace) < MIN_POINTS[model]:
        raise ValueError(f"fit needs at least {MIN_POINTS[model]} points, got {len(trace)}")
    dx = np.diff(trace.x)
    if np.any(dx <= 0):
        raise ValueError("fit needs strictly increasing x values")
    return trace.x, trace.y, dx


def _uniformly_spaced(dx: np.ndarray) -> bool:
    """Whether the steps ``dx`` differ by at most SPACING_RTOL of their mean."""
    return bool(np.ptp(dx) <= SPACING_RTOL * np.mean(dx))


def _is_flat(y: np.ndarray) -> bool:
    """Whether ``y`` ranges over at most FLAT_RTOL of its largest magnitude."""
    return bool(np.ptp(y) <= FLAT_RTOL * np.max(np.abs(y)))


def _flat_result(model: str, trace: Trace, extra: dict[str, float]) -> FitResult:
    offset = float(np.mean(trace.y))
    params = {"amplitude": 0.0, "offset": offset}
    params.update(extra)
    resid = float(np.linalg.norm(trace.y - offset))
    return FitResult(model, params, resid, True, 0, flags=("unidentifiable",))


def _bounded_decay_time(rate: float, x: np.ndarray,
                        dx: np.ndarray) -> tuple[float, tuple[str, ...]]:
    lower = float(np.min(dx))
    upper = DECAY_BOUND_FACTOR * float(x[-1] - x[0])
    t = 1.0 / rate if rate > 0 else np.inf
    if t > upper:
        return float(upper), ("at_bound",)
    if t < lower:
        return lower, ("at_bound",)
    return float(t), ()


def _damped_cosine(p, x, y):
    """Residual and Jacobian of offset + A exp(-|rate| t) cos(2 pi f1 t + phase).

    ``p`` is one parameter vector, with ``y`` one trace, or a stack of them
    ``(k, 5)``, with ``y`` ``(k, n)``: residuals ``(k, n)`` and Jacobians
    ``(k, n, 5)``, each row computed as for one vector.
    """
    p = np.asarray(p)
    # a stack's columns broadcast against x as (k, 1); one vector's entries
    # stay numpy scalars, whose arithmetic is the cheaper
    offset, amp, f1, rate, phase = p.T[(...,) + (None,) * (p.ndim - 1)]
    envelope = np.exp(-abs(rate) * x)
    arg = 2 * np.pi * f1 * x + phase
    c, s = envelope * np.cos(arg), envelope * np.sin(arg)
    jac = np.empty(p.shape[:-1] + (len(x), 5))
    jac[..., 0] = 1.0
    jac[..., 1] = c
    np.multiply(-2 * np.pi * amp * x, s, out=jac[..., 2])
    np.multiply(-np.sign(rate) * amp * x, c, out=jac[..., 3])
    np.multiply(-amp, s, out=jac[..., 4])
    return offset + amp * c - y, jac


def _separable(square, norm):
    """Whether sampled oscillations z with norm = sum |z|^2 and square =
    sum z^2 resolve an amplitude and phase: |square| < (1 - 1e-8) norm.
    Their cosine and sine columns Re z and -Im z are proportional as
    |square| reaches norm, as at the Nyquist frequency 1 / (2 dx), where
    the samples fix only A cos(phase); short of 1e-8 of norm a solve for
    A cos(phase) and A sin(phase) keeps about half its digits."""
    return np.abs(square) < (1.0 - 1e-8) * norm


def _damped_cosine_starts(x: np.ndarray, dx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Start points ``(k, 5)`` of damped-cosine fits to the rows of ``y``
    ``(k, n)``, none of them flat, on the grid ``x``, with the checks of
    :func:`fit_damped_cosine`, which takes its start from a one-row stack.

    The frequency is the peak bin of one discrete Fourier transform over the
    stack, moved by the vertex of a parabola through the log magnitudes of
    that bin and its two neighbours (Gaussian interpolation; Gasior and
    Gonzalez, AIP Conf. Proc. 732, 276 (2004)); the top bin, which has one
    neighbour, keeps its bin frequency.  The decay rate comes from the drop
    in oscillation power between the first and second half of each row.
    With the frequency and rate fixed the model is linear in A cos(phase)
    and -A sin(phase) (the separable part of variable projection; Golub and
    Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), so the amplitude and
    phase are the closed-form solution of each row's 2 x 2 normal equations
    about its mean.  Where their determinant vanishes, as the sine column
    does at a top-bin peak (:func:`_separable`), the peak's spectral
    amplitude and phase stand in.
    """
    if not _uniformly_spaced(dx):
        raise ValueError("a damped-cosine fit needs uniformly spaced x values")
    mean = np.mean(y, axis=1)
    yc = y - mean[:, None]
    spec = np.fft.rfft(yc)
    mag = np.abs(spec)
    rows = np.arange(len(y))
    k = 1 + np.argmax(mag[:, 1:], axis=1)
    peak = spec[rows, k]
    step = np.mean(dx)
    # the peak bin's frequency as np.fft.rfftfreq gives it
    bin_width = 1.0 / (len(x) * step)
    f_bin = k * bin_width
    span = x[-1] - x[0]
    short = np.flatnonzero(f_bin * span < 2.0)
    if len(short):
        # a peak in the lowest bin has no frequency to count periods with
        shows = ("shows no resolved oscillation; need >= 2 oscillation periods"
                 if k[short[0]] == 1
                 else f"spans {f_bin[short[0]] * span:.2f} oscillation periods; need >= 2")
        raise ValueError(f"trace {shows} for a damped-cosine fit")
    # two periods put the peak at bin 3 or above, so its lower neighbour is
    # never the mean's bin 0
    top = mag.shape[1] - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        below, at, above = np.log(mag[rows[:, None], np.minimum(k[:, None] + [-1, 0, 1], top)]).T
        shift = (above - below) / (2.0 * (2.0 * at - below - above))
    # a zero neighbour or a flat top leaves the shift nan or infinite
    f0 = (k + np.where((k < top) & (np.abs(shift) <= 1.0), shift, 0.0)) * bin_width
    half = len(x) // 2
    p1 = np.sqrt(np.mean(yc[:, :half] ** 2, axis=1))
    p2 = np.sqrt(np.mean(yc[:, half:] ** 2, axis=1))
    rate0 = np.full(len(y), 2.0 / span)
    falls = p2 > 0
    decay = 2.0 * np.log(p1[falls] / p2[falls]) / span
    rate0[falls] = np.where(decay > 0.0, decay, 0.0)
    # the model's oscillation at amplitude 1 and phase 0,
    # z = exp((2 pi i f0 - rate0) x), as powers of one step of the grid
    exponent = 2j * np.pi * f0 - rate0
    z = np.empty(y.shape, dtype=complex)
    z[:, 0], z[:, 1:] = np.exp(exponent * x[0]), np.exp(exponent * step)[:, None]
    z = np.cumprod(z, axis=1)
    # the model is offset + Re(g z) with g = A exp(i phase), linear in the
    # real and imaginary parts of g.  About the mean, with proj = sum yc z,
    # their 2 x 2 normal equations give g = 2 (norm conj(proj) -
    # conj(square) proj) / (norm^2 - |square|^2), a denominator 4 times their
    # determinant; where it vanishes g keeps the spectral peak's amplitude
    # and phase
    norm, square, proj = _rowdot(z, z.conj()).real, _rowdot(z, z), _rowdot(yc, z)
    g = peak * (2.0 / len(x))
    np.divide(2 * (norm * proj.conj() - square.conj() * proj), norm * norm - np.abs(square) ** 2,
              out=g, where=_separable(square, norm))
    return np.stack([mean, np.abs(g), f0, rate0, np.angle(g)], axis=1)


def _resolved(f1: float, rate: float, x: np.ndarray) -> bool:
    """The start's test :func:`_separable` at a fitted oscillation
    z = exp((2 pi i f1 - |rate|) t), sampled on the grid the fit ran on,
    t = x - x[0]."""
    z = np.exp((2j * np.pi * f1 - abs(rate)) * (x - x[0]))
    return bool(_separable(z @ z, np.vdot(z, z).real))


def _damped_cosine_result(p: np.ndarray, residual_norm: float, iterations: int, stop: str,
                          x: np.ndarray, dx: np.ndarray) -> FitResult:
    """The result of a fit ``p`` on the shifted grid x - x[0], its
    amplitude and phase mapped back to t = 0: A exp(|rate| x[0]), which is
    inf past the float range, and phase - 2 pi f1 x[0], negated when f1 < 0
    to go with the reported |f1|, as cos(-a) = cos(a)."""
    offset, amp, f1, rate, phase = p
    if amp < 0:
        amp, phase = -amp, phase + np.pi
    with np.errstate(over="ignore"):
        amp = amp * np.exp(abs(rate) * x[0])
    phase = phase - 2 * np.pi * f1 * x[0]
    if f1 < 0:
        phase = -phase
    t2p, bound = _bounded_decay_time(abs(rate), x, dx)
    params = {
        "offset": float(offset),
        "amplitude": float(amp),
        "f1_mhz": float(abs(f1)),
        "t2p_us": t2p,
        "phase_rad": _wrap_phase(phase),
    }
    flags = (stop, *bound)
    if not _resolved(f1, rate, x):
        params.update(amplitude=math.nan, phase_rad=math.nan)
        flags += ("unresolved",)
    return FitResult("damped_cosine", params, float(residual_norm), stop != "max_iter",
                     int(iterations), flags)


def _flat_cosine(trace: Trace) -> FitResult:
    # a flat trace has no oscillation to give a frequency or phase
    return _flat_result("damped_cosine", trace,
                        {"f1_mhz": math.nan, "t2p_us": np.inf, "phase_rad": math.nan})


def fit_damped_cosine(trace: Trace) -> FitResult:
    """Fit y = offset + A exp(-t/T2p) cos(2 pi f1 t + phase).

    The decay is optimized as a rate so that undamped data converges
    cleanly; the reported T2p is clipped to [dt, 100 * span] and flagged
    when it sits at a bound.  Requires the trace to span at least two
    oscillation periods of the spectral-peak frequency, sampled uniformly:
    x steps that differ by more than SPACING_RTOL of their mean are
    rejected, since the starting frequency comes from a discrete Fourier
    transform.  A fitted oscillation whose cosine and sine are
    proportional on the grid (:func:`_resolved`), as at the Nyquist
    frequency, is flagged ``unresolved`` with ``nan`` amplitude and phase.
    """
    x, y, dx = _check_trace(trace, "damped_cosine")
    if _is_flat(y):
        return _flat_cosine(trace)
    t = x - x[0]
    lm = levenberg_marquardt(lambda p: _damped_cosine(p, t, y),
                             _damped_cosine_starts(t, dx, y[None])[0])
    return _damped_cosine_result(lm.params, lm.residual_norm, lm.iterations, lm.stop, x, dx)


def fit_damped_cosines(x, ys) -> list[FitResult]:
    """:func:`fit_damped_cosine` of each row of ``ys`` against the shared
    ``x``, with the same results to the bit.

    Every fitted row goes through one Levenberg-Marquardt pass over the
    stack (:func:`_lm_stack`), a single row too, with start points taken
    together.  Flat rows are flagged and not fitted, as by the scalar fit,
    and a row that :func:`fit_damped_cosine` would reject raises the same
    error.  The single-trace entry point, as for ``nvspin fit``, is
    :func:`fit_damped_cosine`.
    """
    traces = [Trace(x, y) for y in np.asarray(ys, dtype=float)]
    if not traces:
        raise ValueError("a stacked fit needs at least one trace")
    x, _, dx = _check_trace(traces[0], "damped_cosine")
    fitted = [not _is_flat(trace.y) for trace in traces]
    fits = iter(())
    if any(fitted):
        y = np.array([trace.y for trace, fit in zip(traces, fitted) if fit])
        t = x - x[0]
        lm = _lm_stack(lambda p, rows: _damped_cosine(p, t, y[rows]),
                       _damped_cosine_starts(t, dx, y))
        fits = (_damped_cosine_result(*row, x, dx) for row in zip(*lm))
    return [next(fits) if fit else _flat_cosine(trace) for trace, fit in zip(traces, fitted)]


def _exp_decay(p, x, y):
    """Residual and Jacobian of offset + A exp(-|rate| t)."""
    offset, amp, rate = p
    decay = np.exp(-abs(rate) * x)
    jac = np.empty((len(x), 3))
    jac[:, 0] = 1.0
    jac[:, 1] = decay
    np.multiply(-np.sign(rate) * amp * x, decay, out=jac[:, 2])
    return offset + amp * decay - y, jac


def fit_exp_decay(trace: Trace) -> FitResult:
    """Fit y = offset + A exp(-t/T); T is reported within the decay bounds.
    Fitted on x - x[0] like a damped cosine, A is mapped back to t = 0 as
    A exp(x[0] / T), inf past the float range."""
    x, y, dx = _check_trace(trace, "exp_decay")
    if _is_flat(y):
        return _flat_result("exp_decay", trace, {"t_us": np.inf})
    t = x - x[0]
    offset0 = float(y[-1])
    a0 = float(y[0] - offset0)
    # log-linear slope over the early part of the decay
    dev = y - offset0
    mask = np.abs(dev) > 0.05 * abs(a0) if a0 != 0 else np.zeros(len(y), bool)
    if np.count_nonzero(mask) >= 2 and a0 != 0:
        slope = np.polyfit(t[mask], np.log(np.abs(dev[mask])), 1)[0]
        rate0 = max(-slope, 1e-6)
    else:
        rate0 = 1.0 / t[-1]

    lm = levenberg_marquardt(lambda p: _exp_decay(p, t, y), [offset0, a0, rate0])
    offset, amp, rate = lm.params
    with np.errstate(over="ignore"):
        amp = amp * np.exp(abs(rate) * x[0])
    t_us, bound = _bounded_decay_time(abs(rate), x, dx)
    params = {"offset": float(offset), "amplitude": float(amp), "t_us": t_us}
    return FitResult("exp_decay", params, lm.residual_norm, lm.converged,
                     lm.iterations, (lm.stop, *bound))


def _lorentzian(p, x, y):
    """Residual and Jacobian of offset + A h^2 / ((x - c)^2 + h^2), h = w/2."""
    offset, amp, c, w = p
    h, u = w / 2, x - c
    u2, h2 = u ** 2, h ** 2
    q = u2 + h2
    shape = h2 / q
    jac = np.empty((len(x), 4))
    jac[:, 0] = 1.0
    jac[:, 1] = shape
    np.divide(2 * amp * shape * u, q, out=jac[:, 2])
    np.divide(amp * h * u2, q ** 2, out=jac[:, 3])
    return offset + amp * shape - y, jac


def fit_lorentzian(trace: Trace) -> FitResult:
    """Fit y = offset + A (w/2)^2 / ((x - c)^2 + (w/2)^2).

    A is signed, so dips and peaks use the same model.  The extremum must
    be bracketed by the data (not sit at either end of the trace); a fitted
    center outside the data's span is flagged ``outside_span``.  A fwhm
    below the grid step around the center is flagged ``unresolved``, and
    its center and fwhm are ``nan``, as for a flat trace: the samples do
    not determine them.
    """
    x, y, dx = _check_trace(trace, "lorentzian")
    if _is_flat(y):
        # a flat trace has no extremum to locate
        return _flat_result("lorentzian", trace, {"center": math.nan, "fwhm": math.nan})
    edge = 0.5 * (np.mean(y[:2]) + np.mean(y[-2:]))
    k = int(np.argmax(np.abs(y - edge)))
    if k in (0, len(y) - 1):
        raise ValueError("extremum must be bracketed by the trace")
    c0 = float(x[k])
    a0 = float(y[k] - edge)
    above = np.abs(y - edge) > abs(a0) / 2 if a0 != 0 else np.zeros(len(y), bool)
    w0 = float(x[above][-1] - x[above][0]) if np.count_nonzero(above) >= 2 else (x[-1] - x[0]) / 5
    w0 = max(w0, 2 * float(np.min(dx)))

    lm = levenberg_marquardt(lambda p: _lorentzian(p, x, y), [edge, a0, c0, w0])
    offset, amp, c, w = lm.params
    params = {
        "offset": float(offset),
        "amplitude": float(amp),
        "center": float(c),
        "fwhm": float(abs(w)),
    }
    flags = (lm.stop,) if x[0] <= c <= x[-1] else (lm.stop, "outside_span")
    if abs(w) < dx[min(max(int(np.searchsorted(x, c)) - 1, 0), len(dx) - 1)]:
        params.update(center=math.nan, fwhm=math.nan)
        flags += ("unresolved",)
    return FitResult("lorentzian", params, lm.residual_norm, lm.converged, lm.iterations, flags)


FIT_MODELS = {
    "damped_cosine": fit_damped_cosine,
    "exp_decay": fit_exp_decay,
    "lorentzian": fit_lorentzian,
}
