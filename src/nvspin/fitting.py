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
derived from the data (spectral peak, log-linear regression, extremum
location) so fits are reproducible without hand-tuned starting points.
"""

import math
from dataclasses import dataclass

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


@dataclass
class LMResult:
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


def _check_trace(trace: Trace, min_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, np.diff(x)) of a trace long enough and strictly increasing."""
    if len(trace) < min_points:
        raise ValueError(f"fit needs at least {min_points} points, got {len(trace)}")
    dx = np.diff(trace.x)
    if np.any(dx <= 0):
        raise ValueError("fit needs strictly increasing x values")
    return trace.x, trace.y, dx


def _uniformly_spaced(dx: np.ndarray) -> bool:
    """Whether the steps ``dx`` differ by at most SPACING_RTOL of their mean."""
    return bool(np.ptp(dx) <= SPACING_RTOL * np.mean(dx))


def _flat_result(model: str, trace: Trace, extra: dict[str, float]) -> FitResult:
    offset = float(np.mean(trace.y))
    params = {"amplitude": 0.0, "offset": offset}
    params.update(extra)
    resid = float(np.linalg.norm(trace.y - offset))
    return FitResult(model, params, resid, True, 0, flags=("unidentifiable",))


def _spectral_peak(step: float, yc: np.ndarray) -> tuple[float, float, float]:
    """Dominant nonzero frequency of a trace sampled every ``step``, with
    its mean already subtracted.

    Returns (frequency, amplitude, phase) from the discrete spectrum.
    """
    spec = np.fft.rfft(yc)
    freqs = np.fft.rfftfreq(len(yc), d=step)
    k = 1 + int(np.argmax(np.abs(spec[1:])))
    amp = 2 * np.abs(spec[k]) / len(yc)
    return float(freqs[k]), float(amp), float(np.angle(spec[k]))


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


def _damped_cosine_starts(x: np.ndarray, dx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Start points ``(k, 5)`` of damped-cosine fits to the rows of ``y``
    ``(k, n)``, none of them flat, on the grid ``x``: the start of
    :func:`fit_damped_cosine` for each row, to the bit, with its checks.

    The frequency, amplitude and phase come from the peak of one discrete
    Fourier transform over the stack.  The scalar fit keeps its own
    one-trace form, which costs it fewer numpy calls.
    """
    if not _uniformly_spaced(dx):
        raise ValueError("a damped-cosine fit needs uniformly spaced x values")
    mean = np.mean(y, axis=1)
    yc = y - mean[:, None]
    spec = np.fft.rfft(yc)
    k = 1 + np.argmax(np.abs(spec[:, 1:]), axis=1)
    peak = spec[np.arange(len(y)), k]
    f0 = np.fft.rfftfreq(len(x), d=np.mean(dx))[k]
    span = x[-1] - x[0]
    short = np.flatnonzero(f0 * span < 2.0)
    if len(short):
        raise ValueError(
            f"trace spans {f0[short[0]] * span:.2f} oscillation periods; need >= 2 for a "
            "damped-cosine fit"
        )
    half = len(x) // 2
    p1 = np.sqrt(np.mean(yc[:, :half] ** 2, axis=1))
    p2 = np.sqrt(np.mean(yc[:, half:] ** 2, axis=1))
    rate0 = np.full(len(y), 2.0 / span)
    falls = p2 > 0
    decay = 2.0 * np.log(p1[falls] / p2[falls]) / span
    rate0[falls] = np.where(decay > 0.0, decay, 0.0)
    return np.stack([mean, 2 * np.abs(peak) / len(x), f0, rate0, np.angle(peak)], axis=1)


def _damped_cosine_result(p: np.ndarray, residual_norm: float, iterations: int, stop: str,
                          x: np.ndarray, dx: np.ndarray) -> FitResult:
    offset, amp, f1, rate, phase = p
    if amp < 0:
        amp, phase = -amp, phase + np.pi
    t2p, bound = _bounded_decay_time(abs(rate), x, dx)
    params = {
        "offset": float(offset),
        "amplitude": float(amp),
        "f1_mhz": float(abs(f1)),
        "t2p_us": t2p,
        "phase_rad": _wrap_phase(phase),
    }
    return FitResult("damped_cosine", params, float(residual_norm), stop != "max_iter",
                     int(iterations), (stop, *bound))


def _flat_cosine(trace: Trace) -> FitResult:
    return _flat_result("damped_cosine", trace,
                        {"f1_mhz": 0.0, "t2p_us": np.inf, "phase_rad": 0.0})


def fit_damped_cosine(trace: Trace) -> FitResult:
    """Fit y = offset + A exp(-t/T2p) cos(2 pi f1 t + phase).

    The decay is optimized as a rate so that undamped data converges
    cleanly; the reported T2p is clipped to [dt, 100 * span] and flagged
    when it sits at a bound.  Requires the trace to span at least two
    oscillation periods of the spectral-peak frequency, sampled uniformly:
    x steps that differ by more than SPACING_RTOL of their mean are
    rejected, since the starting frequency comes from a discrete Fourier
    transform.
    """
    x, y, dx = _check_trace(trace, 5)
    if np.ptp(y) == 0.0:
        return _flat_cosine(trace)
    if not _uniformly_spaced(dx):
        raise ValueError("a damped-cosine fit needs uniformly spaced x values")
    mean = np.mean(y)
    yc = y - mean
    f0, a0, phi0 = _spectral_peak(np.mean(dx), yc)
    span = x[-1] - x[0]
    if f0 * span < 2.0:
        raise ValueError(
            f"trace spans {f0 * span:.2f} oscillation periods; need >= 2 for a "
            "damped-cosine fit"
        )
    # crude decay estimate from the drop in oscillation power between the
    # first and second half of the trace
    half = len(y) // 2
    p1 = np.sqrt(np.mean(yc[:half] ** 2))
    p2 = np.sqrt(np.mean(yc[half:] ** 2))
    rate0 = max(0.0, 2.0 * np.log(p1 / p2) / span) if p2 > 0 else 2.0 / span
    offset0 = float(mean)

    lm = levenberg_marquardt(lambda p: _damped_cosine(p, x, y), [offset0, a0, f0, rate0, phi0])
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
    x, _, dx = _check_trace(traces[0], 5)
    fitted = [np.ptp(trace.y) > 0.0 for trace in traces]
    fits = iter(())
    if any(fitted):
        y = np.array([trace.y for trace, fit in zip(traces, fitted) if fit])
        lm = _lm_stack(lambda p, rows: _damped_cosine(p, x, y[rows]),
                       _damped_cosine_starts(x, dx, y))
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
    """Fit y = offset + A exp(-t/T); T is reported within the decay bounds."""
    x, y, dx = _check_trace(trace, 5)
    if np.ptp(y) == 0.0:
        return _flat_result("exp_decay", trace, {"t_us": np.inf})
    offset0 = float(y[-1])
    a0 = float(y[0] - offset0)
    # log-linear slope over the early part of the decay
    dev = y - offset0
    mask = np.abs(dev) > 0.05 * abs(a0) if a0 != 0 else np.zeros(len(y), bool)
    if np.count_nonzero(mask) >= 2 and a0 != 0:
        slope = np.polyfit(x[mask], np.log(np.abs(dev[mask])), 1)[0]
        rate0 = max(-slope, 1e-6)
    else:
        rate0 = 1.0 / (x[-1] - x[0])

    lm = levenberg_marquardt(lambda p: _exp_decay(p, x, y), [offset0, a0, rate0])
    offset, amp, rate = lm.params
    t, bound = _bounded_decay_time(abs(rate), x, dx)
    params = {"offset": float(offset), "amplitude": float(amp), "t_us": t}
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
    center outside the data's span is flagged ``outside_span``.
    """
    x, y, dx = _check_trace(trace, 7)
    if np.ptp(y) == 0.0:
        return _flat_result("lorentzian", trace,
                            {"center": float(np.mean(x)), "fwhm": 0.0})
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
    outside = () if x[0] <= c <= x[-1] else ("outside_span",)
    return FitResult("lorentzian", params, lm.residual_norm, lm.converged,
                     lm.iterations, (lm.stop, *outside))


FIT_MODELS = {
    "damped_cosine": fit_damped_cosine,
    "exp_decay": fit_exp_decay,
    "lorentzian": fit_lorentzian,
}
