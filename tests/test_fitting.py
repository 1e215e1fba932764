import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvspin import experiments, fitting
from nvspin.cli import _default_grid
from nvspin.config import build_experiment_config, resolve_values
from nvspin.fitting import (
    Trace,
    _damped_cosine,
    _exp_decay,
    _lorentzian,
    _wrap_phase,
    fit_damped_cosine,
    fit_damped_cosines,
    fit_exp_decay,
    fit_lorentzian,
    levenberg_marquardt,
)
from oracles import damped_cosine_model, exp_decay_model, lorentzian_model
from oracles import levenberg_marquardt as reference_lm


def damped_cosine(t, offset, amp, f1, t2p, phase):
    return offset + amp * np.exp(-t / t2p) * np.cos(2 * np.pi * f1 * t + phase)


def exp_decay(t, offset, amp, tau):
    return offset + amp * np.exp(-t / tau)


def lorentzian(x, offset, amp, c, w):
    return offset + amp * (w / 2) ** 2 / ((x - c) ** 2 + (w / 2) ** 2)


class TestTrace:
    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            Trace([1.0, 2.0], [1.0])

    def test_rejects_decreasing_x(self):
        with pytest.raises(ValueError):
            Trace([2.0, 1.0], [0.0, 0.0])

    def test_allows_ties(self):
        # duplicated sweep points (e.g. identical centers) are legal in a
        # container; fits reject them separately
        Trace([1.0, 1.0, 2.0], [0.0, 0.0, 0.0])

    def test_fit_rejects_ties(self):
        tr = Trace([0.0, 1.0, 1.0, 2.0, 3.0], np.zeros(5))
        tr.y = np.sin(tr.x)
        with pytest.raises(ValueError, match="strictly increasing"):
            fit_exp_decay(tr)


class TestLevenbergMarquardt:
    def test_monotone_cost_history(self):
        t = np.linspace(0.0, 10.0, 101)
        y = exp_decay(t, 0.2, 1.0, 3.0)

        def residual(p):
            offset, amp, tau = p
            decay = np.exp(-t / tau)
            jac = np.column_stack([np.ones_like(t), decay, amp * t / tau ** 2 * decay])
            return exp_decay(t, *p) - y, jac

        res = levenberg_marquardt(residual, np.array([0.0, 0.5, 1.0]))
        assert res.converged
        diffs = np.diff(res.cost_history)
        assert np.all(diffs <= 0)

    def test_reports_iterations(self):
        def residual(p):
            return np.array([p[0] - 1.0, p[0] ** 2 - 1.0]), np.array([[1.0], [2 * p[0]]])

        res = levenberg_marquardt(residual, np.array([5.0]))
        assert res.iterations >= 1
        assert res.converged

    def test_stop_reason_stable_under_ulp_scaling(self):
        # count-scale Rabi traces: a few ulps of rescaling must not move the
        # iteration count or the test that ended the fit
        t = np.linspace(0.0, 4.0, 161)
        rng = np.random.default_rng(5)
        for t2p, phase in [(1.5, 0.2), (2.0, 0.0), (3.0, -0.4), (5.0, 0.1), (0.8, 0.3)]:
            y = damped_cosine(t, 850.0, 140.0, 5.0, t2p, phase) + rng.normal(0.0, 4.0, len(t))
            base = fit_damped_cosine(Trace(t, y))
            assert base.converged
            for k in (1, 2, 3):
                fit = fit_damped_cosine(Trace(t, y * (1 + k * 2.0 ** -52)))
                assert (fit.iterations, fit.flags) == (base.iterations, base.flags)


def _central_difference(fun, p):
    jac = np.empty((len(fun(p)[0]), len(p)))
    for i in range(len(p)):
        h = 1e-6 * max(abs(p[i]), 1.0)
        step = np.zeros(len(p))
        step[i] = h
        jac[:, i] = (fun(p + step)[0] - fun(p - step)[0]) / (2 * h)
    return jac


@pytest.mark.parametrize("model, x, p", [
    (_damped_cosine, np.linspace(0.0, 4.0, 161), [0.8, 0.3, 1.4, 0.5, 0.3]),
    (_damped_cosine, np.linspace(0.0, 4.0, 161), [0.8, -0.3, 1.4, -0.5, -2.0]),
    (_exp_decay, np.linspace(0.0, 12.0, 24), [0.6, 0.4, 0.17]),
    (_exp_decay, np.linspace(0.0, 12.0, 24), [0.6, -0.4, -0.17]),
    (_lorentzian, np.linspace(-3.0, 3.0, 61), [1.0, -0.3, 0.2, 1.5]),
    (_lorentzian, np.linspace(-3.0, 3.0, 61), [1.0, 0.3, -0.2, -1.5]),
], ids=["damped_cosine", "damped_cosine_negative_rate", "exp_decay",
        "exp_decay_negative_rate", "lorentzian", "lorentzian_negative_width"])
def test_jacobian_matches_central_differences(model, x, p):
    y = np.zeros_like(x)
    fun = lambda q: model(q, x, y)  # noqa: E731
    p = np.array(p)
    jac = fun(p)[1]
    numeric = _central_difference(fun, p)
    assert np.max(np.abs(jac - numeric)) <= 1e-7 * np.max(np.abs(jac))


class TestAgreesWithMinpack:
    """Each fit against scipy's MINPACK LM, started from the same point."""

    @staticmethod
    def _fit_and_oracle(monkeypatch, fit, trace):
        from scipy.optimize import least_squares

        calls = []

        def spy(fun, p0):
            calls.append((fun, np.array(p0, dtype=float)))
            return levenberg_marquardt(fun, p0)

        monkeypatch.setattr(fitting, "levenberg_marquardt", spy)
        result = fit(trace)
        fun, p0 = calls[0]
        oracle = least_squares(lambda p: fun(p)[0], p0, jac=lambda p: fun(p)[1],
                               method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15)
        assert result.converged
        assert abs(result.residual_norm ** 2 - 2 * oracle.cost) <= 1e-9 * 2 * oracle.cost
        return result, oracle.x

    def test_damped_cosine(self, monkeypatch):
        t = np.linspace(0.0, 4.0, 161)
        rng = np.random.default_rng(8)
        for f1, t2p in [(5.0, 2.0), (10.0, 3.7), (15.0, 4.8), (5.0, 0.6)]:
            y = damped_cosine(t, 850.0, 140.0, f1, t2p, 0.2) + rng.normal(0.0, 4.0, len(t))
            fit, p = self._fit_and_oracle(monkeypatch, fit_damped_cosine, Trace(t, y))
            assert fit["f1_mhz"] == pytest.approx(abs(p[2]), rel=1e-7)
            assert fit["t2p_us"] == pytest.approx(1 / abs(p[3]), rel=1e-7)

    def test_exp_decay(self, monkeypatch):
        t = np.linspace(0.25, 12.0, 24)
        rng = np.random.default_rng(9)
        for tau in (3.0, 6.0, 9.0):
            y = exp_decay(t, 850.0, 125.0, tau) + rng.normal(0.0, 1.0, len(t))
            fit, p = self._fit_and_oracle(monkeypatch, fit_exp_decay, Trace(t, y))
            assert fit["t_us"] == pytest.approx(1 / abs(p[2]), rel=1e-7)

    def test_lorentzian(self, monkeypatch):
        x = np.linspace(499.4, 529.4, 60)
        rng = np.random.default_rng(10)
        for amp, w, noise in [(-58.0, 4.5, 1.0), (0.15, 3.2, 0.005), (-20.0, 8.0, 2.0)]:
            y = lorentzian(x, 985.0, amp, 514.4, w) + rng.normal(0.0, noise, len(x))
            fit, p = self._fit_and_oracle(monkeypatch, fit_lorentzian, Trace(x, y))
            assert fit["center"] == pytest.approx(p[2], rel=1e-7)
            assert fit["fwhm"] == pytest.approx(abs(p[3]), rel=1e-7)


def _minpack_traces():
    """The traces of TestAgreesWithMinpack, drawn the same way."""
    t = np.linspace(0.0, 4.0, 161)
    rng = np.random.default_rng(8)
    for f1, t2p in [(5.0, 2.0), (10.0, 3.7), (15.0, 4.8), (5.0, 0.6)]:
        y = damped_cosine(t, 850.0, 140.0, f1, t2p, 0.2) + rng.normal(0.0, 4.0, len(t))
        yield "damped_cosine", Trace(t, y)
    t = np.linspace(0.25, 12.0, 24)
    rng = np.random.default_rng(9)
    for tau in (3.0, 6.0, 9.0):
        y = exp_decay(t, 850.0, 125.0, tau) + rng.normal(0.0, 1.0, len(t))
        yield "exp_decay", Trace(t, y)
    x = np.linspace(499.4, 529.4, 60)
    rng = np.random.default_rng(10)
    for amp, w, noise in [(-58.0, 4.5, 1.0), (0.15, 3.2, 0.005), (-20.0, 8.0, 2.0)]:
        y = lorentzian(x, 985.0, amp, 514.4, w) + rng.normal(0.0, noise, len(x))
        yield "lorentzian", Trace(x, y)


def _ulp_scaled_traces():
    """The traces of test_stop_reason_stable_under_ulp_scaling."""
    t = np.linspace(0.0, 4.0, 161)
    rng = np.random.default_rng(5)
    for t2p, phase in [(1.5, 0.2), (2.0, 0.0), (3.0, -0.4), (5.0, 0.1), (0.8, 0.3)]:
        y = damped_cosine(t, 850.0, 140.0, 5.0, t2p, phase) + rng.normal(0.0, 4.0, len(t))
        for k in (0, 1, 2, 3):
            yield "damped_cosine", Trace(t, y * (1 + k * 2.0 ** -52))


def _noisy_traces(model, count, seed):
    """Seeded draws over several trace sizes, from clean to barely above
    the noise, so that fits stop on ftol and on xtol and a few run to
    max_iter."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        noise = 10.0 ** rng.uniform(-4.0, 0.0)
        if model == "damped_cosine":
            t = np.linspace(0.0, 4.0, rng.choice([41, 161, 401]))
            y = damped_cosine(t, rng.uniform(-1, 1), rng.uniform(0.3, 1.5),
                              rng.uniform(1.0, 8.0), rng.uniform(0.5, 6.0),
                              rng.uniform(-3.0, 3.0))
        elif model == "exp_decay":
            t = np.linspace(0.25, 12.0, rng.choice([12, 24, 200]))
            y = exp_decay(t, rng.uniform(0, 1), rng.uniform(-2.0, 2.0), rng.uniform(0.5, 8.0))
        else:
            t = np.linspace(499.4, 529.4, rng.choice([15, 60, 561]))
            y = lorentzian(t, rng.uniform(5, 10), rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
                           rng.uniform(505, 524), rng.uniform(1.0, 15.0))
        yield model, Trace(t, y + rng.normal(0.0, noise, len(t)))


def _failing_solve(solve, every, raised):
    """``solve``, except that every ``every``-th call reports a singular
    matrix; each failed call is appended to ``raised``."""
    calls = itertools.count(1)

    def flaky(a, b):
        call = next(calls)
        if call % every == 0:
            raised.append(call)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return flaky


class TestMatchesReferenceLoop:
    """The library's loop and models against the plain forms in
    ``oracles``, bit for bit, from the start point each fit chooses."""

    FITS = {"damped_cosine": (fit_damped_cosine, _damped_cosine, damped_cosine_model),
            "exp_decay": (fit_exp_decay, _exp_decay, exp_decay_model),
            "lorentzian": (fit_lorentzian, _lorentzian, lorentzian_model)}

    @staticmethod
    def _bits(res):
        return (res.params.tobytes(), np.array(res.cost_history).tobytes(),
                np.float64(res.residual_norm).tobytes(), res.iterations, res.stop,
                res.converged)

    def _compare(self, monkeypatch, traces, fail_every=0):
        """Stop reasons seen, and the number of solves made to fail."""
        stops, raised = set(), []
        for model, trace in traces:
            fit, library, reference = self.FITS[model]
            starts = []

            def spy(fun, p0):
                starts.append(np.array(p0, dtype=float))
                return levenberg_marquardt(fun, p0)

            with monkeypatch.context() as m:
                m.setattr(fitting, "levenberg_marquardt", spy)
                fit(trace)
            x, y = trace.x, trace.y
            results = []
            for loop, fun in ((levenberg_marquardt, library),
                              (reference_lm, reference)):
                with monkeypatch.context() as m:
                    if fail_every:
                        m.setattr(np.linalg, "solve",
                                  _failing_solve(np.linalg.solve, fail_every, raised))
                    results.append(self._bits(loop(lambda p: fun(p, x, y), starts[0])))
            assert results[0] == results[1], (model, starts[0])
            stops.add(results[0][4])
        return stops, len(raised)

    def test_minpack_cases(self, monkeypatch):
        self._compare(monkeypatch, _minpack_traces())

    def test_ulp_scaled_traces(self, monkeypatch):
        self._compare(monkeypatch, _ulp_scaled_traces())

    @pytest.mark.parametrize("model, seed", [("damped_cosine", 40), ("exp_decay", 41),
                                             ("lorentzian", 42)])
    def test_seeded_noisy_traces(self, monkeypatch, model, seed):
        stops, _ = self._compare(monkeypatch, _noisy_traces(model, 120, seed))
        assert {"ftol", "xtol"} <= stops

    def test_singular_solve_path(self, monkeypatch):
        # J^T J plus its positive damping is not exactly singular in
        # practice, so a solve that fails on every third call stands in for
        # one, in both loops alike
        _, raised = self._compare(monkeypatch, _minpack_traces(), fail_every=3)
        assert raised > 0

    @pytest.mark.parametrize("model, x, p", [
        ("damped_cosine", np.linspace(0.0, 4.0, 161), [0.8, -0.3, 1.4, -0.5, -2.0]),
        ("exp_decay", np.linspace(0.0, 12.0, 24), [0.6, -0.4, -0.17]),
        ("lorentzian", np.linspace(-3.0, 3.0, 61), [1.0, 0.3, -0.2, -1.5]),
    ])
    def test_models_match_reference(self, model, x, p):
        _, library, reference = self.FITS[model]
        y = np.cos(x)
        for got, want in zip(library(np.array(p), x, y), reference(np.array(p), x, y)):
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous == want.flags.c_contiguous


def _fit_bits(fit):
    """Everything a fit reports, floats as bytes."""
    return (fit.model, tuple(fit.params), [np.float64(v).tobytes() for v in fit.params.values()],
            np.float64(fit.residual_norm).tobytes(), fit.iterations, fit.flags, fit.converged)


def _noisy_stack(count, seed):
    """``count`` seeded damped cosines on one 161-point grid, from clean to
    barely above the noise, as in ``_noisy_traces``."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 4.0, 161)
    ys = [damped_cosine(t, rng.uniform(-1, 1), rng.uniform(0.3, 1.5), rng.uniform(1.0, 8.0),
                        rng.uniform(0.5, 6.0), rng.uniform(-3.0, 3.0))
          + rng.normal(0.0, 10.0 ** rng.uniform(-4.0, 0.0), len(t)) for _ in range(count)]
    return t, np.array(ys)


class TestStackedFits:
    """``fit_damped_cosines`` against ``fit_damped_cosine`` on each row: the
    stacked pass reports every trace's parameters, residual, iterations and
    stop exactly as the scalar loop does from the same start point."""

    @staticmethod
    def _matches_scalar(x, ys):
        """The stacked fits, after checking each against its scalar fit."""
        stacked = fit_damped_cosines(x, ys)
        assert len(stacked) == len(ys)
        for i, (fit, y) in enumerate(zip(stacked, ys)):
            assert _fit_bits(fit) == _fit_bits(fit_damped_cosine(Trace(x, y))), i
        return stacked

    @pytest.mark.parametrize("seed", [12345, 1, 2, 3, 4, 5])
    def test_default_field_sweep(self, monkeypatch, seed):
        stacks = []

        def spy(x, ys):
            stacks.append((x, ys))
            return fit_damped_cosines(x, ys)

        monkeypatch.setattr(experiments, "fit_damped_cosines", spy)
        cfg = build_experiment_config(resolve_values(f"seed = {seed}"))
        experiments.exp_field_sweep(cfg, _default_grid("fieldsweep", cfg))
        (x, ys), = stacks
        assert ys.shape == (60, 161)
        self._matches_scalar(x, ys)

    def test_seeded_noisy_stack(self):
        fits = self._matches_scalar(*_noisy_stack(120, 43))
        assert {"ftol", "xtol"} <= {fit.flags[0] for fit in fits}

    def test_max_iter_and_flat_rows(self, monkeypatch):
        # at 6 trial steps some rows stop on ftol or xtol and the rest run out
        monkeypatch.setattr(fitting, "LM_MAX_ITER", 6)
        t, ys = _noisy_stack(40, 44)
        ys[[3, 17]] = [[0.25], [-1.0]]
        fits = self._matches_scalar(t, ys)
        assert {"max_iter", "ftol", "unidentifiable"} <= {fit.flags[0] for fit in fits}
        assert fits[3].flags == fits[17].flags == ("unidentifiable",)

    def test_singular_solve_path(self, monkeypatch):
        # a solve fails for a matrix chosen by its bytes, so a stacked solve
        # and the scalar loop fail on the same trace at the same iteration
        raised = []
        solve = np.linalg.solve

        def flaky(a, b):
            failing = [zlib.crc32(m.tobytes()) % 5 == 0 for m in a.reshape((-1,) + a.shape[-2:])]
            if any(failing):
                raised.append(a.ndim)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky)
        self._matches_scalar(*_noisy_stack(30, 45))
        assert 2 in raised and 3 in raised

    def test_rejects_what_the_scalar_fit_rejects(self):
        t, ys = _noisy_stack(4, 46)
        ys[2] = np.cos(2 * np.pi * 0.3 * t)
        with pytest.raises(ValueError, match="oscillation periods") as stacked:
            fit_damped_cosines(t, ys)
        with pytest.raises(ValueError) as scalar:
            fit_damped_cosine(Trace(t, ys[2]))
        assert str(stacked.value) == str(scalar.value)
        t[80:] += 1e-3
        with pytest.raises(ValueError, match="uniformly spaced"):
            fit_damped_cosines(t, ys)

    def test_single_rows(self):
        # a stack of one takes the same pass, and gives each trace its scalar fit
        t, ys = _noisy_stack(12, 47)
        for y in ys:
            self._matches_scalar(t, y[None])
        with pytest.raises(ValueError, match="at least one trace"):
            fit_damped_cosines(t, ys[:0])


class TestDampedCosineFit:
    def test_noiseless_round_trip(self):
        t = np.linspace(0.0, 10.0, 201)
        truth = dict(offset=0.55, amp=0.5, f1=1.4, t2p=2.0, phase=0.3)
        fit = fit_damped_cosine(Trace(t, damped_cosine(t, *truth.values())))
        assert fit.converged
        assert abs(fit["f1_mhz"] - 1.4) / 1.4 < 1e-3
        assert abs(fit["t2p_us"] - 2.0) / 2.0 < 1e-3
        assert abs(fit["amplitude"] - 0.5) / 0.5 < 1e-3
        assert abs(fit["offset"] - 0.55) < 1e-3
        assert abs(_wrap_phase(fit["phase_rad"] - 0.3)) < 1e-3

    def test_rabi_frequency_from_one_gauss_drive(self):
        # f1 = gamma B1 / 2 with B1 = 1 G and g = 2
        f1 = 1.3996245
        t = np.linspace(0.0, 6.0, 301)
        fit = fit_damped_cosine(Trace(t, damped_cosine(t, 0.8, 0.2, f1, 4.0, 0.0)))
        assert abs(fit["f1_mhz"] - 1.3996245) < 0.01

    def test_round_trip_with_noise(self):
        # window scaled to the decay so every draw carries comparable
        # information about T2'
        rng = np.random.default_rng(20)
        for _ in range(20):
            truth = dict(
                offset=rng.uniform(-1, 1),
                amp=rng.uniform(0.3, 1.5),
                f1=rng.uniform(0.8, 3.0),
                t2p=rng.uniform(1.0, 4.0),
                phase=rng.uniform(-3.0, 3.0),
            )
            t = np.linspace(0.0, 5 * truth["t2p"], 1201)
            y = damped_cosine(t, *truth.values())
            y = y + rng.normal(0.0, 0.01 * truth["amp"], len(t))
            fit = fit_damped_cosine(Trace(t, y))
            assert fit.converged
            assert abs(fit["f1_mhz"] - truth["f1"]) / truth["f1"] < 0.01
            assert abs(fit["t2p_us"] - truth["t2p"]) / truth["t2p"] < 0.01
            assert abs(fit["amplitude"] - truth["amp"]) < 0.01 * truth["amp"] * 3
            assert abs(_wrap_phase(fit["phase_rad"] - truth["phase"])) < 0.05

    def test_flat_trace_flagged(self):
        t = np.linspace(0.0, 5.0, 51)
        fit = fit_damped_cosine(Trace(t, np.full(51, 0.7)))
        assert fit.params["amplitude"] == 0.0
        assert "unidentifiable" in fit.flags

    def test_undamped_trace_hits_upper_bound_with_tiny_residual(self):
        t = np.linspace(0.0, 4.0, 161)
        y = damped_cosine(t, 0.5, 0.4, 5.0, 1e12, 0.0)
        fit = fit_damped_cosine(Trace(t, y))
        assert "at_bound" in fit.flags
        assert fit["t2p_us"] == 100.0 * (t[-1] - t[0])
        assert fit.residual_norm < 1e-6

    def test_too_few_periods_rejected(self):
        t = np.linspace(0.0, 1.0, 51)
        y = damped_cosine(t, 0.0, 1.0, 0.7, 50.0, 0.0)
        with pytest.raises(ValueError, match="period"):
            fit_damped_cosine(Trace(t, y))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            fit_damped_cosine(Trace([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))

    def test_non_uniform_grid_rejected(self):
        # 20 periods of 5 MHz; an FFT on this grid's mean spacing saw 1.82
        t = np.array([0.0, 0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        with pytest.raises(ValueError, match="uniformly spaced"):
            fit_damped_cosine(Trace(t, damped_cosine(t, 0.5, 0.4, 5.0, 2.0, 0.0)))

    @pytest.mark.parametrize("t", [
        np.linspace(0.0, 4.0, 161),
        np.linspace(0.0, 7.3, 1201),
        np.array([float(f"{0.025 * k:.3f}") for k in range(161)]),
    ], ids=["rabi_window", "refit_1201", "decimal"])
    def test_uniform_grids_accepted(self, t):
        fit = fit_damped_cosine(Trace(t, damped_cosine(t, 0.5, 0.4, 5.0, 2.0, 0.0)))
        assert fit.converged
        assert abs(fit["f1_mhz"] - 5.0) < 1e-6

    def test_affine_rescale_invariance(self):
        t = np.linspace(0.0, 10.0, 201)
        y = damped_cosine(t, 0.4, 0.6, 1.7, 3.0, -0.8)
        a = fit_damped_cosine(Trace(t, y))
        b = fit_damped_cosine(Trace(t, 250.0 * y + 40.0))
        assert abs(a["f1_mhz"] - b["f1_mhz"]) < 1e-6
        assert abs(a["t2p_us"] - b["t2p_us"]) / a["t2p_us"] < 1e-6
        assert np.isclose(b["amplitude"], 250.0 * a["amplitude"], rtol=1e-6)
        assert np.isclose(b["offset"], 250.0 * a["offset"] + 40.0, rtol=1e-6)


class TestExpDecayFit:
    def test_noiseless_round_trip(self):
        t = np.linspace(0.0, 20.0, 101)
        fit = fit_exp_decay(Trace(t, exp_decay(t, 0.0, 1.0, 6.0)))
        assert fit.converged
        assert abs(fit["t_us"] - 6.0) / 6.0 < 1e-3
        assert abs(fit["amplitude"] - 1.0) < 1e-3

    def test_round_trip_with_noise(self):
        rng = np.random.default_rng(31)
        t = np.linspace(0.0, 24.0, 2001)
        for _ in range(20):
            truth = dict(offset=rng.uniform(0, 1), amp=rng.uniform(0.5, 2.0),
                         tau=rng.uniform(2.0, 6.0))
            y = exp_decay(t, *truth.values())
            y = y + rng.normal(0.0, 0.01 * truth["amp"], len(t))
            fit = fit_exp_decay(Trace(t, y))
            assert fit.converged
            assert abs(fit["t_us"] - truth["tau"]) / truth["tau"] < 0.01

    def test_constant_trace_flagged(self):
        t = np.linspace(0.0, 5.0, 21)
        fit = fit_exp_decay(Trace(t, np.ones(21)))
        assert fit.params["amplitude"] == 0.0
        assert "unidentifiable" in fit.flags

    def test_negative_amplitude_recovery(self):
        t = np.linspace(0.0, 15.0, 61)
        fit = fit_exp_decay(Trace(t, exp_decay(t, 1.0, -0.5, 4.0)))
        assert fit["amplitude"] < 0
        assert abs(fit["t_us"] - 4.0) / 4.0 < 1e-3


class TestLorentzianFit:
    def test_noiseless_round_trip(self):
        x = np.linspace(480.0, 550.0, 141)
        fit = fit_lorentzian(Trace(x, lorentzian(x, 1.0, -0.4, 514.4, 10.0)))
        assert fit.converged
        assert abs(fit["center"] - 514.4) / 514.4 < 0.005
        assert abs(fit["fwhm"] - 10.0) / 10.0 < 0.005

    def test_round_trip_with_noise(self):
        rng = np.random.default_rng(17)
        x = np.linspace(480.0, 550.0, 561)
        for _ in range(20):
            truth = dict(offset=rng.uniform(5, 10),
                         amp=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
                         c=rng.uniform(500, 530), w=rng.uniform(6, 15))
            y = lorentzian(x, *truth.values())
            y = y + rng.normal(0.0, 0.01 * abs(truth["amp"]), len(x))
            fit = fit_lorentzian(Trace(x, y))
            assert fit.converged
            assert abs(fit["center"] - truth["c"]) / truth["c"] < 0.01
            assert abs(fit["fwhm"] - truth["w"]) / truth["w"] < 0.01

    def test_symmetric_data_center(self):
        x = np.linspace(-10.0, 10.0, 81)
        fit = fit_lorentzian(Trace(x, lorentzian(x, 0.0, 1.0, 0.0, 4.0)))
        assert abs(fit["center"]) < 1e-6

    def test_center_outside_the_data_flagged(self):
        # a low-SNR dip (amplitude 8 against noise sd 4) whose fit wanders
        # off to a center far beyond the 499-529 G sweep
        x = np.linspace(499.0, 529.0, 31)
        noise = np.random.default_rng(4).normal(0.0, 4.0, len(x))
        fit = fit_lorentzian(Trace(x, lorentzian(x, 100.0, -8.0, 514.4, 3.0) + noise))
        assert not x[0] <= fit["center"] <= x[-1]
        assert "outside_span" in fit.flags

    def test_resonance_dip_not_flagged(self):
        # the field sweep's photoluminescence dip: 60 points across 514.4 G
        x = np.linspace(499.4, 529.4, 60)
        noise = np.random.default_rng(9).normal(0.0, 0.5, len(x))
        fit = fit_lorentzian(Trace(x, lorentzian(x, 900.0, -60.0, 514.4, 6.0) + noise))
        assert fit.converged
        assert abs(fit["center"] - 514.4) < 0.2
        assert "outside_span" not in fit.flags

    def test_flat_trace_flagged(self):
        x = np.linspace(0.0, 10.0, 21)
        fit = fit_lorentzian(Trace(x, np.zeros(21)))
        assert "unidentifiable" in fit.flags

    def test_unbracketed_extremum_rejected(self):
        x = np.linspace(0.0, 10.0, 21)
        with pytest.raises(ValueError, match="bracket"):
            fit_lorentzian(Trace(x, lorentzian(x, 0.0, 1.0, -5.0, 4.0)))

    def test_too_few_points_rejected(self):
        x = np.linspace(-3, 3, 6)
        with pytest.raises(ValueError, match="at least"):
            fit_lorentzian(Trace(x, lorentzian(x, 0.0, 1.0, 0.0, 2.0)))


class TestPhaseWrap:
    @settings(max_examples=50, deadline=None)
    @given(phi=st.floats(-50.0, 50.0))
    def test_wrap_range(self, phi):
        out = _wrap_phase(phi)
        assert -np.pi < out <= np.pi
        assert np.isclose(np.cos(out), np.cos(phi), atol=1e-9)
        assert np.isclose(np.sin(out), np.sin(phi), atol=1e-9)
