"""The benchmark's workloads: the inputs each one feeds nvspin, and the
checks its outputs must pass.

Every dataset draws its own seed from the workload seed and its index, so
a workload seed fixes every input.  Simulator workloads pass nvspin only
config text (``seed = ...`` plus per-variant keys); ``refit`` passes CSV
files that this module writes itself, so no simulator code runs there.

Why these four:

* ``cw_esr``: steady-state solves and Liouvillian construction, no fit and
  no pulse sequence.
* ``hahn_echo``: pulse-sequence propagation (``evolve_lindblad``/``expm``),
  fitting close to zero.  Every other dataset fixes tau1 = 3 us and sweeps
  tau2, so a shortcut valid only for tau1 = tau2 cannot pass unnoticed.
* ``field_sweep``: the paper's 514 G cross-relaxation sweep, the only
  workload with heavy dynamics *and* many fits.
* ``refit``: fitting and CSV reading only, so a fitting change shows here
  and a dynamics change must not.
"""

import math
import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# acceptance tolerances (tests/test_acceptance.py)
ESR_GRID_STEPS = 1
ECHO_T2_US = 6.0
FIELD_CENTER_G = 514.4
FIELD_CENTER_TOL_G = 2.0
FIELD_CENTERS_APART_G = 1.0
ROUND_TRIP_TOL = 0.01

# At the default 24 quasi-static samples the fitted echo T2 moves with the
# ensemble seed: over 100 seeds its standard deviation was 2.8% and the worst
# miss 10.5%, and it shrinks as 1/sqrt(samples).  The acceptance suite's 5%
# holds for its one seed, not for every seed, so the check adds four
# standard deviations (rounded up to 3%) of that scatter.
ECHO_T2_TOL = 0.05 + 4 * 0.03


def dataset_seed(workload: str, seed: int, index: int) -> int:
    """Seed of dataset ``index``: a pure function of the workload seed."""
    return random.Random(f"{workload}/{seed}/{index}").randrange(2**31)


@dataclass(frozen=True)
class Dataset:
    index: int
    seed: int
    config_text: str = ""
    # refit only
    model: str = ""
    csv: Path | None = None
    truth: tuple = ()


def _report_value(report: str, key: str) -> float:
    match = re.search(rf"^\s*{re.escape(key)} = (\S+)$", report, re.MULTILINE)
    if match is None:
        raise ValueError(f"fit report has no {key!r} line")
    return float(match.group(1))


@dataclass(frozen=True)
class SimWorkload:
    """``nvspin run <experiment>`` at the defaults, one dataset per call."""

    name: str
    experiment: str
    csv_name: str
    variants: tuple[str, ...]  # extra config lines, cycled by dataset index
    cli_runs: int              # fresh-process datasets per run
    traced_datasets: int       # datasets in a traced run
    check_outputs: Callable[[dict, str, np.ndarray], str | None]

    def dataset(self, seed: int, index: int) -> Dataset:
        ds_seed = dataset_seed(self.name, seed, index)
        text = f"seed = {ds_seed}\n" + self.variants[index % len(self.variants)]
        return Dataset(index, ds_seed, text)

    def check(self, values: dict, out_dir: Path) -> str | None:
        """None when the outputs pass, else what failed."""
        report = (out_dir / "fit_report.txt").read_text()
        data = np.loadtxt(out_dir / self.csv_name, delimiter=",", skiprows=1, ndmin=2)
        return self.check_outputs(values, report, data)


def _check_esr(values, report, data):
    from nvspin.config import build_experiment_config

    x, y = data[:, 0], data[:, 1]
    dip = x[np.argmin(y)]
    transition = float(re.search(r"\(transition (\S+) MHz\)", report).group(1))
    # the line sits at the transition plus the ensemble's mean quasi-static
    # detuning, which for 24 samples is up to ~0.7 MHz (3 sigma) away
    mean_detuning = build_experiment_config(values).noise.static_detunings().mean()
    step = x[1] - x[0]
    if abs(dip - (transition + mean_detuning)) > ESR_GRID_STEPS * step:
        return (f"esr dip {dip} MHz not within {ESR_GRID_STEPS} grid step of "
                f"{transition} + {mean_detuning:.4f} MHz")
    return None


def _check_echo(values, report, data):
    if values["echo.tau1_us"] < 0:
        t2 = _report_value(report, "t2_us")
        if abs(t2 - ECHO_T2_US) > ECHO_T2_TOL * ECHO_T2_US:
            return f"echo T2 {t2} us not within {ECHO_T2_TOL:.0%} of {ECHO_T2_US} us"
        return None
    tau1 = values["echo.tau1_us"]
    at_max = _report_value(report, "tau2_at_max_us")
    step = data[1, 0] - data[0, 0]
    if abs(at_max - tau1) > step:
        return f"echo maximum at tau2 = {at_max} us, tau1 = {tau1} us"
    return None


def _check_field_sweep(values, report, data):
    centers = [float(c) for c in re.findall(r"^\s+center = (\S+)$", report, re.MULTILINE)]
    if len(centers) != 2:
        return f"expected two Lorentzian centres, found {len(centers)}"
    for c in centers:
        if abs(c - FIELD_CENTER_G) > FIELD_CENTER_TOL_G:
            return f"centre {c} G not within {FIELD_CENTER_TOL_G} G of {FIELD_CENTER_G} G"
    if abs(centers[0] - centers[1]) > FIELD_CENTERS_APART_G:
        return f"centres {centers} more than {FIELD_CENTERS_APART_G} G apart"
    return None


# ---------------------------------------------------------------------------
# refit: generated CSVs

@dataclass(frozen=True)
class TraceClass:
    model: str
    x_name: str
    points: int
    acceptance_points: int  # size the 1% round-trip tolerance was set at


# The simulator's output sizes (Rabi trace, echo, field sweep) and the
# acceptance round-trip sizes, cycled so every run fits the same mix.  The
# 161-point damped cosine, the fit a field sweep runs 60 times per dataset,
# takes three slots of eight; that also puts the median fit time inside one
# class instead of on the gap between two.
TRACE_CLASSES = (
    TraceClass("damped_cosine", "t_us", 161, 1201),
    TraceClass("exp_decay", "total_delay_us", 24, 2001),
    TraceClass("damped_cosine", "t_us", 161, 1201),
    TraceClass("lorentzian", "b_gauss", 60, 561),
    TraceClass("damped_cosine", "t_us", 161, 1201),
    TraceClass("damped_cosine", "t_us", 1201, 1201),
    TraceClass("exp_decay", "total_delay_us", 2001, 2001),
    TraceClass("lorentzian", "b_gauss", 561, 561),
)

NOISE_FRAC = 0.01
SIGMAS = 5.0


def _damped_cosine(x, p):
    offset, amp, f1, rate, phase = p
    return offset + amp * np.exp(-rate * x) * np.cos(2 * np.pi * f1 * x + phase)


def _exp_decay(x, p):
    offset, amp, rate = p
    return offset + amp * np.exp(-rate * x)


def _lorentzian(x, p):
    offset, amp, c, w = p
    return offset + amp * (w / 2) ** 2 / ((x - c) ** 2 + (w / 2) ** 2)


def relative_standard_errors(model, x: np.ndarray, p, sigma: float) -> np.ndarray:
    """Least-squares standard error of each parameter over its value, for
    white noise ``sigma``: sqrt(diag(sigma^2 (J^T J)^-1)) / |p|."""
    p = np.asarray(p, dtype=float)
    jac = np.empty((len(x), len(p)))
    for i in range(len(p)):
        dp = np.zeros_like(p)
        dp[i] = 1e-6 * max(abs(p[i]), 1.0)
        jac[:, i] = (model(x, p + dp) - model(x, p - dp)) / (2 * dp[i])
    cov = sigma**2 * np.linalg.inv(jac.T @ jac)
    return np.sqrt(np.diag(cov)) / np.abs(p)


def make_trace(cls: TraceClass, rng: np.random.Generator):
    """(x, y, truth) drawn from the acceptance round trips' ranges.

    ``truth`` holds (parameter, true value, relative tolerance).  The
    tolerance is the acceptance suite's 1% rescaled by sqrt(acceptance
    points / points), or SIGMAS standard errors at this noise level and
    trace, whichever is larger: 1% alone is only about 3 standard errors
    for a Lorentzian width at 561 points.
    """
    n = cls.points
    if cls.model == "damped_cosine":
        amp, f1, t2p = rng.uniform(0.3, 1.5), rng.uniform(0.8, 3.0), rng.uniform(1.0, 4.0)
        x = np.linspace(0.0, 5 * t2p, n)
        model, p = _damped_cosine, (0.5, amp, f1, 1 / t2p, 0.4)
        checked = (("f1_mhz", 2, f1), ("t2p_us", 3, t2p))
    elif cls.model == "exp_decay":
        amp, tau = rng.uniform(0.5, 2.0), rng.uniform(2.0, 6.0)
        x = np.linspace(0.0, 24.0, n)
        model, p = _exp_decay, (0.3, amp, 1 / tau)
        checked = (("t_us", 2, tau),)
    else:
        amp, c, w = rng.uniform(0.5, 2.0), rng.uniform(500, 530), rng.uniform(6, 15)
        x = np.linspace(480.0, 550.0, n)
        model, p = _lorentzian, (1.0, -amp, c, w)
        checked = (("center", 2, c), ("fwhm", 3, w))
    sigma = NOISE_FRAC * amp
    y = model(x, p) + rng.normal(0.0, sigma, n)
    # a decay time's relative error equals its rate's, to first order
    rel_se = relative_standard_errors(model, x, p, sigma)
    floor = ROUND_TRIP_TOL * math.sqrt(cls.acceptance_points / n)
    truth = tuple((key, value, max(floor, SIGMAS * rel_se[i]))
                  for key, i, value in checked)
    return x, y, truth


def write_trace_csv(path: Path, x_name: str, x: np.ndarray, y: np.ndarray) -> None:
    """Same layout as nvspin's CSVs: header line, repr() floats."""
    lines = [f"{x_name},i_pl"]
    lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")


class RefitWorkload:
    """``nvspin fit <model> <csv>`` on a pool of CSVs written up front;
    datasets cycle over the pool, so every run fits the same mix."""

    name = "refit"
    cli_runs = 9
    traced_datasets = 600
    pool_size = 960

    def __init__(self, work_dir: Path, seed: int):
        self.pool = [self._generate(work_dir, seed, k) for k in range(self.pool_size)]

    def dataset(self, seed: int, index: int) -> Dataset:
        return self.pool[index % self.pool_size]

    def _generate(self, work_dir: Path, seed: int, k: int) -> Dataset:
        cls = TRACE_CLASSES[k % len(TRACE_CLASSES)]
        ds_seed = dataset_seed(self.name, seed, k)
        x, y, truth = make_trace(cls, np.random.default_rng(ds_seed))
        path = work_dir / f"refit_{k:04d}_{cls.model}_{cls.points}.csv"
        write_trace_csv(path, cls.x_name, x, y)
        return Dataset(k, ds_seed, model=cls.model, csv=path, truth=truth)

    @staticmethod
    def check(dataset: Dataset, fit) -> str | None:
        if not fit.converged:
            return f"{dataset.csv.name}: {dataset.model} fit did not converge"
        for key, true, tolerance in dataset.truth:
            err = abs(fit.params[key] - true) / abs(true)
            if err > tolerance:
                return (f"{dataset.csv.name}: {key} off by {err:.2%} "
                        f"(tolerance {tolerance:.2%})")
        return None


SIM_WORKLOADS = {
    "cw_esr": SimWorkload("cw_esr", "esr", "esr.csv", variants=("",),
                          cli_runs=4, traced_datasets=2, check_outputs=_check_esr),
    "hahn_echo": SimWorkload("hahn_echo", "echo", "echo.csv",
                             variants=("", "echo.tau1_us = 3\n"),
                             cli_runs=6, traced_datasets=2, check_outputs=_check_echo),
    "field_sweep": SimWorkload("field_sweep", "fieldsweep", "fieldsweep.csv",
                               variants=("",), cli_runs=4, traced_datasets=1,
                               check_outputs=_check_field_sweep),
}
