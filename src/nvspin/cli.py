"""Command-line interface: run a named experiment from a config file and
write CSV data, a fit report and a run manifest.

``nvspin fit`` imports only this module and ``fitting``.  ``config`` and the
simulator are imported where ``run`` and the top-level ``--help`` use them.

Exit codes: 0 success, 1 configuration error, 2 runtime or fit error.
"""

import argparse
import sys
import time
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .fitting import FIT_MODELS, MIN_POINTS, FitResult, Trace, _is_flat, _uniformly_spaced


def format_float(value: float) -> str:
    return repr(float(value))


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Write ``columns`` as CSV; a non-finite value, which :func:`read_csv`
    would reject, raises before the file is opened."""
    for name, values in columns.items():
        bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
        if len(bad):
            raise ValueError(f"{path}: non-finite value {format_float(values[bad[0]])} "
                             f"in column {name!r}, row {bad[0] + 1}")
    names = list(columns)
    rows = len(next(iter(columns.values())))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(",".join(format_float(columns[name][i]) for name in names) + "\n")


def _parse(rows: list[str]) -> np.ndarray:
    """numpy's C parse of comma-separated rows into a (rows, columns)
    float64 table.  It skips an empty row, so a caller compares the row
    count; it raises ValueError on a bad cell or a change of column count."""
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def _numeric(cell: str) -> bool:
    """Whether :func:`_parse` reads ``cell`` as a number."""
    try:
        return cell != "" and _parse([cell]).size == 1
    except ValueError:
        return False


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV in header order, each a C-contiguous float64 array.

    One numpy parse reads every data row.  Only when it fails, or skips a
    line, does a line-by-line scan name the first bad line: a wrong column
    count, then a cell that the same parser rejects.  A non-finite value is
    named once every cell has parsed.  Numbers are ASCII decimal, ``nan``
    or ``inf``; an underscore or a non-ASCII digit is non-numeric.
    """
    text = Path(path).read_text()
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    # messages give line numbers in the file, counting blank lines above the header
    header = text[:len(text) - len(text.lstrip())].count("\n") + 1
    names = lines[0].split(",")
    duplicate = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if duplicate is not None:
        raise ValueError(f"{path}:{header}: duplicate column name {duplicate!r}")
    rows = lines[1:]
    if not rows:  # numpy warns on no data
        return {name: np.empty(0) for name in names}
    try:
        table = _parse(rows)
    except ValueError:
        table = None
    if table is None or table.shape != (len(rows), len(names)):
        for lineno, line in enumerate(rows, start=header + 1):
            parts = line.split(",")
            if len(parts) != len(names):
                raise ValueError(f"{path}:{lineno}: expected {len(names)} columns")
            bad = next((part for part in parts if not _numeric(part)), None)
            if bad is not None:
                raise ValueError(f"{path}:{lineno}: non-numeric value {bad!r}")
        raise AssertionError(f"{path}: the parse failed, yet every line scans clean")
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        part = rows[row].split(",")[col]
        raise ValueError(f"{path}:{header + 1 + row}: non-finite value {part!r}")
    return dict(zip(names, np.ascontiguousarray(table.T)))


def format_fit(fit: FitResult) -> str:
    lines = [
        f"model: {fit.model}",
        f"converged: {fit.converged}",
        f"iterations: {fit.iterations}",
        f"residual_norm: {format_float(fit.residual_norm)}",
    ]
    if fit.flags:
        lines.append("flags: " + ",".join(fit.flags))
    for name, value in fit.params.items():
        lines.append(f"  {name} = {format_float(value)}")
    return "\n".join(lines)


class Experiment(NamedTuple):
    """One experiment as :func:`run` sees it.  ``grid(cfg)`` is its default
    grid, None if it takes no grid; ``outputs(cfg, grid)`` runs its driver
    and returns its CSVs as ``{file name: columns}``, its fits as ``(label
    or None, FitResult)`` pairs and its report notes; ``grid_fit(cfg)``
    names the model of ``FIT_MODELS`` that it fits along its grid, None if
    it fits none; the flags guard the config."""

    grid: Callable | None
    outputs: Callable
    grid_fit: Callable = lambda cfg: None
    sets_drive: bool = False     # sets the drive frequency itself
    needs_drive: bool = False    # nutates the spin and fits it: needs a drive and spin signal
    duration_grid: bool = False  # sweeps a duration, so its grid is >= 0
    rabi_fits: bool = False      # fits Rabi nutations: on its duration grid, else on the window


def _centred(center: float, half_width: float, n: int) -> np.ndarray:
    return np.linspace(center - half_width, center + half_width, n)


# The default grids and the drivers import the simulator when called, so that
# nvspin fit does not load it.

def _esr_grid(cfg):
    from .experiments import nv_transition_mhz

    return _centred(nv_transition_mhz(cfg), 40.0, 161)


def _rabi_grid(cfg):
    from .experiments import RABI_WINDOW_US

    return RABI_WINDOW_US


def _fieldsweep_grid(cfg):
    from .hamiltonian import resonance_field

    return _centred(resonance_field(cfg.nv), 15.0, 60)


def _esr(cfg, grid):
    from .experiments import exp_cw_esr, nv_transition_mhz

    trace = exp_cw_esr(cfg, grid)
    transition = f"(transition {format_float(nv_transition_mhz(cfg))} MHz)"
    if _is_flat(trace.y):
        note = f"esr spectrum flat, no dip {transition}"
    else:
        note = f"esr dip at {format_float(trace.x[np.argmin(trace.y)])} MHz {transition}"
    return {"esr.csv": {"f_mhz": trace.x, "i_pl": trace.y}}, [], [note]


def _rabi(cfg, grid):
    from .experiments import exp_rabi

    result = exp_rabi(cfg, grid)
    csvs = {f"rabi_{i}.csv": {"t_us": trace.x, "i_pl": trace.y}
            for i, trace in enumerate(result.traces)}
    return csvs, [(f"rabi power {p}", fit) for p, fit in zip(cfg.rabi_powers, result.fits)], []


def _echo(cfg, grid):
    from .experiments import exp_hahn

    (trace,), fits = exp_hahn(cfg, grid)
    if cfg.echo_tau1_us is None:
        xname, note = "total_delay_us", "t2_us = " + format_float(fits[0]["t_us"])
    else:
        xname, note = "tau2_us", "tau2_at_max_us = " + format_float(trace.x[np.argmax(trace.y)])
    return {"echo.csv": {xname: trace.x, "i_pl": trace.y}}, [(None, f) for f in fits], [note]


def _fieldsweep(cfg, grid):
    from .experiments import exp_field_sweep
    from .hamiltonian import resonance_field

    (ipl, inv), (dip, peak, *rabi) = exp_field_sweep(cfg, grid)
    # the per-field Rabi fits; their flags are written as 1.0 and 0.0, so
    # every column parses as a number
    columns = {"b_gauss": ipl.x, "i_pl": ipl.y, "inv_t2p_per_us": inv.y,
               "t2p_us": [fit["t2p_us"] for fit in rabi],
               "rabi_converged": [fit.converged for fit in rabi],
               "rabi_at_bound": ["at_bound" in fit.flags for fit in rabi]}
    note = "resonance_field_gauss = " + format_float(resonance_field(cfg.nv))
    return {"fieldsweep.csv": columns}, [("i_pl dip", dip), ("1/t2p peak", peak)], [note]


def _trend(cfg, grid):
    from .experiments import exp_t2p_vs_dip, trend_configs

    result = exp_t2p_vs_dip(trend_configs(cfg))
    (trace,) = result.traces
    fits = [(f"center coupling {j} MHz", fit) for j, fit in zip(cfg.trend_couplings, result.fits)]
    note = (f"trend over {len(cfg.trend_couplings)} centers "
            f"at {format_float(cfg.b_field_gauss)} G")
    return {"trend.csv": {"dip_amplitude": trace.x, "t2p_us": trace.y}}, fits, [note]


def _levels(cfg, grid):
    from .experiments import exp_levels
    from .hamiltonian import resonance_field

    note = "levels: resonance_field_gauss = " + format_float(resonance_field(cfg.nv))
    return {"levels.csv": exp_levels(cfg, grid)}, [], [note]


EXPERIMENTS = {
    "esr": Experiment(_esr_grid, _esr, sets_drive=True),
    "rabi": Experiment(_rabi_grid, _rabi, lambda cfg: "damped_cosine", needs_drive=True,
                       duration_grid=True, rabi_fits=True),
    # with tau1 fixed the echo is not fitted
    "echo": Experiment(lambda cfg: np.linspace(0.25, 6.0, 24), _echo,
                       lambda cfg: "exp_decay" if cfg.echo_tau1_us is None else None,
                       needs_drive=True, duration_grid=True),
    "fieldsweep": Experiment(_fieldsweep_grid, _fieldsweep, lambda cfg: "lorentzian",
                             sets_drive=True, needs_drive=True, rabi_fits=True),
    "trend": Experiment(None, _trend, sets_drive=True, needs_drive=True, rabi_fits=True),
    "levels": Experiment(lambda cfg: np.linspace(0.0, 1100.0, 111), _levels),
}


def _check_rabi_sampling(experiment: str, top: float, keys: list[str],
                         grid: tuple | None) -> None:
    """Raise ConfigError unless the damped-cosine fits resolve the Rabi
    nutations, whose top frequency ``top`` the config ``keys`` set.
    ``grid`` is rabi's duration grid, which must be uniform, or None for the
    fixed window; an empty grid is the window too.  ``top`` must lie below
    the Nyquist frequency 1/(2 dt) of the times fitted."""
    from .config import ConfigError
    from .experiments import RABI_WINDOW_US

    times = RABI_WINDOW_US
    if grid is not None:
        if len(grid) > 2 and not _uniformly_spaced(np.diff(grid)):
            raise ConfigError(f"sweep.grid: {experiment} fits a damped cosine, which needs "
                              "uniformly spaced times")
        if grid:
            times, keys = grid, keys + ["sweep.grid"]
    step = (times[-1] - times[0]) / max(len(times) - 1, 1)
    if step > 0 and top >= 1 / (2 * step):
        raise ConfigError(f"{', '.join(keys)}: {experiment} nutates at up to {top:.6g} MHz, "
                          f"at or above the {1 / (2 * step):.6g} MHz that its {step:.6g} us "
                          "Rabi grid resolves")


def run(experiment: str, values: dict, out_dir: Path) -> None:
    """Run one experiment and write CSVs, fit report and manifest."""
    from .config import ConfigError, build_experiment_config, config_checksum

    record = EXPERIMENTS.get(experiment)
    if record is None:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {', '.join(EXPERIMENTS)}")
    cfg = build_experiment_config(values)
    grid = cfg.sweep_grid
    if record.sets_drive and cfg.drive.f_rf_mhz is not None:
        raise ConfigError(f"drive.f_rf_mhz: {experiment} sets the drive frequency itself")
    if record.needs_drive:
        if cfg.drive.f1_mhz == 0:
            raise ConfigError(f"drive.f1_mhz: {experiment} needs a nonzero drive")
        for key, value in (("readout.contrast", cfg.readout.contrast),
                           ("readout.photons", cfg.readout.photons),
                           ("readout.polarization", cfg.readout.polarization)):
            if value == 0:
                raise ConfigError(f"{key}: {experiment} fits the spin signal, "
                                  f"which {key} = 0 removes")
    # the strongest Rabi frequency the experiment drives, and the keys that set it
    top, keys = cfg.drive.f1_mhz, ["drive.f1_mhz"]
    if experiment == "rabi" and max(cfg.rabi_powers) != 1:
        top, keys = top * np.sqrt(max(cfg.rabi_powers)), keys + ["rabi.powers"]
    # rabi, echo and trend drive the lowest pair at field.b_gauss, which
    # frame_detuning judges at that drive; the field sweep drives it on
    # resonance at each field of its grid
    if record.needs_drive and experiment != "fieldsweep":
        from .hamiltonian import frame_detuning

        try:
            frame_detuning(cfg.b_field_gauss, cfg.nv, replace(cfg.drive, f1_mhz=top))
        except ValueError as exc:
            raise ConfigError(f"{', '.join(['field.b_gauss', *keys])}: {experiment} drives "
                              f"the lowest N-V pair; {exc}") from None
    if record.duration_grid and grid and grid[0] < 0:
        raise ConfigError(f"sweep.grid: {experiment} sweeps a duration, which must be >= 0")
    if record.grid is None and grid:
        raise ConfigError(f"sweep.grid: {experiment} takes no grid")
    model = record.grid_fit(cfg)
    if grid and model and len(grid) < MIN_POINTS[model]:
        raise ConfigError(f"sweep.grid: {experiment} fits {model} along its grid, which "
                          f"needs at least {MIN_POINTS[model]} points, got {len(grid)}")
    if record.rabi_fits:
        _check_rabi_sampling(experiment, top, keys, grid if record.duration_grid else None)
    if grid:
        grid = np.asarray(grid, dtype=float)
    elif record.grid:
        grid = record.grid(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    start = time.monotonic()
    try:
        csvs, fits, notes = record.outputs(cfg, grid)
        for name, columns in csvs.items():
            written.append(out_dir / name)
            write_csv(written[-1], columns)
        reports = [format_fit(fit) if label is None else f"{label}:\n{format_fit(fit)}"
                   for label, fit in fits]
        written.append(out_dir / "fit_report.txt")
        written[-1].write_text("\n\n".join(reports + notes) + "\n")
        manifest = {
            "experiment": experiment,
            "config_sha256": config_checksum(values),
            "seed": values["seed"],
            "tool_version": __version__,
            "duration_s": f"{time.monotonic() - start:.3f}",
            "outputs": ",".join(path.name for path in written),
        }
        written.append(out_dir / "manifest.txt")
        written[-1].write_text("".join(f"{key}={value}\n" for key, value in manifest.items()))
    except BaseException:
        # a failed run leaves no partial outputs behind
        for path in written:
            path.unlink(missing_ok=True)
        raise


def fit_file(csv_path: Path, model: str) -> FitResult:
    """Fit a named model to the first two columns of an emitted CSV."""
    if model not in FIT_MODELS:
        raise ValueError(f"unknown fit model {model!r}; "
                         f"choose from {', '.join(FIT_MODELS)}")
    columns = read_csv(csv_path)
    names = list(columns)
    if len(names) < 2:
        raise ValueError(f"{csv_path}: need at least two columns")
    trace = Trace(columns[names[0]], columns[names[1]])
    return FIT_MODELS[model](trace)


class _Parser(argparse.ArgumentParser):
    """The top-level parser; its ``--help`` ends with the config schema,
    formatted only when help is printed, because the schema lives in
    ``config``."""

    def format_help(self) -> str:
        from .config import schema_help

        self.epilog = schema_help()
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nvspin",
        description="Simulate single N-V center spin experiments and fit the results.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # run --help and fit --help carry no schema
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    runp = sub.add_parser("run", help="run a named experiment")
    runp.add_argument("experiment", choices=EXPERIMENTS)
    runp.add_argument("--config", type=Path, default=None,
                      help="config file; defaults apply when omitted")
    runp.add_argument("--out", type=Path, default=Path("out"),
                      help="output directory (default: ./out)")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    fitp = sub.add_parser("fit", help="fit a model to an emitted CSV")
    fitp.add_argument("model", choices=sorted(FIT_MODELS))
    fitp.add_argument("csv", type=Path)
    return parser


def _run_command(args: argparse.Namespace) -> int:
    """``nvspin run``; a config error exits 1."""
    from .config import ConfigError, resolve_values

    try:
        if args.config:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ConfigError(str(exc)) from None
        else:
            text = ""
        values = resolve_values(text)
        if args.seed is not None:
            values["seed"] = args.seed
        run(args.experiment, values, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}/manifest.txt")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_command(args)
        fit = fit_file(args.csv, args.model)
        print(format_fit(fit))
        if not fit.converged:
            print("fit did not converge", file=sys.stderr)
            return 2
        return 0
    except Exception as exc:  # runtime/fit errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
