"""Command-line interface: run a named experiment from a config file and
write CSV data, a fit report and a run manifest.

Exit codes: 0 success, 1 configuration error, 2 runtime or fit error.
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    build_experiment_config,
    config_checksum,
    resolve_values,
    schema_help,
)
from .experiments import (
    RABI_WINDOW_US,
    exp_cw_esr,
    exp_field_sweep,
    exp_hahn,
    exp_levels,
    exp_rabi,
    exp_t2p_vs_dip,
    nv_transition_mhz,
    trend_configs,
)
from .fitting import FIT_MODELS, FitResult, Trace, _uniformly_spaced
from .hamiltonian import resonance_field

EXPERIMENTS = ("esr", "rabi", "echo", "fieldsweep", "trend", "levels")
# these drive on resonance (fieldsweep, trend) or sweep the drive frequency
# (esr), so a fixed drive.f_rf_mhz would be ignored
RESONANT_DRIVE = ("esr", "fieldsweep", "trend")
# these pulse or nutate the spin, so they need a nonzero drive; esr and
# levels still run without one
DRIVEN = ("rabi", "echo", "fieldsweep", "trend")
# these sweep a duration, so their grid must be >= 0
DURATION_GRID = ("rabi", "echo")


@dataclass(frozen=True)
class RunManifest:
    """What one completed run produced, as written to manifest.txt."""

    experiment: str
    config_sha256: str
    seed: int
    tool_version: str
    duration_s: float
    outputs: tuple[str, ...]

    def render(self) -> str:
        return "\n".join([
            f"experiment={self.experiment}",
            f"config_sha256={self.config_sha256}",
            f"seed={self.seed}",
            f"tool_version={self.tool_version}",
            f"duration_s={self.duration_s:.3f}",
            f"outputs={','.join(self.outputs)}",
        ]) + "\n"


def format_float(value: float) -> str:
    return repr(float(value))


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    rows = len(next(iter(columns.values())))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(",".join(format_float(columns[name][i]) for name in names) + "\n")


def read_csv(path: Path) -> dict[str, np.ndarray]:
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
    data = [[] for _ in names]
    for lineno, line in enumerate(lines[1:], start=header + 1):
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{path}:{lineno}: expected {len(names)} columns")
        for store, part in zip(data, parts):
            try:
                store.append(float(part))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value {part!r}") from None
    table = np.array(data)
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite.T)[0]
        part = lines[row + 1].split(",")[col]
        raise ValueError(f"{path}:{header + 1 + row}: non-finite value {part!r}")
    return dict(zip(names, table))


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


class OutputTracker:
    """Collects written files so failures leave no partial results behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.paths.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.paths:
            p.unlink(missing_ok=True)


def _default_grid(experiment: str, cfg) -> np.ndarray:
    if experiment == "esr":
        center = nv_transition_mhz(cfg)
        return np.linspace(center - 40.0, center + 40.0, 161)
    if experiment == "rabi":
        return RABI_WINDOW_US
    if experiment == "echo":
        return np.linspace(0.25, 6.0, 24)
    if experiment == "fieldsweep":
        center = resonance_field(cfg.nv)
        return np.linspace(center - 15.0, center + 15.0, 60)
    if experiment == "levels":
        return np.linspace(0.0, 1100.0, 111)
    raise ValueError(f"experiment {experiment!r} takes no grid")


def _grid(experiment: str, cfg) -> np.ndarray:
    if cfg.sweep.grid:
        return np.asarray(cfg.sweep.grid, dtype=float)
    return _default_grid(experiment, cfg)


def _run_experiment(experiment: str, cfg, out: OutputTracker) -> list[str]:
    reports: list[str] = []
    if experiment == "esr":
        trace = exp_cw_esr(cfg, _grid("esr", cfg))
        write_csv(out.path("esr.csv"), {"f_mhz": trace.x, "i_pl": trace.y})
        k = int(np.argmin(trace.y))
        reports.append(f"esr dip at {format_float(trace.x[k])} MHz "
                       f"(transition {format_float(nv_transition_mhz(cfg))} MHz)")
    elif experiment == "rabi":
        result = exp_rabi(cfg, _grid("rabi", cfg))
        for i, (trace, fit) in enumerate(zip(result.traces, result.fits)):
            write_csv(out.path(f"rabi_{i}.csv"), {"t_us": trace.x, "i_pl": trace.y})
            reports.append(f"rabi power {cfg.rabi_powers[i]}:\n{format_fit(fit)}")
    elif experiment == "echo":
        result = exp_hahn(cfg, _grid("echo", cfg))
        trace = result.traces[0]
        xname = "total_delay_us" if cfg.echo_tau1_us is None else "tau2_us"
        write_csv(out.path("echo.csv"), {xname: trace.x, "i_pl": trace.y})
        for fit in result.fits:
            reports.append(format_fit(fit))
        for key, value in result.derived.items():
            reports.append(f"{key} = {format_float(value)}")
    elif experiment == "fieldsweep":
        result = exp_field_sweep(cfg, _grid("fieldsweep", cfg))
        ipl, inv = result.traces
        write_csv(out.path("fieldsweep.csv"), {
            "b_gauss": ipl.x,
            "i_pl": ipl.y,
            "inv_t2p_per_us": inv.y,
            "t2p_us": result.derived["t2p_us"],
            # written as 1.0 and 0.0, so every column parses as a number
            "rabi_converged": result.derived["rabi_converged"],
            "rabi_at_bound": result.derived["rabi_at_bound"],
        })
        for fit, label in zip(result.fits, ("i_pl dip", "1/t2p peak")):
            reports.append(f"{label}:\n{format_fit(fit)}")
        reports.append("resonance_field_gauss = "
                       + format_float(result.derived["resonance_field_gauss"]))
    elif experiment == "trend":
        trace = exp_t2p_vs_dip(trend_configs(cfg))
        write_csv(out.path("trend.csv"),
                  {"dip_amplitude": trace.x, "t2p_us": trace.y})
        reports.append(f"trend over {len(cfg.trend_couplings)} centers "
                       f"at {format_float(cfg.b_field_gauss)} G")
    elif experiment == "levels":
        cols = exp_levels(cfg, _grid("levels", cfg))
        write_csv(out.path("levels.csv"), cols)
        reports.append("levels: resonance_field_gauss = "
                       + format_float(resonance_field(cfg.nv)))
    else:
        raise ConfigError(f"unknown experiment {experiment!r}; "
                          f"choose from {', '.join(EXPERIMENTS)}")
    return reports


def run(experiment: str, values: dict, out_dir: Path) -> RunManifest:
    """Run one experiment and write CSVs, fit report and manifest."""
    cfg = build_experiment_config(values)
    if experiment in RESONANT_DRIVE and cfg.drive.f_rf_mhz is not None:
        raise ConfigError(f"drive.f_rf_mhz: {experiment} sets the drive frequency itself")
    if experiment in DRIVEN and cfg.drive.f1_mhz == 0:
        raise ConfigError(f"drive.f1_mhz: {experiment} needs a nonzero drive")
    if experiment in DURATION_GRID and cfg.sweep.grid and cfg.sweep.grid[0] < 0:
        raise ConfigError(f"sweep.grid: {experiment} sweeps a duration, which must be >= 0")
    if experiment == "trend" and cfg.sweep.grid:
        # it fits each center on the fixed Rabi window
        raise ConfigError("sweep.grid: trend takes no grid")
    if (experiment == "rabi" and len(cfg.sweep.grid) > 2
            and not _uniformly_spaced(np.diff(cfg.sweep.grid))):
        raise ConfigError("sweep.grid: rabi fits a damped cosine, which needs "
                          "uniformly spaced times")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracker = OutputTracker(out_dir)
    start = time.monotonic()
    try:
        reports = _run_experiment(experiment, cfg, tracker)
        report_path = tracker.path("fit_report.txt")
        report_path.write_text("\n\n".join(reports) + "\n")
        manifest_path = tracker.path("manifest.txt")
        manifest = RunManifest(
            experiment=experiment,
            config_sha256=config_checksum(values),
            seed=values["seed"],
            tool_version=__version__,
            duration_s=time.monotonic() - start,
            outputs=tuple(p.name for p in tracker.paths if p != manifest_path),
        )
        manifest_path.write_text(manifest.render())
    except BaseException:
        tracker.cleanup()
        raise
    return manifest


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvspin",
        description="Simulate single N-V center spin experiments and fit the results.",
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
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
            print(f"wrote {args.out}/manifest.txt")
            return 0
        fit = fit_file(args.csv, args.model)
        print(format_fit(fit))
        if not fit.converged:
            print("fit did not converge", file=sys.stderr)
            return 2
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime/fit errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
