"""Flat key-value configuration with dotted section names.

One assignment per line, ``section.key = value``; ``#`` starts a comment.
Grids are either comma-separated numbers or ``start:stop:count`` for a
uniform grid.  Unknown keys are rejected with a spelling suggestion, and
every default that is not traceable to a published value is marked as such
in the schema listing (``nvspin --help``).
"""

import difflib
import hashlib
from dataclasses import dataclass

import numpy as np

from .dynamics import NoiseModel
from .experiments import (
    STANDARD_GAMMA_PHI,
    STANDARD_SIGMA_STATIC_MHZ,
    ExperimentConfig,
    SweepSpec,
)
from .hamiltonian import BathParams, DriveParams, NvParams
from .pulseq import LaserInit, Readout


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""


@dataclass(frozen=True)
class SchemaEntry:
    kind: str  # float | int | bool | str | floats | grid
    default: object
    help: str
    published: bool = False


SCHEMA: dict[str, SchemaEntry] = {
    "seed": SchemaEntry("int", 12345, "master RNG seed for the run"),
    "field.b_gauss": SchemaEntry("float", 850.0, "static field along the N-V axis", True),
    "nv.d_mhz": SchemaEntry("float", 2880.0, "zero-field splitting", True),
    "nv.g": SchemaEntry("float", 2.00, "electron g-factor", True),
    "nv.a_par_mhz": SchemaEntry(
        "float", 2.2, "N-V 14N hyperfine, axial: step of the nuclear-state average"),
    "bath.coupling_mhz": SchemaEntry("float", 0.5, "secular dipolar coupling of the P1 spin"),
    "bath.a_n_par_mhz": SchemaEntry("float", 100.0, "P1 14N hyperfine, axial"),
    "bath.include_n_nucleus": SchemaEntry("bool", False, "hyperfine sidepeaks in the field sweep"),
    "bath.gamma_bath": SchemaEntry("float", 50.0, "P1 dephasing rate, 1/us (resonance width)"),
    "noise.sigma_static_mhz": SchemaEntry(
        "float", STANDARD_SIGMA_STATIC_MHZ,
        "std dev of the quasi-static detuning (T2' ~ 2 us at seed 12345 only)"),
    "noise.gamma_phi": SchemaEntry(
        "float", STANDARD_GAMMA_PHI, "Markovian dephasing rate, 1/us (echo T2 = 6 us)", True),
    "noise.gamma_1": SchemaEntry("float", 0.0, "longitudinal relaxation rate, 1/us"),
    "noise.n_samples": SchemaEntry("int", 24, "quasi-static ensemble size"),
    "noise.seed": SchemaEntry("int", -1, "ensemble seed; -1 follows the master seed"),
    "noise.nuclear_populations": SchemaEntry(
        "floats", (), "weights of the -A/0/+A nuclear detunings (A = nv.a_par_mhz); "
        "empty disables"),
    "readout.polarization": SchemaEntry("float", 0.9, "initialization fidelity into m_S=0"),
    "readout.contrast": SchemaEntry("float", 0.3, "relative photoluminescence contrast"),
    "readout.photons": SchemaEntry("float", 1000.0, "expected counts at full brightness"),
    "drive.f1_mhz": SchemaEntry("float", 5.0, "Rabi frequency at unit relative power"),
    "drive.b1_gauss": SchemaEntry("float", -1.0, "AC field amplitude; overrides f1 if > 0"),
    "drive.f_rf_mhz": SchemaEntry(
        "float", -1.0, "drive frequency for rabi and echo; <= 0 means on resonance"),
    "cw.pump_rate": SchemaEntry("float", 1.0, "optical pumping rate in CW ESR, 1/us"),
    "cw.laser_dephasing": SchemaEntry("float", 0.5, "laser-induced dephasing in CW ESR, 1/us"),
    "sweep.grid": SchemaEntry("grid", (), "sweep grid; empty uses the experiment default"),
    "rabi.powers": SchemaEntry("floats", (1.0, 4.0, 9.0), "relative RF powers"),
    "echo.tau1_us": SchemaEntry("float", -1.0, "fixed tau1 for a tau2 sweep; < 0 sweeps both"),
    "fieldsweep.t_wait_us": SchemaEntry("float", 5.0, "dark interval of the init-wait-readout cycle"),
    "trend.couplings_mhz": SchemaEntry("floats", (0.1, 0.3, 1.0), "bath coupling per synthetic center"),
    "trend.b_probe_gauss": SchemaEntry("float", 850.0, "field where T2' is probed", True),
    "fit.model": SchemaEntry("str", "", "fit model for `run fit`"),
    "fit.csv": SchemaEntry("str", "", "input CSV for `run fit`"),
}


def _parse_scalar(kind: str, raw: str):
    raw = raw.strip()
    if kind == "float":
        return float(raw)
    if kind == "int":
        return int(raw)
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind == "str":
        return raw
    if kind == "floats":
        if not raw:
            return ()
        return tuple(float(tok) for tok in raw.split(","))
    if kind == "grid":
        if not raw:
            return ()
        if ":" in raw:
            parts = raw.split(":")
            if len(parts) != 3:
                raise ValueError("grid shorthand is start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 2:
                raise ValueError("grid count must be >= 2")
            return tuple(np.linspace(start, stop, count))
        return tuple(float(tok) for tok in raw.split(","))
    raise AssertionError(f"unknown schema kind {kind}")


def resolve_values(text: str) -> dict:
    """Parse config text into a fully defaulted {key: value} mapping."""
    values = {key: entry.default for key, entry in SCHEMA.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}, column 1: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            hint = ""
            close = difflib.get_close_matches(key, SCHEMA.keys(), n=1, cutoff=0.5)
            if not close and "." in key:
                section = key.split(".", 1)[0] + "."
                section_keys = [k for k in SCHEMA if k.startswith(section)]
                tail = difflib.get_close_matches(
                    key.split(".", 1)[1],
                    [k.split(".", 1)[1] for k in section_keys],
                    n=1, cutoff=0.3,
                )
                if tail:
                    close = [section + tail[0]]
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            raise ConfigError(f"line {lineno}: unknown key {key!r}{hint}")
        try:
            values[key] = _parse_scalar(SCHEMA[key].kind, raw)
        except ValueError as exc:
            col = line.index("=") + 2
            raise ConfigError(f"line {lineno}, column {col}: {key}: {exc}") from None
    return values


def config_checksum(values: dict) -> str:
    """SHA-256 over the canonical key-sorted value listing."""
    canonical = "\n".join(f"{key}={values[key]!r}" for key in sorted(values))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_experiment_config(values: dict) -> ExperimentConfig:
    def section(name: str, factory, kwargs: dict):
        try:
            return factory(**kwargs)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{name}: {exc}") from None

    nv = section("nv", NvParams, dict(
        d_mhz=values["nv.d_mhz"],
        g=values["nv.g"],
        a_par_mhz=values["nv.a_par_mhz"],
    ))
    bath = section("bath", BathParams, dict(
        coupling_mhz=values["bath.coupling_mhz"],
        a_n_par_mhz=values["bath.a_n_par_mhz"],
        include_n_nucleus=values["bath.include_n_nucleus"],
        gamma_bath=values["bath.gamma_bath"],
    ))
    noise_seed = values["noise.seed"]
    pops = values["noise.nuclear_populations"]
    noise = section("noise", NoiseModel, dict(
        sigma_static_mhz=values["noise.sigma_static_mhz"],
        gamma_phi=values["noise.gamma_phi"],
        gamma_1=values["noise.gamma_1"],
        n_samples=values["noise.n_samples"],
        seed=values["seed"] if noise_seed < 0 else noise_seed,
        nuclear_splitting_mhz=nv.a_par_mhz,
        nuclear_populations=tuple(pops) if pops else None,
    ))
    init = section("readout", LaserInit, dict(polarization=values["readout.polarization"]))
    readout = section("readout", Readout, dict(
        contrast=values["readout.contrast"],
        photons=values["readout.photons"],
    ))
    f_rf = values["drive.f_rf_mhz"]
    f_rf = f_rf if f_rf > 0 else None
    if values["drive.b1_gauss"] > 0:
        drive = section("drive", DriveParams.from_b1, dict(
            b1_gauss=values["drive.b1_gauss"], g=nv.g, f_rf_mhz=f_rf))
    else:
        drive = section("drive", DriveParams, dict(
            f1_mhz=values["drive.f1_mhz"], f_rf_mhz=f_rf))
    sweep = section("sweep", SweepSpec, dict(grid=values["sweep.grid"]))
    if values["fieldsweep.t_wait_us"] < 0:
        raise ConfigError("fieldsweep.t_wait_us: duration must be >= 0")
    if values["cw.pump_rate"] < 0 or values["cw.laser_dephasing"] < 0:
        raise ConfigError("cw: rates must be >= 0")
    return ExperimentConfig(
        nv=nv, bath=bath, noise=noise, init=init, readout=readout, drive=drive,
        sweep=sweep,
        b_field_gauss=values["field.b_gauss"],
        pump_rate=values["cw.pump_rate"],
        laser_dephasing=values["cw.laser_dephasing"],
        t_wait_us=values["fieldsweep.t_wait_us"],
        rabi_powers=tuple(values["rabi.powers"]),
        trend_couplings=tuple(values["trend.couplings_mhz"]),
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text into an ExperimentConfig."""
    return build_experiment_config(resolve_values(text))


def with_seed(values: dict, seed: int) -> dict:
    out = dict(values)
    out["seed"] = seed
    return out


def schema_help() -> str:
    lines = ["configuration keys (key = value, one per line, # comments):", ""]
    for key, entry in SCHEMA.items():
        default = entry.default
        marker = "" if entry.published else "  [no published value]"
        lines.append(f"  {key:32s} default {default!r:18} {entry.help}{marker}")
    return "\n".join(lines)
