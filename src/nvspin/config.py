"""Flat key-value configuration with dotted section names.

One assignment per line, ``section.key = value``; ``#`` starts a comment.
Grids are either comma-separated numbers or ``start:stop:count`` for a
uniform grid.  Unknown keys are rejected with a spelling suggestion, and
every default that is not traceable to a published value is marked as such
in the schema listing (``nvspin --help``).
"""

from dataclasses import dataclass, fields

import numpy as np


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one simulated run depends on.

    Built only by :func:`build_experiment_config`, which validates every
    field; ``SCHEMA`` holds the defaults.  The record types are named, not
    imported, so that reading the schema loads no simulator module.
    """

    nv: "NvParams"
    bath: "BathParams"
    noise: "NoiseModel"
    readout: "Readout"
    drive: "DriveParams"
    # strictly increasing; empty takes the experiment's default grid
    sweep_grid: tuple
    b_field_gauss: float
    # continuous-wave ESR only: optical pumping rate and laser-induced
    # dephasing, both in 1/us
    pump_rate: float
    laser_dephasing: float
    # dark interval of the init-wait-readout cycle in the field sweep
    t_wait_us: float
    rabi_powers: tuple
    # fixed tau1 of a Hahn-echo tau2 sweep; None sweeps both delays together
    echo_tau1_us: float | None
    trend_couplings: tuple


@dataclass(frozen=True)
class SchemaEntry:
    kind: str  # float | int | bool | floats | grid
    default: object
    help: str
    published: bool = False


# A component's keys are ``section.<field>``, named after its dataclass
# fields.  This table is the one place the default scenario is written: the
# records have no defaults of their own, apart from NoiseModel's noiseless
# zeros and an on-resonance drive.
SCHEMA: dict[str, SchemaEntry] = {
    "seed": SchemaEntry("int", 12345, "seed of the run and of its quasi-static ensemble"),
    "field.b_gauss": SchemaEntry(
        "float", 850.0, "static field along the N-V axis (trend probes T2' here)", True),
    "nv.d_mhz": SchemaEntry("float", 2880.0, "zero-field splitting", True),
    "nv.g": SchemaEntry("float", 2.0, "electron g-factor", True),
    "nv.a_par_mhz": SchemaEntry(
        "float", 2.2, "N-V 14N hyperfine, axial: step of the nuclear-state average"),
    "bath.coupling_mhz": SchemaEntry("float", 0.5, "secular dipolar coupling of the P1 spin"),
    "bath.a_n_par_mhz": SchemaEntry("float", 100.0, "P1 14N hyperfine, axial"),
    "bath.include_n_nucleus": SchemaEntry("bool", False, "hyperfine sidepeaks in the field sweep"),
    "bath.gamma_bath": SchemaEntry("float", 50.0, "P1 dephasing rate, 1/us (resonance width)"),
    # fits T2' = 2.00 us at f1 = 5 MHz, a third of the 6 us echo T2, at seed
    # 12345 only: over seeds 1000-1029 T2' averages 3.08 us (sd 28%) and
    # T2/T2' spans 1.29-3.37; see the quasi-static ensemble item of ROADMAP.md
    "noise.sigma_static_mhz": SchemaEntry(
        "float", 1.1, "std dev of the quasi-static detuning (T2' ~ 2 us at seed 12345 only)"),
    "noise.gamma_phi": SchemaEntry(
        "float", 1.0 / 6.0, "Markovian dephasing rate, 1/us (echo T2 = 6 us)", True),
    "noise.gamma_1": SchemaEntry("float", 0.0, "longitudinal relaxation rate, 1/us"),
    "noise.n_samples": SchemaEntry("int", 24, "quasi-static ensemble size"),
    "noise.nuclear_populations": SchemaEntry(
        "floats", (), "weights of the -A/0/+A nuclear detunings (A = nv.a_par_mhz); "
        "empty disables"),
    "readout.polarization": SchemaEntry("float", 0.9, "initialization fidelity into m_S=0"),
    "readout.contrast": SchemaEntry("float", 0.3, "relative photoluminescence contrast"),
    "readout.photons": SchemaEntry("float", 1000.0, "expected counts at full brightness"),
    "drive.f1_mhz": SchemaEntry("float", 5.0, "Rabi frequency at unit relative power"),
    "drive.f_rf_mhz": SchemaEntry(
        "float", -1.0, "drive frequency for rabi and echo; <= 0 means on resonance"),
    "cw.pump_rate": SchemaEntry("float", 1.0, "optical pumping rate in CW ESR, 1/us"),
    "cw.laser_dephasing": SchemaEntry("float", 0.5, "laser-induced dephasing in CW ESR, 1/us"),
    "sweep.grid": SchemaEntry(
        "grid", (), "sweep grid; empty uses the experiment default"),
    "rabi.powers": SchemaEntry("floats", (1.0, 4.0, 9.0), "relative RF powers"),
    "echo.tau1_us": SchemaEntry("float", -1.0, "fixed tau1 for a tau2 sweep; < 0 sweeps both"),
    "fieldsweep.t_wait_us": SchemaEntry("float", 5.0, "dark interval of the init-wait-readout cycle"),
    "trend.couplings_mhz": SchemaEntry("floats", (0.1, 0.3, 1.0), "bath coupling per synthetic center"),
}

# keys deleted from the schema, with what replaced each, for the unknown-key hint
_REMOVED_KEYS: dict[str, str] = {
    "noise.seed": "seed",
    "drive.b1_gauss": "drive.f1_mhz",
    "fit.model": "nvspin fit <model> <csv>",
    "fit.csv": "nvspin fit <model> <csv>",
    "trend.b_probe_gauss": "field.b_gauss",
}


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _parse_scalar(kind: str, raw: str):
    raw = raw.strip()
    if kind == "float":
        return _finite(raw)
    if kind == "int":
        return int(raw)
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if kind == "floats":
        if not raw:
            return ()
        return tuple(_finite(tok) for tok in raw.split(","))
    if kind == "grid":
        if not raw:
            return ()
        if ":" in raw:
            parts = raw.split(":")
            if len(parts) != 3:
                raise ValueError("grid shorthand is start:stop:count")
            start, stop, count = _finite(parts[0]), _finite(parts[1]), int(parts[2])
            if count < 2:
                raise ValueError("grid count must be >= 2")
            return tuple(np.linspace(start, stop, count))
        return tuple(_finite(tok) for tok in raw.split(","))
    raise AssertionError(f"unknown schema kind {kind}")


def _unknown_key_hint(key: str) -> str:
    """What to use instead of ``key``: its replacement if it was removed,
    else the closest schema key, or nothing."""
    if key in _REMOVED_KEYS:
        return f" (removed; use {_REMOVED_KEYS[key]!r} instead)"
    import difflib  # only for this hint, so a valid config does not load it

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
    return f" (did you mean {close[0]!r}?)" if close else ""


def resolve_values(text: str) -> dict:
    """Parse config text into a fully defaulted {key: value} mapping."""
    values = {key: entry.default for key, entry in SCHEMA.items()}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}, column 1: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}{_unknown_key_hint(key)}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _parse_scalar(SCHEMA[key].kind, raw)
        except ValueError as exc:
            col = line.index("=") + 2
            raise ConfigError(f"line {lineno}, column {col}: {key}: {exc}") from None
    return values


def config_checksum(values: dict) -> str:
    """SHA-256 over the canonical key-sorted value listing."""
    import hashlib  # on first use: parsing and validating a config need no digest

    canonical = "\n".join(f"{key}={values[key]!r}" for key in sorted(values))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_experiment_config(values: dict) -> ExperimentConfig:
    from .dynamics import NoiseModel
    from .hamiltonian import BathParams, DriveParams, NvParams
    from .pulseq import Readout

    def section(name: str, factory, **given):
        """``factory`` built from the ``name.<field>`` key of each field;
        ``given`` holds the fields that have no such key or convert it."""
        kwargs = {f.name: values[f"{name}.{f.name}"] for f in fields(factory)
                  if f.name not in given and f"{name}.{f.name}" in values}
        try:
            return factory(**kwargs, **given)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{name}: {exc}") from None

    if values["seed"] < 0:
        raise ConfigError("seed: must be >= 0")
    nv = section("nv", NvParams)
    bath = section("bath", BathParams)
    pops = values["noise.nuclear_populations"]
    noise = section("noise", NoiseModel, seed=values["seed"], nuclear_splitting_mhz=nv.a_par_mhz,
                    nuclear_populations=tuple(pops) if pops else None)
    readout = section("readout", Readout)
    f_rf, tau1 = values["drive.f_rf_mhz"], values["echo.tau1_us"]
    drive = section("drive", DriveParams, f_rf_mhz=f_rf if f_rf > 0 else None)
    if np.any(np.diff(values["sweep.grid"]) <= 0):
        raise ConfigError("sweep.grid: must be strictly increasing")
    if values["fieldsweep.t_wait_us"] < 0:
        raise ConfigError("fieldsweep.t_wait_us: duration must be >= 0")
    if values["cw.pump_rate"] < 0 or values["cw.laser_dephasing"] < 0:
        raise ConfigError("cw: rates must be >= 0")
    powers, couplings = values["rabi.powers"], values["trend.couplings_mhz"]
    if not powers or min(powers) <= 0:
        raise ConfigError("rabi.powers: need at least one power, each > 0")
    if not couplings or min(couplings) < 0:
        raise ConfigError("trend.couplings_mhz: need at least one coupling, each >= 0")
    return ExperimentConfig(
        nv=nv, bath=bath, noise=noise, readout=readout, drive=drive,
        sweep_grid=tuple(values["sweep.grid"]),
        b_field_gauss=values["field.b_gauss"],
        pump_rate=values["cw.pump_rate"],
        laser_dephasing=values["cw.laser_dephasing"],
        t_wait_us=values["fieldsweep.t_wait_us"],
        rabi_powers=tuple(powers),
        echo_tau1_us=tau1 if tau1 >= 0 else None,
        trend_couplings=tuple(couplings),
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text into an ExperimentConfig."""
    return build_experiment_config(resolve_values(text))


def standard_config(seed: int | None = None) -> ExperimentConfig:
    """The default scenario, the one ``nvspin run`` runs without a config:
    published N-V parameters where available, calibrated noise elsewhere
    (see ``SCHEMA``).  ``seed`` overrides the default ensemble seed."""
    return parse_config("" if seed is None else f"seed = {seed}")


def schema_help() -> str:
    lines = ["configuration keys (key = value, one per line, # comments):", ""]
    for key, entry in SCHEMA.items():
        default = entry.default
        marker = "" if entry.published else "  [no published value]"
        lines.append(f"  {key:32s} default {default!r:18} {entry.help}{marker}")
    return "\n".join(lines)
