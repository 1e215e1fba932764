"""Every configuration key reaches an output.

A key that changes no CSV and no fit report still changes the config
checksum, so the manifest would claim a different run when there was none.
Each key below is set to a non-default value on a small run of one
experiment, and the run's CSVs or fit report must differ from the same run
without it.
"""

from dataclasses import replace

import pytest

from nvspin import standard_config
from nvspin.cli import run
from nvspin.config import SCHEMA, ConfigError, parse_config, resolve_values

# small grids and a two-member ensemble keep each run well under a second
COMMON = {"noise.n_samples": "2"}
BASE = {
    "esr": {"sweep.grid": "480:520:21"},
    "rabi": {"sweep.grid": "0:2:81", "rabi.powers": "1"},
    "echo": {"sweep.grid": "0.5:3:6"},
    "fieldsweep": {"sweep.grid": "500:530:11"},
    "trend": {},
}

# key -> (experiment, non-default value[, settings the key acts through])
REACH = {
    "seed": ("rabi", "7"),
    "field.b_gauss": ("esr", "851"),
    "nv.d_mhz": ("esr", "2881"),
    "nv.g": ("esr", "2.001"),
    "nv.a_par_mhz": ("rabi", "3", {"noise.nuclear_populations": "1,1,1"}),
    "bath.coupling_mhz": ("fieldsweep", "1"),
    "bath.a_n_par_mhz": ("fieldsweep", "20", {"bath.include_n_nucleus": "true"}),
    "bath.include_n_nucleus": ("fieldsweep", "true"),
    "bath.gamma_bath": ("fieldsweep", "20"),
    "noise.sigma_static_mhz": ("rabi", "2"),
    "noise.gamma_phi": ("rabi", "0.5"),
    "noise.gamma_1": ("rabi", "0.1"),
    "noise.n_samples": ("rabi", "3"),
    "noise.nuclear_populations": ("rabi", "1,1,1"),
    "readout.polarization": ("rabi", "0.8"),
    "readout.contrast": ("rabi", "0.2"),
    "readout.photons": ("rabi", "900"),
    "drive.f1_mhz": ("rabi", "4"),
    "drive.f_rf_mhz": ("rabi", "500"),
    "cw.pump_rate": ("esr", "2"),
    "cw.laser_dephasing": ("esr", "1"),
    "sweep.grid": ("rabi", "0:2:41"),
    "rabi.powers": ("rabi", "2"),
    "echo.tau1_us": ("echo", "1.5"),
    "fieldsweep.t_wait_us": ("fieldsweep", "2"),
    "trend.couplings_mhz": ("trend", "0.2,0.5,1"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Maps (experiment, settings) to the run's {file name: bytes}, without
    the manifest; runs are cached across keys."""
    cache = {}

    def produce(experiment: str, settings: dict) -> dict[str, bytes]:
        text = "".join(f"{key} = {value}\n" for key, value in settings.items())
        if (experiment, text) not in cache:
            out = tmp_path_factory.mktemp(experiment)
            run(experiment, resolve_values(text), out)
            cache[experiment, text] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                                       if p.name != "manifest.txt"}
        return cache[experiment, text]

    return produce


def test_table_covers_schema():
    assert set(REACH) == set(SCHEMA)


@pytest.mark.parametrize("key", sorted(REACH))
def test_key_reaches_an_output(key, outputs):
    experiment, value, *through = REACH[key]
    base = {**COMMON, **BASE[experiment], **(through[0] if through else {})}
    assert outputs(experiment, {**base, key: value}) != outputs(experiment, base)


# keys that more experiments read than the one REACH names
ALSO_REACH = [
    ("field.b_gauss", "trend", "800"),
    ("noise.nuclear_populations", "fieldsweep", "1,0,0"),
    ("noise.nuclear_populations", "trend", "1,0,0"),
    ("noise.gamma_1", "esr", "0.5"),
]


@pytest.mark.parametrize("key, experiment, value", ALSO_REACH)
def test_key_reaches_every_experiment_reading_it(key, experiment, value, outputs):
    base = {**COMMON, **BASE[experiment]}
    assert outputs(experiment, {**base, key: value}) != outputs(experiment, base)


@pytest.mark.parametrize("key", [
    "nv.include_nucleus", "nv.a_perp_mhz", "bath.n_spins", "bath.couplings_mhz",
    "bath.a_n_perp_mhz", "readout.repetitions", "sweep.variable", "drive.phase_rad",
    "noise.nuclear_splitting_mhz", "noise.seed", "drive.b1_gauss", "fit.model", "fit.csv",
    "trend.b_probe_gauss",
])
def test_removed_key_is_unknown(key):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(f"{key} = 1")


@pytest.mark.parametrize("key, replacement", [
    ("noise.seed", "seed"),
    ("drive.b1_gauss", "drive.f1_mhz"),
    ("fit.model", "nvspin fit <model> <csv>"),
    ("fit.csv", "nvspin fit <model> <csv>"),
    ("trend.b_probe_gauss", "field.b_gauss"),
])
def test_removed_key_hint_names_its_replacement(key, replacement):
    with pytest.raises(ConfigError, match="unknown key") as err:
        parse_config(f"{key} = 1")
    assert f"use {replacement!r} instead" in str(err.value)


def test_nuclear_populations_need_the_hyperfine_splitting():
    with pytest.raises(ConfigError, match="noise"):
        parse_config("nv.a_par_mhz = 0\nnoise.nuclear_populations = 1,1,1")


@pytest.mark.parametrize("seed", [0, 7, 12345, 2**31])
def test_standard_config_is_the_cli_default(seed):
    assert standard_config(seed) == parse_config(f"seed = {seed}")
    assert standard_config() == parse_config("")


def test_nuclear_populations_set_on_standard_config():
    noise = replace(standard_config().noise, nuclear_populations=(1, 1, 1))
    assert len(noise.ensemble()[0]) == 3 * noise.n_samples


def test_key_set_twice_is_rejected():
    with pytest.raises(ConfigError) as err:
        resolve_values("noise.gamma_phi = 0.1\nnoise.gamma_phi = 0.2\n")
    assert str(err.value) == "line 2: noise.gamma_phi already set on line 1"
    # line numbers count comments and blank lines; the same value twice is
    # still a second assignment
    with pytest.raises(ConfigError, match="line 4: seed already set on line 1"):
        resolve_values("seed = 3\n# comment\n\nseed = 3\n")
