import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_env import cli_env
from nvspin import __version__, standard_config
from nvspin.cli import EXPERIMENTS, fit_file, format_fit, main, read_csv, run, write_csv
from nvspin.config import (
    ConfigError,
    SCHEMA,
    build_experiment_config,
    config_checksum,
    parse_config,
    resolve_values,
)
from nvspin.fitting import FIT_MODELS, Trace
from oracles import read_csv_per_cell


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.nv.d_mhz == 2880.0
        assert cfg.nv.g == 2.00
        assert cfg.noise.seed == 12345

    def test_values_and_comments(self):
        cfg = parse_config("""
            # scenario
            field.b_gauss = 100   # Fig 1(b)
            nv.d_mhz = 2870
            bath.coupling_mhz = 0.2
            bath.include_n_nucleus = true
        """)
        assert cfg.b_field_gauss == 100.0
        assert cfg.nv.d_mhz == 2870.0
        assert cfg.bath.coupling_mhz == 0.2
        assert cfg.bath.include_n_nucleus is True

    def test_grid_shorthand(self):
        cfg = parse_config("sweep.grid = 0:1:5")
        assert np.allclose(cfg.sweep_grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_unknown_key_suggests(self):
        with pytest.raises(ConfigError, match="nv.g"):
            parse_config("nv.gfactor = 2.0")

    def test_parse_error_has_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("nv.d_mhz = 2880\nnonsense line\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="nv.d_mhz"):
            parse_config("nv.d_mhz = large")

    def test_negative_duration_names_field(self):
        with pytest.raises(ConfigError, match="t_wait_us"):
            parse_config("fieldsweep.t_wait_us = -3")

    def test_validation_names_section(self):
        with pytest.raises(ConfigError, match="nv"):
            parse_config("nv.d_mhz = -5")
        with pytest.raises(ConfigError, match="noise"):
            parse_config("noise.n_samples = 0")

    def test_noise_seed_follows_master_seed(self):
        cfg = parse_config("seed = 7")
        assert cfg.noise.seed == 7


class TestChecksum:
    def test_stable_under_reordering(self):
        a = resolve_values("nv.d_mhz = 2870\nseed = 1")
        b = resolve_values("seed = 1\nnv.d_mhz = 2870")
        assert config_checksum(a) == config_checksum(b)

    def test_explicit_default_equals_omitted(self):
        a = resolve_values("")
        b = resolve_values("nv.d_mhz = 2880")
        assert config_checksum(a) == config_checksum(b)

    def test_changes_with_semantic_value(self):
        a = resolve_values("")
        b = resolve_values("nv.d_mhz = 2881")
        assert config_checksum(a) != config_checksum(b)


def _finite_tables(min_rows: int):
    """1-4 columns of min_rows-50 random finite float64 values each, -0.0
    and subnormals included."""
    cell = st.floats(allow_nan=False, allow_infinity=False)
    return st.integers(1, 4).flatmap(lambda ncols: st.integers(min_rows, 50).flatmap(
        lambda nrows: st.lists(st.lists(cell, min_size=nrows, max_size=nrows),
                               min_size=ncols, max_size=ncols)))


def _corrupt(line: str, kind: str, col: int) -> str:
    cells = line.split(",")
    if kind == "short row":
        return ",".join(cells[:-1])
    if kind == "long row":
        return line + ",0.5"
    if kind == "trailing comma":
        return line + ","
    cells[col % len(cells)] = "" if kind == "empty cell" else kind
    return ",".join(cells)


CORRUPTIONS = ("short row", "long row", "trailing comma", "empty cell", "abc", "nan", "inf")


def _read_outcome(reader, path):
    """The error text, or each column's name and bit patterns."""
    try:
        columns = reader(path)
    except ValueError as exc:
        return str(exc)
    return [(name, values.view(np.uint64).tolist()) for name, values in columns.items()]


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = {"x_us": np.array([0.0, 0.5, 1.0]), "y": np.array([1.0, 0.25, 0.125])}
        write_csv(path, cols)
        back = read_csv(path)
        assert list(back) == ["x_us", "y"]
        assert np.array_equal(back["x_us"], cols["x_us"])
        assert np.array_equal(back["y"], cols["y"])

    def test_header_only_reads_empty_columns(self, tmp_path, capsys):
        # without numpy's no-data warning; the fit then finds too few points
        path = tmp_path / "t.csv"
        write_csv(path, {"b_gauss": np.array([]), "i_pl": np.array([])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_csv(path)
        assert [(name, len(values)) for name, values in back.items()] == [("b_gauss", 0),
                                                                          ("i_pl", 0)]
        assert main(["fit", "lorentzian", str(path)]) == 2
        assert "at least 7 points" in capsys.readouterr().err

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="columns"):
            read_csv(path)

    @pytest.mark.parametrize("line", ["", "  \t"])
    def test_blank_line_is_a_short_row(self, tmp_path, line):
        # numpy's parse skips a blank line; the reader names it
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1,2\n3,4\n{line}\n5,6\n")
        with pytest.raises(ValueError, match=f"{path.name}:4: expected 2 columns"):
            read_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(table=_finite_tables(min_rows=0))
    def test_reads_what_the_per_cell_reader_read(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, {f"c{i}": np.array(col, dtype=float) for i, col in enumerate(table)})
        assert _read_outcome(read_csv, path) == _read_outcome(read_csv_per_cell, path)
        assert all(v.dtype == np.float64 and v.flags.c_contiguous
                   for v in read_csv(path).values())

    @settings(max_examples=300, deadline=None)
    @given(table=_finite_tables(min_rows=1), blank=st.integers(0, 2), data=st.data())
    def test_corrupt_lines_give_the_per_cell_readers_error(self, tmp_path_factory,
                                                            table, blank, data):
        # one or two corrupted lines: the first bad line wins, a wrong column
        # count beats a bad cell on its line, and a non-finite value is named
        # only when every cell parses
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, {f"c{i}": np.array(col, dtype=float) for i, col in enumerate(table)})
        lines = path.read_text().splitlines()
        corruption = st.tuples(st.integers(1, len(lines) - 1), st.sampled_from(CORRUPTIONS),
                               st.integers(0, len(table) - 1))
        for row, kind, col in data.draw(st.lists(corruption, min_size=1, max_size=2)):
            lines[row] = _corrupt(lines[row], kind, col)
        path.write_text("\n" * blank + "\n".join(lines) + "\n")
        assert _read_outcome(read_csv, path) == _read_outcome(read_csv_per_cell, path)

    @pytest.mark.parametrize("value, message", [
        ("abc", "non-numeric value 'abc'"), ("inf", "non-finite value 'inf'"),
        # float() took these two; numpy's parse does not
        ("1_0", "non-numeric value '1_0'"), ("\u0661\u0662", "non-numeric value '\u0661\u0662'")])
    def test_line_numbers_count_blank_lines_above_the_header(self, tmp_path, value, message):
        path = tmp_path / "blank.csv"
        path.write_text(f"\n\nx,y\n1,2\n2,{value}\n")
        with pytest.raises(ValueError, match=f"{path.name}:5: {message}"):
            read_csv(path)

    @pytest.mark.parametrize("header, rows", [("x,x", "1,2\n2,3\n3,5\n"),
                                              ("t,t,y", "1,1,2\n2,2,3\n3,3,5\n")])
    def test_duplicate_column_name_rejected(self, tmp_path, capsys, header, rows):
        # a repeated name used to drop a column: "need at least two columns"
        # for x,x, and t,t,y fitted y against the second t
        path = tmp_path / "dup.csv"
        path.write_text(f"{header}\n{rows}")
        name = header.split(",")[0]
        with pytest.raises(ValueError, match=f"{path.name}:1: duplicate column name '{name}'"):
            read_csv(path)
        assert main(["fit", "exp_decay", str(path)]) == 2
        assert f"duplicate column name '{name}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, value):
        x = np.linspace(-3.0, 3.0, 61)
        y = 1.0 - 0.5 / (1.0 + (x / 0.4) ** 2)
        path = tmp_path / "line.csv"
        write_csv(path, {"f_mhz": x, "i_pl": y})
        lines = path.read_text().splitlines()
        lines[31] = f"{lines[31].split(',')[0]},{value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{path.name}:32: non-finite value '{value}'"):
            read_csv(path)
        for model in ("lorentzian", "exp_decay", "damped_cosine"):
            assert main(["fit", model, str(path)]) == 2
            assert f":32: non-finite value '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_not_written(self, tmp_path, value):
        # read_csv rejects it, so a run must not emit it
        path = tmp_path / "w.csv"
        columns = {"x": np.arange(3.0), "y": np.array([1.0, 2.0, value])}
        with pytest.raises(ValueError, match=f"non-finite value {value!r} in column 'y', row 3"):
            write_csv(path, columns)
        assert not path.exists()


class TestRunCommand:
    def run_cli(self, *args):
        return main(list(args))

    def test_esr_run_and_artifacts(self, tmp_path):
        cfg = tmp_path / "esr.cfg"
        cfg.write_text("field.b_gauss = 100\nsweep.grid = 2580:2620:81\n")
        out = tmp_path / "out"
        assert self.run_cli("run", "esr", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "esr.csv").exists()
        assert (out / "fit_report.txt").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "experiment=esr" in manifest
        assert "config_sha256=" in manifest
        data = read_csv(out / "esr.csv")
        dip = data["f_mhz"][np.argmin(data["i_pl"])]
        assert abs(dip - 2600.0751) <= 0.5

    def test_manifest_lines(self, tmp_path):
        values = resolve_values("sweep.grid = 0:2:81\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        run("rabi", values, out)
        text = (out / "manifest.txt").read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[:4] == ["experiment=rabi", f"config_sha256={config_checksum(values)}",
                             "seed=12345", f"tool_version={__version__}"]
        assert re.fullmatch(r"duration_s=\d+\.\d{3}", lines[4])
        # outputs in write order
        assert lines[5:] == ["outputs=rabi_0.csv,rabi_1.csv,rabi_2.csv,fit_report.txt"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("field.b_gauss = 100\nsweep.grid = 2590:2610:41\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert self.run_cli("run", "esr", "--config", str(cfg), "--out", str(out1)) == 0
        assert self.run_cli("run", "esr", "--config", str(cfg), "--out", str(out2)) == 0
        assert (out1 / "esr.csv").read_bytes() == (out2 / "esr.csv").read_bytes()

    @staticmethod
    def csv_at_thread_counts(tmp_path, experiment, config_text, csv_name):
        """The CSV from fresh CLI runs with 1 and with 4 BLAS threads."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config_text)
        outputs = []
        for threads, name in (("1", "t1"), ("4", "t4")):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "nvspin.cli", "run", experiment,
                 "--config", str(cfg), "--out", str(out)],
                env=cli_env(threads),
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append((out / csv_name).read_bytes())
        return outputs

    def test_byte_identical_across_thread_counts(self, tmp_path):
        outputs = self.csv_at_thread_counts(
            tmp_path, "rabi", "sweep.grid = 0:2:81\nnoise.n_samples = 8\n", "rabi_0.csv")
        assert outputs[0] == outputs[1]

    def test_fieldsweep_byte_identical_across_thread_counts(self, tmp_path):
        # the joint model solves one batched Lindblad stack over the field grid
        outputs = self.csv_at_thread_counts(
            tmp_path, "fieldsweep", "sweep.grid = 505:524:8\nnoise.n_samples = 4\n",
            "fieldsweep.csv")
        assert outputs[0] == outputs[1]

    def test_trend_byte_identical_across_thread_counts(self, tmp_path):
        # each center runs the joint-model trajectories of the field sweep
        outputs = self.csv_at_thread_counts(
            tmp_path, "trend", "noise.n_samples = 4\n", "trend.csv")
        assert outputs[0] == outputs[1]

    def test_trend_with_negative_coupling(self, tmp_path):
        # the sign of the secular coupling is physical; the synthetic centers'
        # static noise scales with the coupling's magnitude alone
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bath.coupling_mhz = -0.5\n")
        negative, default = tmp_path / "negative", tmp_path / "default"
        assert self.run_cli("run", "trend", "--config", str(cfg), "--out", str(negative)) == 0
        assert self.run_cli("run", "trend", "--out", str(default)) == 0
        assert (negative / "trend.csv").read_bytes() == (default / "trend.csv").read_bytes()

    @pytest.mark.parametrize("tau1", ["", "echo.tau1_us = 3\n"])
    def test_echo_byte_identical_across_thread_counts(self, tmp_path, tau1):
        # each delay evolves the whole ensemble as one stacked sequence
        outputs = self.csv_at_thread_counts(
            tmp_path, "echo", "sweep.grid = 0.5:3:6\nnoise.n_samples = 4\n" + tau1,
            "echo.csv")
        assert outputs[0] == outputs[1]

    def test_scipy_linalg_stays_unloaded(self, tmp_path):
        # only the steady state of esr needs scipy (its null_space); every
        # other command must run without importing scipy or scipy.linalg
        out = tmp_path / "out"
        commands = [["run", exp, "--out", str(out / exp)]
                    for exp in ("echo", "rabi", "fieldsweep", "trend", "levels")]
        commands.append(["fit", "damped_cosine", str(out / "rabi" / "rabi_0.csv")])
        script = (
            "import json, sys\n"
            "import nvspin.cli\n"
            "def scipy_loaded():\n"
            "    return 'scipy' in sys.modules or 'scipy.linalg' in sys.modules\n"
            "loaded = {'import nvspin.cli': scipy_loaded()}\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    code = nvspin.cli.main(argv)\n"
            "    loaded['nvspin ' + ' '.join(argv[:2]) + f' (exit {code})'] = scipy_loaded()\n"
            "print(json.dumps(loaded))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=cli_env("1"), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(loaded) == 1 + len(commands)
        assert all("(exit 0)" in step for step in list(loaded)[1:]), loaded
        assert not any(loaded.values()), loaded

    def test_import_graph_has_no_back_edges(self):
        # import nvspin loads no submodule, so each import below loads only
        # the module and what it imports
        script = (
            "import importlib, sys\n"
            "importlib.import_module('nvspin.dynamics')\n"
            "print('nvspin.fitting' in sys.modules)\n"
            "importlib.import_module('nvspin.config')\n"
            "print('nvspin.experiments' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              env=cli_env("1"), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dynamics_loads_fitting, config_loads_experiments = proc.stdout.split()
        assert dynamics_loads_fitting == "False"
        assert config_loads_experiments == "False"

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sweep.grid = 0:2:81\n")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert self.run_cli("run", "rabi", "--config", str(cfg), "--out", str(out1),
                            "--seed", "1") == 0
        assert self.run_cli("run", "rabi", "--config", str(cfg), "--out", str(out2),
                            "--seed", "2") == 0
        a = (out1 / "manifest.txt").read_text()
        b = (out2 / "manifest.txt").read_text()
        assert "seed=1" in a and "seed=2" in b
        assert (out1 / "rabi_0.csv").read_bytes() != (out2 / "rabi_0.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nv.gfactor = 2\n")
        assert self.run_cli("run", "esr", "--config", str(cfg),
                            "--out", str(tmp_path / "o")) == 1
        assert "did you mean" in capsys.readouterr().err

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert self.run_cli("run", "rabi", "--seed", "-1", "--out", str(out)) == 1
        assert "config error: seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["esr", "fieldsweep", "trend"])
    def test_fixed_drive_frequency_rejected(self, tmp_path, capsys, experiment):
        # these experiments drive on resonance or sweep the drive frequency
        cfg = tmp_path / "c.cfg"
        cfg.write_text("drive.f_rf_mhz = 2000\n")
        out = tmp_path / "o"
        assert self.run_cli("run", experiment, "--config", str(cfg), "--out", str(out)) == 1
        assert "drive.f_rf_mhz" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["rabi", "echo", "fieldsweep", "trend"])
    def test_zero_drive_rejected(self, tmp_path, capsys, experiment):
        # these pulse or nutate the spin; without a drive they failed at run
        # time (exit 2) on a pi/2 pulse or a damped-cosine fit
        cfg = tmp_path / "c.cfg"
        cfg.write_text("drive.f1_mhz = 0\n")
        out = tmp_path / "o"
        assert self.run_cli("run", experiment, "--config", str(cfg), "--out", str(out)) == 1
        assert "config error: drive.f1_mhz" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_drive_esr_runs(self, tmp_path):
        # with no drive the CW spectrum is flat at the pumped polarization
        cfg = tmp_path / "c.cfg"
        cfg.write_text("drive.f1_mhz = 0\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "esr", "--config", str(cfg), "--out", str(out)) == 0
        assert np.ptp(read_csv(out / "esr.csv")["i_pl"]) <= 1e-9
        # a flat spectrum has no dip, so the note names no grid point
        report = (out / "fit_report.txt").read_text()
        assert report.startswith("esr spectrum flat, no dip (transition ")

    @pytest.mark.parametrize("key", ["readout.contrast", "readout.photons",
                                     "readout.polarization"])
    def test_no_spin_signal_esr_runs(self, tmp_path, key):
        # esr fits nothing, so a readout blind to the spin still runs
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 0\nsweep.grid = 2600:2620:5\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "esr", "--config", str(cfg), "--out", str(out)) == 0
        # the steady state never reads the initial polarization, so that key
        # leaves a spectrum, whose lowest point is this grid's edge
        flat = key != "readout.polarization"
        report = (out / "fit_report.txt").read_text()
        assert report.startswith("esr spectrum flat, no dip (transition ") == flat

    def test_zero_field_is_a_config_error(self, tmp_path, capsys):
        # at zero field m_S = +1 and -1 coincide, and at the level crossing
        # 0 and -1, so the pair that rabi, echo and trend drive is
        # ambiguous; rabi and echo exited 2 at run time, and trend exited 0
        # with the same T2' at both fields.  ESR sets its own drive, and at
        # zero field both transitions dip at D
        cfg = tmp_path / "c.cfg"
        p = standard_config().nv
        for experiment, b in [("rabi", 0.0), ("echo", 0.0), ("trend", 0.0),
                              ("rabi", p.d_mhz / p.gamma), ("trend", p.d_mhz / p.gamma)]:
            cfg.write_text(f"field.b_gauss = {b!r}\nnoise.n_samples = 2\n")
            out = tmp_path / experiment
            assert self.run_cli("run", experiment, "--config", str(cfg), "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert "field.b_gauss" in err and "degenerate" in err
            assert not out.exists()
        cfg.write_text("field.b_gauss = 0\nsweep.grid = 2860:2900:41\nnoise.n_samples = 2\n")
        out = tmp_path / "esr"
        assert self.run_cli("run", "esr", "--config", str(cfg), "--out", str(out)) == 0
        report = (out / "fit_report.txt").read_text()
        assert report == "esr dip at 2880.0 MHz (transition 2880.0 MHz)\n"

    def test_echo_with_fixed_tau1_takes_a_short_grid(self, tmp_path):
        # with tau1 fixed the echo is not fitted, so three delays are enough
        cfg = tmp_path / "c.cfg"
        cfg.write_text("echo.tau1_us = 3\nsweep.grid = 2,3,4\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "echo", "--config", str(cfg), "--out", str(out)) == 0
        assert len(read_csv(out / "echo.csv")["tau2_us"]) == 3

    def test_missing_config_file(self, tmp_path):
        assert self.run_cli("run", "esr", "--config", str(tmp_path / "nope.cfg"),
                            "--out", str(tmp_path / "o")) == 1

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        # all three rabi CSVs are written before the report is formatted, so
        # a failure there must remove them
        import nvspin.cli as cli

        written = []

        def fail(_fit):
            written.extend(p.name for p in out.iterdir())
            raise RuntimeError("report failed")

        monkeypatch.setattr(cli, "format_fit", fail)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sweep.grid = 0:2:81\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "rabi", "--config", str(cfg), "--out", str(out)) == 2
        assert sorted(written) == ["rabi_0.csv", "rabi_1.csv", "rabi_2.csv"]
        assert out.is_dir() and not any(out.iterdir())

    @pytest.mark.parametrize("experiment, text, key", [
        ("rabi", "rabi.powers = -1", "rabi.powers"),
        ("rabi", "rabi.powers =", "rabi.powers"),
        ("trend", "trend.couplings_mhz =", "trend.couplings_mhz"),
        ("trend", "trend.couplings_mhz = -0.5", "trend.couplings_mhz"),
        ("rabi", "noise.sigma_static_mhz = nan", "noise.sigma_static_mhz"),
        ("fieldsweep", "fieldsweep.t_wait_us = inf", "fieldsweep.t_wait_us"),
        ("rabi", "rabi.powers = 1,-inf", "rabi.powers"),
        ("rabi", "sweep.grid = 0:nan:5", "sweep.grid"),
        ("rabi", "sweep.grid = 0,inf", "sweep.grid"),
        ("esr", "sweep.grid = 1,1,2", "sweep.grid: must be strictly increasing"),
        ("esr", "sweep.grid = 2640,2600,2560", "sweep.grid: must be strictly increasing"),
        ("rabi", "seed = -1", "seed"),
        # rabi and echo sweep a duration; both failed at run time (exit 2)
        ("rabi", "sweep.grid = -1,0.5,1,1.5,2,2.5,3", "sweep.grid"),
        ("echo", "sweep.grid = -1,0.5,1,1.5,2,2.5,3", "sweep.grid"),
        ("esr", "noise.gamma_phi = 0.1\nnoise.gamma_phi = 0.2", "noise.gamma_phi"),
        # trend has no grid; it ran and ignored the key
        ("trend", "sweep.grid = 1,2,3", "sweep.grid"),
        # 20 periods on a non-uniform grid; it failed at run time (exit 2),
        # saying the trace spanned 1.82 periods
        ("rabi", "sweep.grid = 0,0.05,0.1,0.5,1,1.5,2,2.5,3,3.5,4", "sweep.grid"),
        # no spin signal: fieldsweep and trend wrote inf in every t2p_us row
        # (exit 0), rabi blamed the oscillation count (exit 2) and echo
        # reported a converged T2 fitted to rounding noise
        *[(experiment, f"{key} = 0", key)
          for experiment in ("rabi", "echo", "fieldsweep", "trend")
          for key in ("readout.contrast", "readout.photons", "readout.polarization")],
        # a top Rabi frequency at or above the Nyquist frequency of the
        # times fitted: each ran (exit 0) and reported an aliased f1, for
        # example 18.97 MHz for a 21 MHz drive at f1 = 7
        ("rabi", "drive.f1_mhz = 7", "drive.f1_mhz, rabi.powers:"),
        ("rabi", "drive.f1_mhz = 50", "drive.f1_mhz, rabi.powers:"),
        ("fieldsweep", "drive.f1_mhz = 21", "drive.f1_mhz:"),
        ("trend", "drive.f1_mhz = 21", "drive.f1_mhz:"),
        ("rabi", "sweep.grid = 0:2:21\nrabi.powers = 1", "drive.f1_mhz, sweep.grid:"),
        # a grid shorter than the fit along it: each exited 2 at run time
        # with the fit's "fit needs at least N points"
        ("echo", "sweep.grid = 1,2,3",
         "sweep.grid: echo fits exp_decay along its grid, which needs at least 5 points, got 3"),
        ("fieldsweep", "sweep.grid = 510,514,518", "sweep.grid: fieldsweep fits lorentzian "
         "along its grid, which needs at least 7 points, got 3"),
        ("rabi", "sweep.grid = 1",
         "sweep.grid: rabi fits damped_cosine along its grid, which needs at least 5 points, "
         "got 1"),
        # a drive that reaches a spectator transition, so that the two-level
        # model does not hold: echo warned and reported T2 = 6.0001 us, trend
        # (0 -> +1 56 MHz from the drive) and rabi (power 9 at 240 MHz) ran
        # without a word; each exited 0
        ("echo", "drive.f1_mhz = 250", "field.b_gauss, drive.f1_mhz: echo drives the lowest "
         "N-V pair; drive is not selective"),
        ("trend", "field.b_gauss = 10", "field.b_gauss, drive.f1_mhz: trend drives the lowest "
         "N-V pair; drive is not selective"),
        ("rabi", "drive.f1_mhz = 80\nsweep.grid = 0:0.2:201",
         "field.b_gauss, drive.f1_mhz, rabi.powers: rabi drives the lowest N-V pair; drive is "
         "not selective"),
    ])
    def test_config_the_model_cannot_honour(self, tmp_path, capsys, experiment, text, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "o"
        assert self.run_cli("run", experiment, "--config", str(cfg), "--out", str(out)) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_experiment_creates_nothing(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="unknown experiment 'bogus'"):
            run("bogus", resolve_values(""), out)
        assert not out.exists()

    def test_non_finite_output_fails_the_run(self, tmp_path, capsys):
        # a contrast this small leaves the counts flat, so every Rabi fit
        # gives T2' = inf; the run used to exit 0 with inf in each row
        cfg = tmp_path / "c.cfg"
        cfg.write_text("readout.contrast = 1e-300\nsweep.grid = 505:524:8\n"
                       "noise.n_samples = 4\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "fieldsweep", "--config", str(cfg), "--out", str(out)) == 2
        assert "non-finite value inf in column 't2p_us', row 1" in capsys.readouterr().err
        assert out.is_dir() and not any(out.iterdir())

    def test_trend_report_holds_each_center_fit(self, tmp_path):
        out = tmp_path / "o"
        assert self.run_cli("run", "trend", "--out", str(out)) == 0
        report = (out / "fit_report.txt").read_text()
        labels = re.findall(r"^center coupling (\S+) MHz:\nmodel: damped_cosine$", report, re.M)
        assert labels == ["0.1", "0.3", "1.0"]
        t2p = [float(v) for v in re.findall(r"^  t2p_us = (\S+)$", report, re.M)]
        assert sorted(t2p) == sorted(read_csv(out / "trend.csv")["t2p_us"])
        assert report.split("\n\n")[-1].startswith("trend over 3 centers")

    @pytest.mark.parametrize("experiment", ["esr", "levels"])
    def test_negative_grid_runs_where_it_is_no_duration(self, tmp_path, experiment):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sweep.grid = -10,0,10\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", experiment, "--config", str(cfg), "--out", str(out)) == 0

    @pytest.mark.parametrize("grid", [
        "0:2:81",
        ",".join(f"{0.025 * k:.3f}" for k in range(81)),
    ], ids=["start_stop_count", "decimal"])
    def test_uniform_rabi_grids_run(self, tmp_path, grid):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"sweep.grid = {grid}\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "rabi", "--config", str(cfg), "--out", str(out)) == 0

    def test_rabi_below_the_nyquist_frequency_runs(self, tmp_path):
        # f1 = 6.6 MHz drives power 9 at 19.8 MHz, below the 20 MHz that
        # the Rabi window's 0.025 us step resolves
        cfg = tmp_path / "c.cfg"
        cfg.write_text("drive.f1_mhz = 6.6\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "rabi", "--config", str(cfg), "--out", str(out)) == 0
        report = (out / "fit_report.txt").read_text()
        f1s = [float(v) for v in re.findall(r"^  f1_mhz = (\S+)$", report, re.M)]
        assert len(f1s) == 3 and abs(f1s[2] - 19.8) < 0.2

    def test_lorentzian_below_the_grid_step_is_unresolved(self, tmp_path):
        # at this bath dephasing both resonances are narrower than the
        # 0.508 G field step; their fits reported fwhm 0.355 and 0.415 G and
        # a centre 0.68 G off, flagged only ftol
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bath.gamma_bath = 0.1\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "fieldsweep", "--config", str(cfg), "--out", str(out)) == 0
        report = (out / "fit_report.txt").read_text()
        for label in ("i_pl dip", "1/t2p peak"):
            block = report.split(f"{label}:\n", 1)[1].split("\n\n", 1)[0]
            assert "unresolved" in re.search(r"^flags: (\S+)$", block, re.M).group(1).split(",")
            assert "  center = nan\n" in block and block.endswith("  fwhm = nan")

    def test_run_fit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("run", "fit")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_levels_run(self, tmp_path):
        out = tmp_path / "levels"
        assert self.run_cli("run", "levels", "--out", str(out)) == 0
        data = read_csv(out / "levels.csv")
        mismatch = data["f_nv_mhz"] - data["f_n_mhz"]
        crossings = np.where(np.diff(np.sign(mismatch)))[0]
        assert len(crossings) == 1
        assert abs(data["b_gauss"][crossings[0]] - 514.4) < 11.0


class TestFitCommand:
    def test_fit_rabi_csv_recovers_f1(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("noise.sigma_static_mhz = 0\nnoise.n_samples = 1\n")
        out = tmp_path / "o"
        assert main(["run", "rabi", "--config", str(cfg), "--out", str(out)]) == 0
        fit = fit_file(out / "rabi_0.csv", "damped_cosine")
        assert abs(fit["f1_mhz"] - 5.0) / 5.0 < 0.01

    def test_fit_echo_csv_recovers_t2(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "echo", "--out", str(out)]) == 0
        fit = fit_file(out / "echo.csv", "exp_decay")
        assert abs(fit["t_us"] - 6.0) / 6.0 < 0.05

    def test_insufficient_data_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n1,2\n2,3\n3,4\n")
        assert main(["fit", "exp_decay", str(path)]) == 2
        assert "at least" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, grid, model", [
        ("esr", "480.6:520.6:41", "lorentzian"), ("echo", "0.25:6:12", "exp_decay")])
    def test_fit_of_the_emitted_csv_is_the_fit_of_the_trace(self, tmp_path, experiment,
                                                             grid, model):
        # the CSV round trip loses no bit, so the report is the in-memory one
        values = resolve_values(f"sweep.grid = {grid}\n")
        run(experiment, values, tmp_path)
        cfg = build_experiment_config(values)
        csvs, _, _ = EXPERIMENTS[experiment].outputs(cfg, np.asarray(cfg.sweep_grid))
        ((name, columns),) = csvs.items()
        x, y = columns.values()
        in_memory = FIT_MODELS[model](Trace(x, y))
        assert format_fit(fit_file(tmp_path / name, model)) == format_fit(in_memory)

    def test_unknown_model_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"x": np.arange(10.0), "y": np.arange(10.0)})
        with pytest.raises(ValueError, match="model"):
            fit_file(path, "gaussian")

    def test_fit_command_prints_params(self, tmp_path, capsys):
        t = np.linspace(0, 20, 101)
        path = tmp_path / "d.csv"
        write_csv(path, {"t_us": t, "y": 0.1 + np.exp(-t / 3.0)})
        assert main(["fit", "exp_decay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "t_us" in out and "converged: True" in out

    @pytest.mark.parametrize("f1", [20.0, 19.5], ids=["nyquist", "below_nyquist"])
    def test_damped_cosine_at_the_nyquist_frequency_is_unresolved(self, tmp_path, capsys, f1):
        # at 1 / (2 dt) = 20 MHz the samples fix only A cos(phase); the fit
        # reported amplitude 0.3846 and phase -0.1131, flagged only xtol
        t = np.arange(160) * 0.025
        path = tmp_path / "d.csv"
        y = 0.5 + 0.4 * np.exp(-t / 2) * np.cos(2 * np.pi * f1 * t + 0.3)
        write_csv(path, {"t_us": t, "y": y})
        assert main(["fit", "damped_cosine", str(path)]) == 0
        out = capsys.readouterr().out
        params = dict(re.findall(r"^  (\S+) = (\S+)$", out, re.M))
        assert "converged: True" in out and abs(float(params["f1_mhz"]) - f1) < 1e-6
        flags = re.search(r"^flags: (\S+)$", out, re.M).group(1).split(",")
        if f1 == 20.0:
            assert "unresolved" in flags
            assert params["amplitude"] == params["phase_rad"] == "nan"
        else:
            assert flags == ["xtol"]
            assert abs(float(params["amplitude"]) - 0.4) < 1e-9
            assert abs(float(params["phase_rad"]) - 0.3) < 1e-9

    def test_non_uniform_damped_cosine_csv_is_an_error(self, tmp_path, capsys):
        t = np.array([0.0, 0.05, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        path = tmp_path / "d.csv"
        write_csv(path, {"t_us": t, "i_pl": 850.0 + 100.0 * np.cos(2 * np.pi * 5.0 * t)})
        assert main(["fit", "damped_cosine", str(path)]) == 2
        assert "uniformly spaced" in capsys.readouterr().err

    def test_fit_command_exits_2_at_iteration_cap(self, tmp_path, monkeypatch, capsys):
        from nvspin import fitting

        t = np.linspace(0, 20, 101)
        path = tmp_path / "d.csv"
        write_csv(path, {"t_us": t, "y": 0.1 + np.exp(-t / 3.0)})
        monkeypatch.setattr(fitting, "LM_MAX_ITER", 1)
        fit = fit_file(path, "exp_decay")
        assert not fit.converged
        assert "max_iter" in fit.flags
        assert main(["fit", "exp_decay", str(path)]) == 2
        captured = capsys.readouterr()
        assert "flags: max_iter" in captured.out
        assert "did not converge" in captured.err

    def test_fit_loads_only_the_reader_and_the_fit(self, tmp_path):
        # a fresh interpreter: import nvspin binds its names on first use,
        # and nvspin fit needs neither config nor the simulator
        t = np.linspace(0, 20, 101)
        path = tmp_path / "d.csv"
        write_csv(path, {"t_us": t, "y": 0.1 + np.exp(-t / 3.0)})
        script = (
            "import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in ('nvspin', 'difflib'))\n"
            "import nvspin\n"
            "bare = loaded()\n"
            "import nvspin.cli\n"
            "code = nvspin.cli.main(['fit', 'exp_decay', sys.argv[1]])\n"
            "print(json.dumps([bare, code, loaded()]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=cli_env("1"), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        bare, code, after_fit = json.loads(proc.stdout.strip().splitlines()[-1])
        assert bare == ["nvspin"]
        assert code == 0
        assert after_fit == ["nvspin", "nvspin.cli", "nvspin.fitting"]


class TestHelp:
    """``--help`` in a fresh interpreter, where ``config`` is not yet loaded."""

    def cli(self, *args):
        return subprocess.run([sys.executable, "-m", "nvspin.cli", *args],
                              env=cli_env("1"), capture_output=True, text=True)

    def test_top_level_help_lists_every_config_key(self):
        proc = self.cli("--help")
        assert proc.returncode == 0, proc.stderr
        keys = [line.split()[0] for line in proc.stdout.splitlines()
                if line.startswith("  ") and " default " in line]
        assert keys == list(SCHEMA)

    def test_config_and_help_load_no_simulator(self):
        # the schema holds every default, so neither reading it nor printing
        # it imports the simulator
        script = (
            "import contextlib, io, json, sys\n"
            "def simulator():\n"
            "    return sorted(m for m in sys.modules if m in (\n"
            "        'nvspin.dynamics', 'nvspin.experiments', 'nvspin.hamiltonian',\n"
            "        'nvspin.pulseq', 'nvspin.spinops'))\n"
            "import nvspin.config\n"
            "after_import = simulator()\n"
            "import nvspin.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
            "    try:\n"
            "        nvspin.cli.main(['--help'])\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(json.dumps([after_import, code, 'configuration keys' in text.getvalue(),\n"
            "                  simulator()]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              env=cli_env("1"), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        after_import, code, has_schema, after_help = json.loads(
            proc.stdout.strip().splitlines()[-1])
        assert after_import == []
        assert code == 0 and has_schema
        assert after_help == []

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_subcommand_help_has_no_schema(self, command):
        proc = self.cli(command, "--help")
        assert proc.returncode == 0, proc.stderr
        assert "configuration keys" not in proc.stdout
        assert not any(key in proc.stdout for key in SCHEMA if "." in key)

    def test_bad_config_key_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nv.gfactor = 2\n")
        out = tmp_path / "o"
        proc = self.cli("run", "esr", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert "config error: line 1: unknown key 'nv.gfactor' (did you mean 'nv.g'?)" in proc.stderr
        assert not out.exists()


def test_readme_lists_the_cli_surface():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def listed(label):
        line = next(ln for ln in readme.splitlines() if ln.startswith(label))
        return re.findall(r"`([^`]+)`", line)

    assert listed("Experiments:") == list(EXPERIMENTS)
    assert listed("Fit models:") == sorted(FIT_MODELS)
