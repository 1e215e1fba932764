import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cli_env import cli_env
from nvspin.cli import EXPERIMENTS, fit_file, main, read_csv, write_csv
from nvspin.config import (
    ConfigError,
    config_checksum,
    parse_config,
    resolve_values,
)
from nvspin.fitting import FIT_MODELS


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
        assert np.allclose(cfg.sweep.grid, [0.0, 0.25, 0.5, 0.75, 1.0])

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


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        cols = {"x_us": np.array([0.0, 0.5, 1.0]), "y": np.array([1.0, 0.25, 0.125])}
        write_csv(path, cols)
        back = read_csv(path)
        assert list(back) == ["x_us", "y"]
        assert np.array_equal(back["x_us"], cols["x_us"])
        assert np.array_equal(back["y"], cols["y"])

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="columns"):
            read_csv(path)


    @pytest.mark.parametrize("value, message", [
        ("abc", "non-numeric value 'abc'"), ("inf", "non-finite value 'inf'")])
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
            tmp_path, "rabi", "sweep.grid = 0:2:41\nnoise.n_samples = 8\n", "rabi_0.csv")
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
        # the package __init__ imports every module, so the child imports
        # the modules into a bare package object that skips it
        script = (
            "import importlib, importlib.util, sys, types\n"
            "pkg = types.ModuleType('nvspin')\n"
            "pkg.__path__ = importlib.util.find_spec('nvspin').submodule_search_locations\n"
            "sys.modules['nvspin'] = pkg\n"
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

    def test_degenerate_levels_exit_2(self, tmp_path, capsys):
        # at zero field m_S = +1 and -1 coincide, so the driven pair is ambiguous
        cfg = tmp_path / "c.cfg"
        cfg.write_text("field.b_gauss = 0\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "echo", "--config", str(cfg), "--out", str(out)) == 2
        assert "degenerate" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_missing_config_file(self, tmp_path):
        assert self.run_cli("run", "esr", "--config", str(tmp_path / "nope.cfg"),
                            "--out", str(tmp_path / "o")) == 1

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        # the rabi CSVs are written before the report is formatted, so a
        # failure there must remove them
        import nvspin.cli as cli

        written = []

        def fail(_fit):
            written.extend(p.name for p in out.iterdir())
            raise RuntimeError("report failed")

        monkeypatch.setattr(cli, "format_fit", fail)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sweep.grid = 0:2:41\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "rabi", "--config", str(cfg), "--out", str(out)) == 2
        assert written == ["rabi_0.csv"]
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
    ])
    def test_config_the_model_cannot_honour(self, tmp_path, capsys, experiment, text, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "o"
        assert self.run_cli("run", experiment, "--config", str(cfg), "--out", str(out)) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["esr", "levels"])
    def test_negative_grid_runs_where_it_is_no_duration(self, tmp_path, experiment):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sweep.grid = -10,0,10\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", experiment, "--config", str(cfg), "--out", str(out)) == 0

    @pytest.mark.parametrize("grid", [
        "0:2:41",
        ",".join(f"{0.05 * k:.2f}" for k in range(41)),
    ], ids=["start_stop_count", "decimal"])
    def test_uniform_rabi_grids_run(self, tmp_path, grid):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"sweep.grid = {grid}\nnoise.n_samples = 2\n")
        out = tmp_path / "o"
        assert self.run_cli("run", "rabi", "--config", str(cfg), "--out", str(out)) == 0

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


def test_readme_lists_the_cli_surface():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def listed(label):
        line = next(ln for ln in readme.splitlines() if ln.startswith(label))
        return re.findall(r"`([^`]+)`", line)

    assert listed("Experiments:") == list(EXPERIMENTS)
    assert listed("Fit models:") == sorted(FIT_MODELS)
