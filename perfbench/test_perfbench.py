"""Self-tests of the benchmark: statistics, span arithmetic, input
generation and the tracer's coverage of the package."""

import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench import pace, run, stats, tracer, workloads


def test_tail_has_ten_samples_beyond_from_100_samples():
    samples = list(range(1000, 0, -1))  # 1000 .. 1, unsorted on purpose
    value, pct, beyond = stats.tail(samples)
    assert value == 990 and pct == 99.0 and beyond == 10
    assert sum(s > value for s in samples) == 10
    assert stats.tail(range(1, 101)) == (90, 90.0, 10)


def test_tail_below_100_samples_is_the_interpolated_p90():
    value, pct, beyond = stats.tail(range(1, 100))  # 99 samples
    assert value == pytest.approx(89.2) and pct == 90.0 and beyond == 10
    assert stats.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 90.0, 1)
    assert stats.tail([5.0]) == (5.0, 90.0, 0)
    # no jump where the rule takes over
    assert stats.tail(range(1, 101))[0] - value < 1.0


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_sampler_leaves_its_own_time_out_of_the_clock():
    sampler = pace.Sampler()
    wall0, clock0 = time.perf_counter(), sampler.clock()
    sampler.start()
    try:
        while time.perf_counter() - wall0 < 5 * pace.INTERVAL_S:
            pace._kernel()
    finally:
        sampler.stop()
    assert len(sampler.slowness) >= 3
    assert sampler.mean_slowness() > 0.0 and sampler.mean_slowness(len(sampler.slowness)) is None
    spent = time.perf_counter() - wall0
    assert sampler.clock() - clock0 == pytest.approx(spent - sampler.stolen_s, abs=1e-3)


def test_paced_child_keeps_output_and_exit_code(tmp_path):
    code = ("import sys, time\nt = time.perf_counter()\n"
            "while time.perf_counter() - t < 0.35: pass\n"
            "print(sys.argv[1:])\nsys.exit(3)")
    elapsed, slowness, proc = run.paced_child(["-c", code, "a", "b"], tmp_path)
    assert proc.returncode == 3 and proc.stdout == "['a', 'b']\n"
    assert slowness > 0.0 and 0.3 < elapsed < 30.0


def test_metric_lists_match_benchmark_json():
    bench = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(tracer.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == {*workloads.SIM_WORKLOADS, "refit"}


def _span_tree():
    # name, parent, dataset, start, end
    return [
        [tracer.ROOT, -1, 0, 0.0, 10.0],
        ["dynamics.lindblad_trajectory", 0, 0, 1.0, 4.0],
        ["linalg.expm", 1, 0, 2.0, 3.0],
        ["linalg.solve", 1, 0, 3.0, 3.5],
        ["hamiltonian.h_nv", 0, 0, 5.0, 9.0],
        ["spinops.eigensystem", 4, 0, 5.5, 6.0],
        ["fitting.levenberg_marquardt", 0, 0, 9.0, 9.5],
        ["linalg.solve", 6, 0, 9.1, 9.2],
    ]


def test_self_time_is_span_minus_children():
    assert tracer.self_times(_span_tree()) == pytest.approx([2.5, 1.5, 1.0, 0.5, 3.5, 0.5, 0.4, 0.1])


def test_layer_metrics_from_span_tree():
    m = tracer.layer_metrics(_span_tree(), Counter(), n_datasets=2,
                             overhead_frac=0.1)
    assert m["dynamics.lindblad_trajectory.calls"] == 0.5
    assert m["dynamics.lindblad_trajectory.self_s"] == 0.75
    assert m["dynamics.trajectory_expm_fallbacks"] == 0.5
    # the LM's solve is not counted as a dynamics solve
    assert m["linalg.solve.calls"] == 0.5
    assert m["hamiltonian.self_s"] == 1.75
    assert m["spinops.calls"] == 0.5
    assert m["linalg.self_s"] == pytest.approx(0.8)
    assert m["fitting.self_s"] == pytest.approx(0.2)
    assert m["trace.unattributed_s"] == pytest.approx(1.25)
    assert m["trace.overhead_frac"] == 0.1
    assert m["fitting.converged_ratio"] == 1.0
    assert set(m) == {name for name, _, _ in tracer.PER_LAYER}


def test_refit_inputs_are_byte_reproducible(tmp_path):
    class SmallPool(workloads.RefitWorkload):
        pool_size = 2 * len(workloads.TRACE_CLASSES)

    def pool(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        w = SmallPool(d, seed)
        return [p.read_bytes() for p in sorted(d.iterdir())], w

    first, w = pool(7, "a")
    again, _ = pool(7, "b")
    other, _ = pool(8, "c")
    assert len(first) == w.pool_size
    assert first == again
    assert first != other
    sizes = [(c.model, c.points) for c in workloads.TRACE_CLASSES]
    assert [(w.dataset(7, i).model, len(first[i].splitlines()) - 1)
            for i in range(len(sizes))] == sizes
    assert {n for _, n in sizes} == {161, 24, 60, 1201, 2001, 561}


def test_simulator_inputs_follow_the_seed():
    esr = workloads.SIM_WORKLOADS["cw_esr"]
    assert esr.dataset(3, 5) == esr.dataset(3, 5)
    assert esr.dataset(3, 5).config_text != esr.dataset(4, 5).config_text
    echo = workloads.SIM_WORKLOADS["hahn_echo"]
    assert "echo.tau1_us" not in echo.dataset(1, 0).config_text
    assert "echo.tau1_us = 3" in echo.dataset(1, 1).config_text


def test_tracer_sees_calls_through_every_binding(tmp_path):
    """A default cw_esr dataset reaches ``steady_state`` through
    ``experiments``' own binding; the traced count must equal an
    independent count of calls into the function's code."""
    from nvspin import cli, dynamics, experiments, fitting
    from nvspin.config import resolve_values

    code = dynamics.steady_state.__code__
    profiled = 0

    def profile(frame, event, arg):
        nonlocal profiled
        if event == "call" and frame.f_code is code:
            profiled += 1

    originals = (experiments.steady_state, fitting.FIT_MODELS["lorentzian"], np.kron)
    t = tracer.Tracer()
    t.install()
    try:
        assert experiments.steady_state is not originals[0]
        sys.setprofile(profile)
        try:
            t.run_dataset(0, cli.run, "esr", resolve_values("seed = 1\n"), tmp_path / "esr")
        finally:
            sys.setprofile(None)
        x = np.linspace(480.0, 550.0, 61)
        y = 1.0 - 0.5 / (1.0 + ((x - 515.0) / 4.0) ** 2)
        workloads.write_trace_csv(tmp_path / "l.csv", "b_gauss", x, y)
        t.run_dataset(1, cli.fit_file, tmp_path / "l.csv", "lorentzian")
    finally:
        t.uninstall()
    assert (experiments.steady_state, fitting.FIT_MODELS["lorentzian"], np.kron) == originals

    calls = Counter(s[0] for s in t.spans if s[2] == 0)
    assert calls["dynamics.steady_state"] == profiled > 0
    assert calls["dynamics.build_liouvillian"] == profiled
    assert calls["linalg.null_space"] == profiled
    assert t.counts[1]["fitting.fits"] == 1
    assert any(s[0] == "cli.read_csv" and s[2] == 1 for s in t.spans)
