"""Benchmark nvspin's datasets, end to end or per module.

    python3 perfbench/run.py --workload cw_esr --seed 1 --seconds 12 --trace 0

Load model: one client in a closed loop (the next dataset starts when the
previous one has finished), one Python process, BLAS pinned to one thread.
Run it once per workload, so each workload gets a fresh process.

``--trace 0`` times datasets through the same entry points the CLI uses
(``nvspin.cli.run`` and ``nvspin.cli.fit_file``) until ``--seconds`` have
passed and, interleaved with them, fresh interpreters for the set-up time
and for whole ``python -m nvspin.cli`` datasets, whose CSVs must match the in-process ones
byte for byte.  Its times are wall times divided by the host's slowness,
sampled while they ran (see pace.py), so the drifting speed of a shared host
does not drown a change in nvspin; the wall times are printed as well.
``--trace 1`` runs a fixed list of datasets twice, plain and
traced (see tracer.py), and reports per-dataset layer metrics; a fixed list
makes its counts repeat exactly for a seed.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, outputs
and the span file are written under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PACED = ROOT / "perfbench" / "paced.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
SETUP_CODE = ("import sys, nvspin.cli; from nvspin.config import resolve_values; "
              "resolve_values(open(sys.argv[1]).read())")
CHILD_TIMEOUT_S = 60
# least loop time scaled by one mean of the host pace; ~5 samples
PACE_BLOCK_S = 0.5

END_TO_END = (
    ("datasets_per_s", "1/s"),
    ("dataset_s_p50", "s"),
    ("dataset_s_p90", "s"),
    ("cli_dataset_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cw_esr", "hahn_echo", "field_sweep", "refit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    """Environment of every child interpreter: the package source on
    PYTHONPATH (it is not installed) and the pinned thread counts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def paced_child(args: list[str], work: Path) -> tuple[float, float | None, subprocess.CompletedProcess]:
    """Run ``python3 <args>`` through paced.py, one child at a time.

    Returns the child's wall time without its sampling, its mean slowness
    (None if it took no sample) and the finished process."""
    record = work / "pace.json"
    record.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(PACED), str(record), *args], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if not record.is_file():
        return elapsed, None, proc
    pace = json.loads(record.read_text())
    return elapsed - pace["stolen_s"], pace["slowness"], proc


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_seed": seed,
        "git_commit": git_commit(),
    }


class Runner:
    """Runs one workload's datasets in this process and in fresh ones."""

    def __init__(self, name: str, seed: int, work: Path):
        from nvspin import cli
        from nvspin.config import resolve_values

        from perfbench import workloads

        self.cli = cli
        self.resolve_values = resolve_values
        self.name = name
        self.seed = seed
        self.work = work
        if name == "refit":
            self.workload = workloads.RefitWorkload(work, seed)
        else:
            self.workload = workloads.SIM_WORKLOADS[name]
        self.failures: dict[str, str] = {}  # dataset key -> first problem

    @property
    def is_refit(self) -> bool:
        return self.name == "refit"

    def run_dataset(self, index: int, tag: str, call=None, clock=time.perf_counter):
        """Run dataset ``index`` once; returns (seconds, record).

        ``call(fn, *args)`` runs the entry point (the tracer passes its
        own); the time covers only the entry-point call, read from ``clock``.
        """
        call = call or (lambda fn, *args: fn(*args))
        ds = self.workload.dataset(self.seed, index)
        record = {"dataset": ds, "error": None}
        if self.is_refit:
            fn, args = self.cli.fit_file, (ds.csv, ds.model)
        else:
            values = self.resolve_values(ds.config_text)
            out = self.work / f"{tag}-{index:04d}"
            record.update(values=values, out=out)
            fn, args = self.cli.run, (self.workload.experiment, values, out)
        start = clock()
        try:
            result = call(fn, *args)
        except Exception as exc:  # counted as a failed dataset
            result = None
            record["error"] = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        record["result"] = result
        return elapsed, record

    def fail(self, key: str, problem: str) -> None:
        self.failures.setdefault(key, problem)

    def check(self, key: str, record) -> None:
        ds = record["dataset"]
        if record["error"] is not None:
            problem = record["error"]
        elif self.is_refit:
            problem = self.workload.check(ds, record["result"])
        else:
            problem = self.workload.check(record["values"], record["out"])
        if problem is not None:
            self.fail(key, problem)

    def output_bytes(self, record) -> bytes | str:
        """What a rerun must reproduce exactly: the CSV, or for a fit the
        report ``nvspin fit`` prints."""
        if self.is_refit:
            return self.cli.format_fit(record["result"]) + "\n"
        return (record["out"] / self.workload.csv_name).read_bytes()

    def same_output(self, key: str, first, second) -> None:
        if (first["error"] is None and second["error"] is None
                and self.output_bytes(first) != self.output_bytes(second)):
            self.fail(key, "output differs from a rerun with the same seed")

    def fresh_dataset(self, probe: int, record) -> tuple[float, float | None]:
        """Rerun a dataset through ``python -m nvspin.cli`` in a fresh
        interpreter; returns its wall time and slowness (see paced_child)
        and checks it reproduces the in-process output byte for byte."""
        ds = record["dataset"]
        cmd = ["-m", "nvspin.cli"]
        if self.is_refit:
            cmd += ["fit", ds.model, str(ds.csv)]
        else:
            cfg = self.work / f"cli-{probe:04d}.cfg"
            cfg.write_text(ds.config_text)
            out = self.work / f"cli-{probe:04d}"
            cmd += ["run", self.workload.experiment, "--config", str(cfg), "--out", str(out)]
        elapsed, slowness, proc = paced_child(cmd, self.work)
        key = f"cli {probe}"
        if proc.returncode != 0:
            self.fail(key, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif record["error"] is None:
            if self.is_refit:
                fresh = proc.stdout
            else:
                fresh = (out / self.workload.csv_name).read_bytes()
            if fresh != self.output_bytes(record):
                self.fail(key, "output differs from the in-process run with the same seed")
        return elapsed, slowness

    def setup_time(self) -> tuple[float, float | None]:
        """Fresh interpreter: import nvspin.cli and resolve the config;
        returns its wall time and slowness (see paced_child)."""
        cfg = self.work / "setup.cfg"
        cfg.write_text(self.workload.dataset(self.seed, 0).config_text)
        elapsed, slowness, proc = paced_child(["-c", SETUP_CODE, str(cfg)], self.work)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        return elapsed, slowness


def probe_schedule(setup_runs: int, cli_runs: int) -> list[str]:
    """Set-up and fresh-process probes in the order they are spread over
    the run, each kind evenly."""
    slots = [((i + 0.5) / setup_runs, "setup") for i in range(setup_runs)]
    slots += [((i + 0.5) / cli_runs, "cli") for i in range(cli_runs)]
    return [kind for _, kind in sorted(slots)]


def measure(runner: Runner, seconds: float) -> tuple[dict, int, list[str]]:
    """End-to-end metrics, untraced, in seconds at the reference pace.

    The in-process closed loop runs for ``seconds`` of its own time.  The
    host pace is sampled throughout (see pace.py), in this process during
    the loop and in the child during each fresh-interpreter probe.  Loop
    datasets are scaled in blocks of at least ``PACE_BLOCK_S``, each by the
    samples taken during it.  The probes are interleaved with the loop, so
    every metric samples the whole run; the loop's clock stops while a probe
    runs.
    """
    from perfbench.pace import Sampler
    from perfbench.stats import tail

    probes = probe_schedule(SETUP_RUNS, runner.workload.cli_runs)
    records, times, setup, cli_times = [], [], [], []  # at the reference pace
    raw_times, raw_setup, raw_cli = [], [], []  # wall times
    loop_s = scaled_loop_s = 0.0
    sampler = Sampler()
    block, block_s, block_first = [], 0.0, 0  # datasets not yet scaled
    block_slowness = []  # also stands in for a probe that took no sample

    def probes_due() -> bool:
        done = len(setup) + len(cli_times)
        return bool(probes) and done < (done + len(probes)) * loop_s / seconds

    def probe(kind: str) -> None:
        if kind == "setup":
            elapsed, slowness = runner.setup_time()
            raw, scaled = raw_setup, setup
        else:
            k = len(cli_times)
            elapsed, slowness = runner.fresh_dataset(k, records[k % len(records)])
            raw, scaled = raw_cli, cli_times
        raw.append(elapsed)
        scaled.append(elapsed / (slowness or statistics.median(block_slowness)))

    sampler.start()
    try:
        while not records or loop_s < seconds:
            start = sampler.clock()
            elapsed, record = runner.run_dataset(len(records), "run", clock=sampler.clock)
            wall = sampler.clock() - start
            loop_s += wall
            block_s += wall
            block.append(elapsed)
            records.append(record)
            slowness = sampler.mean_slowness(block_first)
            if slowness is None or (block_s < PACE_BLOCK_S and loop_s < seconds):
                continue
            block_slowness.append(slowness)
            raw_times += block
            times += [t / slowness for t in block]
            scaled_loop_s += block_s / slowness
            block, block_s, block_first = [], 0.0, len(sampler.slowness)
            if probes_due():
                sampler.stop()
                while probes_due():
                    probe(probes.pop(0))
                sampler.start()
    finally:
        sampler.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for kind in probes:
        probe(kind)
    for i, record in enumerate(records):
        runner.check(f"run {i}", record)

    p90, pct, beyond = tail(times)
    lines = [
        f"datasets: {len(times)} in-process in {loop_s:.3f} s, {len(cli_times)} "
        f"fresh-process, {len(setup)} set-up runs",
        f"dataset_s_p90 is the p{pct:.1f} of {len(times)} samples "
        f"({beyond} beyond it)",
        f"host slowness: {len(sampler.slowness)} in-process samples, block means "
        f"{min(block_slowness):.3f}-{max(block_slowness):.3f} (median "
        f"{statistics.median(block_slowness):.3f}); times below are wall times divided by it",
        f"wall times: dataset p50 {statistics.median(raw_times):.6g} s, "
        f"{len(times) / loop_s:.6g} datasets/s, fresh-process p50 "
        f"{statistics.median(raw_cli):.6g} s, set-up p50 "
        f"{statistics.median(raw_setup):.6g} s",
    ]
    metrics = {
        "datasets_per_s": len(times) / scaled_loop_s,
        "dataset_s_p50": statistics.median(times),
        "dataset_s_p90": p90,
        "cli_dataset_s_p50": statistics.median(cli_times),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss_mib,
    }
    units = dict(END_TO_END)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            len(times) + len(cli_times), lines)


def measure_traced(runner: Runner, out_dir: Path) -> tuple[dict, int, list[str]]:
    """Per-layer metrics from a plain and a traced pass over the same datasets."""
    from collections import Counter

    from perfbench.tracer import PER_LAYER, Tracer, layer_metrics

    n = runner.workload.traced_datasets
    plain_s, plain = 0.0, []
    for i in range(n):
        elapsed, record = runner.run_dataset(i, "plain")
        plain_s += elapsed
        plain.append(record)

    tracer = Tracer()
    tracer.install()
    traced_s, traced = 0.0, []
    try:
        for i in range(n):
            elapsed, record = runner.run_dataset(
                i, "traced", lambda fn, *args, i=i: tracer.run_dataset(i, fn, *args))
            traced_s += elapsed
            traced.append(record)
    finally:
        tracer.uninstall()

    for i, (a, b) in enumerate(zip(plain, traced)):
        runner.check(f"plain {i}", a)
        runner.check(f"traced {i}", b)
        runner.same_output(f"traced {i}", a, b)

    overhead = traced_s / plain_s - 1.0
    totals = sum(tracer.counts.values(), Counter())
    metrics = layer_metrics(tracer.spans, totals, n, overhead)
    spans_path = out_dir / f"spans-{runner.name}-seed{runner.seed}.tsv"
    tracer.write(spans_path)
    units = {name: unit for name, unit, _ in PER_LAYER}
    lines = [f"traced {n} datasets: plain {plain_s:.3f} s, traced {traced_s:.3f} s, "
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            2 * n, lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nvspin" / "__init__.py").is_file():
        print(f"error: no nvspin package under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads these when numpy loads, so they are set before any import
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path[:0] = [str(ROOT), str(SRC)]

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            metrics, attempted, lines = measure_traced(runner, WORK)
        else:
            metrics, attempted, lines = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    failed = len(runner.failures)
    for line in lines:
        print(line)
    for key, problem in runner.failures.items():
        print(f"FAILED {key}: {problem}")
    print(f"failed_frac: {failed / attempted!r} 1 ({failed} of {attempted} datasets)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print("environment: " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
