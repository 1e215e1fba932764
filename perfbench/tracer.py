"""Tracer that wraps nvspin's public functions from outside the package.

Every public function of the traced modules is replaced by a wrapper that
records a span (name, parent span, dataset id, start, end).  The wrapper is
installed in the defining module *and* wherever another nvspin module bound
the same function object (``from .dynamics import steady_state``), including
module-level dicts such as ``fitting.FIT_MODELS``; otherwise calls made
through those bindings would bypass the tracer.  The numpy/scipy kernels
(``kron``, ``eig``, ``solve``, ``expm``, ``null_space``) are wrapped on their
own modules and counted only where package code calls them, not where one
kernel calls another.

Spans are kept in memory and only recorded while a dataset is open, so the
benchmark's own use of the package (input generation, checks) is not
counted.
"""

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

TRACED_MODULES = ("cli", "config", "dynamics", "experiments", "fitting",
                  "hamiltonian", "pulseq", "spinops")

KERNELS = (
    (np, "kron", "linalg.kron"),
    (np.linalg, "eig", "linalg.eig"),
    (np.linalg, "solve", "linalg.solve"),
    (scipy.linalg, "expm", "linalg.expm"),
    (scipy.linalg, "null_space", "linalg.null_space"),
)

ROOT = "bench.dataset"


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        # one row per span: [name, parent index, dataset id, start, end]
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.dataset: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.dataset, 0.0, 0.0])
        self._stack.append(idx)
        self.spans[idx][3] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.dataset][name] += n

    def run_dataset(self, dataset_id: int, fn, *args, **kwargs):
        """Call ``fn`` as dataset ``dataset_id`` under a root span."""
        self.dataset = dataset_id
        idx = self._open(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self.dataset = None

    def wrap(self, name: str, fn, hook=None, kernel: bool = False):
        """Span-recording wrapper.  ``hook.before`` may replace the positional
        arguments; ``hook.after`` adds counts from them and the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.dataset is None or (
                    kernel and tracer._stack
                    and tracer.spans[tracer._stack[-1]][0].startswith("linalg.")):
                return fn(*args, **kwargs)
            if hook is not None:
                args = hook.before(tracer, args)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook.after(tracer, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import nvspin

        modules = [importlib.import_module(f"nvspin.{m}") for m in TRACED_MODULES]
        wrappers: dict[int, tuple] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, HOOKS.get(name)))
        for mod in [nvspin, *modules]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patch_item(obj, key, hit[1])
        for owner, attr, name in KERNELS:
            original = getattr(owner, attr)
            self._patch(owner, attr, self.wrap(name, original, HOOKS.get(name), kernel=True))

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_item(self, mapping: dict, key, new) -> None:
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as tab-separated rows with a header line."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tdataset\tname\tstart_s\tend_s\n")
            for i, (name, parent, ds, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{ds}\t{name}\t{start!r}\t{end!r}\n")


class _Hook:
    def before(self, tracer, args):
        return args

    def after(self, tracer, args, result):
        pass


class _FitHook(_Hook):
    def after(self, tracer, args, result):
        tracer.count("fitting.fits")
        tracer.count("fitting.converged", int(bool(result.converged)))
        tracer.count("fitting.at_bound", int("at_bound" in result.flags))


class _LMHook(_Hook):
    """Counts iterations and every call of the residual function."""

    def before(self, tracer, args):
        fun = args[0]

        def counted(p):
            tracer.count("fitting.lm.residual_evals")
            return fun(p)

        return (counted, *args[1:])

    def after(self, tracer, args, result):
        tracer.count("fitting.lm.iterations", result.iterations)


class _EnsembleHook(_Hook):
    """Gives each ensemble member its own span, so the experiment's
    callback is charged to ``experiments`` and not to ``ensemble_average``."""

    def before(self, tracer, args):
        member = tracer.wrap("experiments.ensemble_member", args[0])
        return (member, *args[1:])


class _BytesHook(_Hook):
    def __init__(self, counter: str):
        self.counter = counter

    def after(self, tracer, args, result):
        tracer.count(self.counter, os.path.getsize(args[0]))


class _EigHook(_Hook):
    def after(self, tracer, args, result):
        tracer.count("linalg.eig.matrices", math.prod(np.shape(args[0])[:-2]))


HOOKS = {
    "fitting.fit_damped_cosine": _FitHook(),
    "fitting.fit_exp_decay": _FitHook(),
    "fitting.fit_lorentzian": _FitHook(),
    "fitting.levenberg_marquardt": _LMHook(),
    "dynamics.ensemble_average": _EnsembleHook(),
    "cli.write_csv": _BytesHook("cli.write_csv.bytes"),
    "cli.read_csv": _BytesHook("cli.read_csv.bytes"),
    "linalg.eig": _EigHook(),
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, _, start, end in spans]
    for name, parent, _, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# (name, unit, better); every value is per dataset except the ratios
PER_LAYER = (
    ("dynamics.steady_state.calls", "count", "lower"),
    ("dynamics.steady_state.self_s", "s", "lower"),
    ("dynamics.build_liouvillian.calls", "count", "lower"),
    ("dynamics.build_liouvillian.self_s", "s", "lower"),
    ("dynamics.validate_density.self_s", "s", "lower"),
    ("linalg.null_space.calls", "count", "lower"),
    ("linalg.kron.calls", "count", "lower"),
    ("pulseq.run_sequence.calls", "count", "lower"),
    ("pulseq.run_sequence.self_s", "s", "lower"),
    ("dynamics.evolve_lindblad.calls", "count", "lower"),
    ("dynamics.evolve_lindblad.self_s", "s", "lower"),
    ("linalg.expm.calls", "count", "lower"),
    ("dynamics.lindblad_trajectory.calls", "count", "lower"),
    ("dynamics.lindblad_trajectory.self_s", "s", "lower"),
    ("dynamics.trajectory_expm_fallbacks", "count", "lower"),
    ("linalg.eig.calls", "count", "lower"),
    ("linalg.eig.matrices", "count", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("dynamics.ensemble_average.self_s", "s", "lower"),
    ("fitting.fits", "count", "lower"),
    ("fitting.self_s", "s", "lower"),
    ("fitting.lm.iterations", "count", "lower"),
    ("fitting.lm.residual_evals", "count", "lower"),
    ("fitting.converged_ratio", "1", "higher"),
    ("fitting.at_bound", "count", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("cli.read_csv.self_s", "s", "lower"),
    ("cli.read_csv.bytes", "B", "lower"),
    ("config.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("hamiltonian.calls", "count", "lower"),
    ("hamiltonian.self_s", "s", "lower"),
    ("spinops.calls", "count", "lower"),
    ("spinops.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

def layer_metrics(spans: list[list], counts: Counter, n_datasets: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-dataset layer metrics from the spans and counts of ``n_datasets``.

    ``<span>.calls``/``<span>.self_s`` sum the spans of that name; a bare
    module (``hamiltonian.calls``) sums every span of the module.  Self
    time is a span's duration minus its children's, so it adds up to the
    datasets' wall time.  ``trace.unattributed_s`` is the time inside a
    dataset that no wrapped function covers.  ``linalg.solve.calls`` and
    ``dynamics.trajectory_expm_fallbacks`` count only kernels called from
    ``dynamics``, so a fitting change does not move them; the LM's damped
    solves show in ``fitting.lm.iterations``.
    """
    self_s = self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    fallbacks = dynamics_solves = 0
    for (name, parent, _, _, _), own in zip(spans, self_s):
        group = name.split(".", 1)[0]
        for key in (name, group):
            calls[key] += 1
            busy[key] += own
        caller = spans[parent][0] if parent >= 0 else ""
        if name == "linalg.expm" and caller == "dynamics.lindblad_trajectory":
            fallbacks += 1
        if name == "linalg.solve" and caller.startswith("dynamics."):
            dynamics_solves += 1
    fits = counts["fitting.fits"]
    special = {
        "dynamics.trajectory_expm_fallbacks": fallbacks,
        "linalg.solve.calls": dynamics_solves,
        "fitting.converged_ratio": counts["fitting.converged"] / fits if fits else 1.0,
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_s": busy[ROOT],
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]]
        elif name.endswith(".self_s"):
            value = busy[name[:-len(".self_s")]]
        else:
            value = counts[name]
        if name not in ("fitting.converged_ratio", "trace.overhead_frac"):
            value /= n_datasets
        out[name] = value
    return out
