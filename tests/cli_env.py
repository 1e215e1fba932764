"""Environment for running ``python -m nvspin.cli`` in a fresh interpreter.

The determinism tests start the CLI in a child process with a minimal
environment, so that nothing but the BLAS thread count differs between runs.
The child must still import the same ``nvspin`` the test process imported,
whether that came from ``src/`` on ``PYTHONPATH`` or from an installed copy.
"""

import os
from pathlib import Path

import nvspin

PACKAGE_ROOT = Path(nvspin.__file__).resolve().parents[1]


def cli_env(threads: str) -> dict[str, str]:
    """Minimal child environment: ``PATH``, ``PYTHONPATH``, the BLAS thread
    variables and ``PYTHONDONTWRITEBYTECODE`` when it is set.

    ``PYTHONPATH`` starts with the directory holding the imported ``nvspin``
    package, followed by the parent's own ``PYTHONPATH`` if it has one.
    """
    pythonpath = [str(PACKAGE_ROOT)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(pythonpath),
           "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads}
    # a child that compiles nvspin must not leave bytecode the parent was
    # told not to write
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env
