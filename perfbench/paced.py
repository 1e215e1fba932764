"""Run a Python command in this interpreter while sampling the host pace.

    python3 perfbench/paced.py OUT -m nvspin.cli run esr --config c.cfg --out d
    python3 perfbench/paced.py OUT -c CODE [ARG ...]

``-m`` and ``-c`` work as they do for ``python3``.  When the command ends,
even by an exception or ``sys.exit``, the pace record is written to the file
OUT as JSON: the wall time spent sampling and the mean slowness (pace.py).
Nothing but the standard library is imported before the command runs, so
the command's own imports are timed as in a bare interpreter.
"""

import json
import os
import runpy
import sys

from pace import Sampler  # this file's directory is sys.path[0]


def main() -> None:
    out, mode, target, *args = sys.argv[1:]
    sys.path[0] = os.getcwd()
    sampler = Sampler()
    sampler.start()
    try:
        if mode == "-m":
            sys.argv = [target, *args]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.argv = ["-c", *args]
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    finally:
        sampler.stop()
        with open(out, "w") as f:
            json.dump({"stolen_s": sampler.stolen_s,
                       "slowness": sampler.mean_slowness()}, f)


if __name__ == "__main__":
    main()
