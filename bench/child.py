"""Run one `patc` command between two calibration loops.

    python3 bench/child.py OUT.json [ARG...]

runs the reference task of calib.py, then `patc ARG...` as the installed
`patc` entry point would, then the reference task again, and at exit
writes the CPU and wall seconds of both reference runs to OUT.json.  With
no ARG it only imports patalg.cli, which is the start-up cost.

The command runs from this module's top level, not from a function, so it
starts at the same stack depth as under `python3 -c` and hits the
recursion limit exactly where a user's `patc` does.
"""

import json
import sys
import time

from calib import calib

_out, _argv = sys.argv[1], sys.argv[2:]
_t0 = time.perf_counter()
_before = calib()
_t1 = time.perf_counter()
try:
    if _argv:
        from patalg.cli import main

        _code = main(_argv)
    else:
        import patalg.cli  # noqa: F401

        _code = 0
finally:
    _t2 = time.perf_counter()
    _after = calib()
    _t3 = time.perf_counter()
    with open(_out, "w", encoding="utf-8") as _fh:
        json.dump({"calib_cpu": [_before, _after], "calib_wall": [_t1 - _t0, _t3 - _t2]}, _fh)
sys.exit(_code)
