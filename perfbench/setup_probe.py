"""Set-up probe: a fresh interpreter imports tqsl and builds one workload's
inputs, then prints the monotonic clock.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts several of these and times each from just before its start,
so set-up time includes interpreter start-up. BLAS thread variables are
inherited from run.py.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import tqsl  # noqa: E402,F401

from workloads import WORKLOADS, load_goldens, make_inputs, pick_items, pool  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
make_inputs(workload, pick_items(pool(load_goldens(workload)), workload, int(sys.argv[2])))
print(repr(time.monotonic()))
