"""Time one workload's set-up in a fresh interpreter.

Prints the wall seconds from before ``import repro`` until the first op
can be issued, then the same in reference-host seconds (scaled by the
host-speed probe taken before and after).  ``run.py`` starts this
several times per run and reports the median, so a change that moves
work into set-up shows.

    python3 perfbench/probe_setup.py pedal_unique
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (stdlib only at import)

before = workloads.probe_scale()
start = perf_counter()
workloads.WORKLOADS[sys.argv[1]][0]()
raw = perf_counter() - start
print(raw, raw * (before + workloads.probe_scale()) / 2)
