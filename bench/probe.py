"""Set-up probe, run in a fresh interpreter by run.py: imports the
workload's modules, builds its units and prints the monotonic clock.

    python3 bench/probe.py WORKLOAD WORKDIR
"""

import sys
import time

import workloads

workloads.build(sys.argv[1], sys.argv[2])
print(repr(time.monotonic()))
