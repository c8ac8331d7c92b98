"""One set-up sample, taken in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR WORKDIR WORKLOAD SEED

Times the import of numpy and corm plus writing the workload's model config
and manifests, and prints the seconds taken, then the calibration kernel's
time measured right after (see calibration.py). Interpreter start-up is not
included; model construction is not either, because every command pays it.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401
import corm.cli  # noqa: E402,F401
from workloads import WORKLOADS, write_inputs  # noqa: E402

write_inputs(sys.argv[2], WORKLOADS[sys.argv[3]], int(sys.argv[4]))
elapsed = time.perf_counter() - start

from calibration import Clock  # noqa: E402

clock = Clock()
clock.calibrate()
print(repr(elapsed), repr(clock.points[0][2]))
