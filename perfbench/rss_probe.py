"""Peak resident memory of one workload iteration, in a fresh interpreter.

Usage: python3 rss_probe.py SRC_DIR WORKDIR WORKLOAD SEED

Writes the workload's inputs, runs its ``corm`` commands once with nothing
else loaded (no checks, no calibration, no spans) and prints the process's
peak RSS in MB. Exits non-zero if a command fails.
"""

import resource
import sys

sys.path.insert(0, sys.argv[1])

from corm import cli  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

for _, argv in write_inputs(sys.argv[2], WORKLOADS[sys.argv[3]], int(sys.argv[4])):
    if cli.main(argv) != 0:
        sys.exit(f"corm {argv[0]} failed")
print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
