"""Time one set-up of a workload in a fresh interpreter: import bplab, then
parse and validate the config with `ExperimentConfig.from_dict`, which
builds the triple.  Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py <src directory> <config JSON>
"""

import json
import sys
import time

src, doc = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
start = time.perf_counter()
import bplab.cli  # noqa: E402

bplab.cli.ExperimentConfig.from_dict(doc)
print(repr(time.perf_counter() - start))
