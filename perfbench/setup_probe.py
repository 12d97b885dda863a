"""Measure set-up in a fresh interpreter: import modred, parse the config and
build its system.  Prints the elapsed seconds.

    python3 perfbench/setup_probe.py CONFIG
"""

import sys
import time

t0 = time.perf_counter()

import bootstrap  # noqa: E402  (the clock starts before any import)

bootstrap.prepare()

from modred.cli import build_system, parse_config  # noqa: E402

build_system(parse_config(sys.argv[1]))
print(repr(time.perf_counter() - t0))
