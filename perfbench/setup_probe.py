"""One benchmark set-up in a fresh interpreter: the part `setup_s` times.

Usage: python3 perfbench/setup_probe.py Q [Q ...]
       python3 perfbench/setup_probe.py --reference

Imports numpy and carlitz from the checkout's `src/`, builds the field
tables for each order Q, then prints `ready` and the CPU seconds this
process has used since it started (interpreter start included).  With
--reference it imports a fixed set of standard-library modules instead:
start-up work of the same kind that no change to the program moves.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def set_up(orders):
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (timed: every workload imports it via carlitz)

    import carlitz

    if not Path(carlitz.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"carlitz imported from {carlitz.__file__}, not {SRC}")
    for q in orders:
        carlitz.spec_for_order(q).tables


REFERENCE_MODULES = ("argparse", "asyncio", "decimal", "email.parser", "json", "unittest",
                     "xml.dom.minidom")


def reference():
    for name in REFERENCE_MODULES:
        __import__(name)


if __name__ == "__main__":
    if sys.argv[1:] == ["--reference"]:
        reference()
    else:
        set_up(int(q) for q in sys.argv[1:])
    print(f"ready {time.process_time()!r}", flush=True)
