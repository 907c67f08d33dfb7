"""Time one fresh set-up: import circlepoly and make a workload's op-0 inputs.

Run as: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
Prints the seconds taken; interpreter start-up is not included.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import circlepoly  # noqa: E402,F401
from workloads import make_workload  # noqa: E402


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    try:
        make_workload(name, workdir).make_inputs(seed, 0)
        print(time.perf_counter() - T0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
