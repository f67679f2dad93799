"""Child process of the set-up time measurement.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the package, loads the workload's config and builds its inputs,
then writes ``ready`` to standard output and exits.  The parent times it
from process start to that line.
"""

import sys

import workloads


def main(argv) -> int:
    name, seed = argv
    _, harness = workloads.import_program()
    workloads.WORKLOADS[name].prepare(harness, int(seed))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
