#!/usr/bin/env python3
"""The repo's end-to-end service benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload <name> [--seed 11]
                                  [--seconds 20] [--trace 0|1]

Prints every metric by name with its unit, then one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) as the last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero if any answer was wrong.  See README.md.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes order sets and dicts the program iterates; pin them so
        # two runs of one seed do the same work in the same order.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, environment)
    sys.path.insert(0, str(SRC))  # the repo is used in place, not installed
    sys.path.insert(0, str(HERE))
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
