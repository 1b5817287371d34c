"""Time the program's imports in a fresh process, for ``setup_s``.

Started by ``worker.py`` as ``probe.py <monotonic time of the spawn>``;
prints the seconds from the spawn to the end of the imports a workload
process makes.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    spawned = float(sys.argv[1])
    import workloads  # noqa: F401  (the benchmark's code and the program's serving stack)

    print(repr(time.monotonic() - spawned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
