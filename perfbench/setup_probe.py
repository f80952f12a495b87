"""Time the benchmark's set-up in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``; prints one
JSON object with the process CPU seconds from interpreter start until the
workload's instances are generated and loaded (``setup_s``), and its parts.
The parent sets the BLAS thread variables, so this process inherits them.
"""

import json
import sys
import time

from workloads import WORKLOADS, ensure_ara, make_instances


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.process_time()
    ensure_ara()
    import ara.cli  # noqa: F401  (the solver's own imports count as set-up)
    import_s = time.process_time() - t0
    setup = make_instances(WORKLOADS[name], seed)
    setup_s = time.process_time()
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, "gen_s": setup.gen_s,
                      "roundtrip_s": setup.roundtrip_s,
                      "digests": [item.digest for item in setup.items]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
