"""Set-up time of a fresh interpreter, run by ``bench/run.py``.

    python3 bench/setup.py SRC SYSTEM

prints {"wall_s": ...}: the wall time of importing occtl.cli from SRC and
loading SYSTEM.  The parent sets the environment (one BLAS thread, no
bytecode writing).
"""

import json
import sys
import time

if __name__ == "__main__":
    src, system = sys.argv[1:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from occtl import cli
    cli.load_system(system)
    print(json.dumps({"wall_s": time.perf_counter() - start}))
