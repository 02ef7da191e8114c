"""Time the set-up a user of kinksolve waits for, in a fresh process.

    python3 perfbench/setup_child.py HALF_WIDTH SPACING

Imports kinksolve from the checkout's src/, builds the grid and computes the
constants ledger, then prints one JSON line with the phase times and the
ledger so the caller can check it against the pinned reference.  Interpreter
start-up before the first statement is not counted.
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kinksolve  # noqa: E402

t_import = time.perf_counter()
grid = kinksolve.make_grid(float(sys.argv[1]), float(sys.argv[2]))
t_grid = time.perf_counter()
ledger = kinksolve.compute_constants(grid)
t_end = time.perf_counter()

print(json.dumps({
    "setup_s": t_end - t_start,
    "import_s": t_import - t_start,
    "grid_s": t_grid - t_import,
    "ledger_s": t_end - t_grid,
    "kinksolve_file": kinksolve.__file__,
    "ledger": ledger.to_json_dict(),
}))
