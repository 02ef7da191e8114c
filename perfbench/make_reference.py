"""Pin the reference data the benchmark's correctness gates compare against.

Writes perfbench/reference/ledger.json (the constants ledger on each grid a
workload sets up) and perfbench/reference/kink_n6401.npz (the converged
quadrature kinks of the kink-n6401 workload).  The files were produced from
the sources at the commit that introduced the benchmark; re-run this only to
re-pin the references on purpose, and say so in CHANGES.md.

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from kinksolve import SolveConfig, compute_constants, make_grid, solve  # noqa: E402

from run import GRIDS, KINK_GRID, KINK_METHOD  # noqa: E402


def main() -> None:
    ledgers = {}
    for key, (half_width, spacing) in GRIDS.items():
        ledgers[key] = compute_constants(make_grid(half_width, spacing)).to_json_dict()
    (HERE / "reference" / "ledger.json").write_text(json.dumps(ledgers, indent=1) + "\n")

    grid = make_grid(*GRIDS[KINK_GRID])
    ledger = compute_constants(grid)
    qs = np.array([0.0, ledger.q0 / 2.0])
    values = np.array([solve(SolveConfig(q=float(q)), grid, ledger).solution.values
                       for q in qs])
    np.savez_compressed(HERE / "reference" / "kink_n6401.npz", q=qs, values=values,
                        method=np.array(KINK_METHOD))


if __name__ == "__main__":
    main()
