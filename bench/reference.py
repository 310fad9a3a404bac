"""Reference figures for the ROADMAP "State" table, best of three runs.

    python3 bench/reference.py

Times `lemma_scan` (identity metric, 4096 samples, 7-point grid from t = 1
to 1e-6) and `certify_almost_flat` (eps 0.01) on filiform(n) for n = 4 to 12,
and `peel_tower` on filiform(12), filiform(16) and filiform(20), in this
process with the checkout's `src` first on the path.  Prints one line per
figure.  These are one-off figures for the README, not benchmark metrics.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from nilflat import (LeftInvariantMetric, NilLattice, build_split, catalog,  # noqa: E402
                     certify_almost_flat, lemma_scan, peel_tower)


def best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main():
    grid = np.geomspace(1.0, 1e-6, 7)
    for n in (4, 6, 8, 10, 12):
        algebra = catalog.filiform(n)
        metric = LeftInvariantMetric.identity(n)
        z = np.zeros(n)
        z[-1] = 1.0
        split = build_split(metric, z)
        scan = best_of(lambda: lemma_scan(algebra, metric, split, grid,
                                          n_samples=4096, seed=0))
        tower = peel_tower(NilLattice(algebra))
        cert = best_of(lambda: certify_almost_flat(tower, metric, 0.01, seed=0))
        print(f"filiform({n}): lemma_scan {scan:.2f} s, "
              f"certify_almost_flat {cert:.2f} s", flush=True)
    for n in (12, 16, 20):
        lattice = NilLattice(catalog.filiform(n))
        print(f"filiform({n}): peel_tower {best_of(lambda: peel_tower(lattice)):.2f} s",
              flush=True)


if __name__ == "__main__":
    main()
