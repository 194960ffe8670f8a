"""Reference figures for bench/README.md: `summarize` at 2x2, 10x10, 100x100
and 300x300, `mc_estimate` with 10^6 draws at 2x2 and 5x5, and the import
of miposterior.cli. Medians of repeated calls, single-threaded.

    python3 bench/run.py --workload all      # the benchmark itself
    python3 bench/reference.py               # these figures
"""

import os
import statistics
import sys
import time

from run import SRC, THREAD_VARS, import_times

os.environ.update({name: "1" for name in THREAD_VARS})
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import miposterior as mp  # noqa: E402


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def main() -> None:
    rng = np.random.default_rng(0)
    for side, repeats in ((2, 200), (10, 200), (100, 21), (300, 7)):
        counts = rng.poisson(50.0, size=(side, side)).astype(float)
        post = mp.apply_prior(mp.CountsTable(counts), mp.PriorSpec("jeffreys"))
        print("summarize %dx%d: %.3f ms" % (
            side, side, median_ms(lambda: mp.summarize(post), repeats)))
    for side in (2, 5):
        counts = rng.poisson(20.0, size=(side, side)).astype(float)
        post = mp.apply_prior(mp.CountsTable(counts), mp.PriorSpec("jeffreys"))
        print("mc_estimate 1e6 draws %dx%d: %.0f ms" % (
            side, side,
            median_ms(lambda: mp.mc_estimate(post, 10**6, seed=1), 3)))
    for metric, ms in import_times(time.monotonic() + 60).items():
        print("%s: %.0f ms" % (metric, ms))


if __name__ == "__main__":
    main()
