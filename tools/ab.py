"""In-process interleaved A/B timing of miposterior from two source trees,
with an A/A control.

    python3 tools/ab.py PARENT/src src CASES.py [--rounds 30] [--seconds 0.2]

CASES.py defines ``make(mp)``, which receives one loaded copy of the package
and returns a dict of named zero-argument callables (for example one per
stage of the analytic path). The package is loaded three times under private
names: tree A twice (A and A2) and tree B once. Each round times every callable
of every copy for about ``--seconds`` each, in a rotating order, so a drift
in machine speed falls on all three alike. Per callable the script prints the
median time per call of A and B, and the per-round ratios B/A and A2/A as a
median with quartiles. A2/A is the control: it runs the same code, so its
distance from 1 and its spread are the method's own resolution.

Run it on an idle machine with one thread for the numeric libraries (for
example OPENBLAS_NUM_THREADS=1). Timings are of the running interpreter; no
process is started.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import runpy
import statistics
import sys
import time
from pathlib import Path


def load_package(src: Path, alias: str):
    """Import src/miposterior as a fresh package named `alias`; its modules'
    relative imports resolve inside that copy."""
    init = src / "miposterior" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def _per_call(fn, seconds: float) -> float:
    """Seconds per call of fn, timed over a batch of about `seconds`."""
    number, t = 1, 0.0
    while True:  # grow the batch until it is long enough to time
        start = time.perf_counter()
        for _ in range(number):
            fn()
        t = time.perf_counter() - start
        if t >= seconds / 4:
            break
        number *= 2
    number = max(1, int(number * seconds / t))
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / number


def _quartiles(xs: list) -> tuple:
    """(q1, median, q3) of xs."""
    return tuple(statistics.quantiles(xs, n=4))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="source tree A (the parent), holding miposterior/")
    ap.add_argument("b", type=Path, help="source tree B (the change)")
    ap.add_argument("cases", type=Path, help="Python file defining make(mp)")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seconds", type=float, default=0.2,
                    help="time per callable per copy per round")
    args = ap.parse_args(argv)
    if args.rounds < 4:
        ap.error("--rounds must be at least 4 for quartiles")

    make = runpy.run_path(str(args.cases))["make"]
    sides = {"A": make(load_package(args.a, "_ab_a")),
             "A2": make(load_package(args.a, "_ab_a2")),
             "B": make(load_package(args.b, "_ab_b"))}
    names = list(sides["A"])
    times = {side: {name: [] for name in names} for side in sides}
    orders = itertools.cycle(itertools.permutations(sides))
    for _ in range(args.rounds):
        order = next(orders)
        for name in names:
            for side in order:
                times[side][name].append(_per_call(sides[side][name], args.seconds))

    print("%-16s %12s %12s  %-22s %-22s" % ("callable", "A us/call", "B us/call",
                                           "B/A median [q1-q3]", "A2/A median [q1-q3]"))
    for name in names:
        a, a2, b = (times[s][name] for s in ("A", "A2", "B"))
        ba = _quartiles([y / x for x, y in zip(a, b)])
        aa = _quartiles([y / x for x, y in zip(a, a2)])
        print("%-16s %12.2f %12.2f  %.3f [%.3f-%.3f]    %.3f [%.3f-%.3f]" % (
            name, 1e6 * statistics.median(a), 1e6 * statistics.median(b),
            ba[1], ba[0], ba[2], aa[1], aa[0], aa[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
