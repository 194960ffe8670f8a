"""In-process interleaved A/B timing of miposterior from two source trees,
with an A/A control, and a same-bits check of their outputs.

    python3 tools/ab.py PARENT/src src CASES.py [--rounds 30] [--seconds 0.2]

CASES.py defines ``make(mp)``, which receives one loaded copy of the package
and returns a dict of named zero-argument callables (for example one per
stage of the analytic path). The package is loaded three times under private
names: tree A twice (A and A2) and tree B once. Each round times every callable
of every copy for about ``--seconds`` each (one call if that takes longer),
in a rotating order, so a drift in machine speed falls on all three alike.
Per callable the script prints the median time per call of A and B, and the
per-round ratios B/A and A2/A as a median with quartiles. A2/A is the
control: it runs the same code, so its distance from 1 and its spread are
the method's own resolution.

A second table compares each callable's first output on B and on A2 with
A's (a list or tuple item by item): floats and arrays by their bits, other
containers field by field, exceptions by type and message, the rest with ==.
It counts the items that differ and gives the first indices and the largest
relative move |b - a| / max(|a|, |b|) among their floats (inf where a type,
shape, length, key or finiteness changes; nan where no float differs). A2
should read "same bits". Outputs that are None are not compared. The last
line is one JSON object. ``--rounds 4 --seconds 0`` is a same-bits run, one
call per copy per round; ``git archive <commit> src`` gives an old tree.
Time on an idle machine with OPENBLAS_NUM_THREADS=1; no process is started.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import itertools
import json
import math
import runpy
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # for the case files' bench imports


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


def _per_call(fn, seconds: float) -> tuple:
    """(seconds per call of fn, timed over a batch of about `seconds`; what
    its first call returned)."""
    def batch(number):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        return time.perf_counter() - start

    start = time.perf_counter()
    out = fn()
    number, t = 1, time.perf_counter() - start
    while t < seconds / 4:  # grow the batch until it is long enough to time
        number *= 2
        t = batch(number)
    if t < seconds:
        number = max(1, int(number * seconds / t))
        t = batch(number)
    return t / number, out


def _quartiles(xs: list) -> tuple:
    """(q1, median, q3) of xs."""
    return tuple(statistics.quantiles(xs, n=4))


def _move(a, b):
    """None when a and b hold the same bits, else the largest relative move
    among their floats that differ (see the module docstring)."""
    if type(a).__qualname__ != type(b).__qualname__:  # each copy has its own classes
        return math.inf
    if isinstance(a, (float, np.generic, np.ndarray)):
        a, b = np.asarray(a), np.asarray(b)
        if (a.dtype, a.shape) != (b.dtype, b.shape):
            return math.inf
        if a.tobytes() == b.tobytes():
            return None
        if a.dtype.kind != "f":
            return math.nan
        if (np.isfinite(a) != np.isfinite(b)).any():
            return math.inf
        with np.errstate(all="ignore"):  # inf - inf and 0 / 0 read nan
            return float(np.fmax.reduce(abs(b - a) / np.maximum(abs(a), abs(b)), axis=None))
    if isinstance(a, BaseException):
        a, b = str(a), str(b)
    elif dataclasses.is_dataclass(a):
        a, b = ([getattr(v, f.name) for f in dataclasses.fields(v)] for v in (a, b))
    elif isinstance(a, dict):
        if list(a) != list(b):
            return math.inf
        a, b = list(a.values()), list(b.values())
    if isinstance(a, (list, tuple)):
        moves = list(_moves(a, b).values())
        return float(np.fmax.reduce(moves)) if moves else None
    return None if a == b else math.nan


def _moves(a, b) -> dict:
    """{index: move} of the items that differ between outputs a and b; a list
    or tuple's items are its elements, anything else is one item."""
    a, b = (v if isinstance(v, (list, tuple)) else [v] for v in (a, b))
    pairs = itertools.zip_longest(a, b, fillvalue=object())  # an item one side lacks differs
    return {i: m for i, (x, y) in enumerate(pairs) if (m := _move(x, y)) is not None}


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
    outputs = {side: {} for side in sides}
    orders = itertools.cycle(itertools.permutations(sides))
    for _ in range(args.rounds):
        order = next(orders)
        for name in names:
            for side in order:
                t, out = _per_call(sides[side][name], args.seconds)
                times[side][name].append(t)
                outputs[side].setdefault(name, out)

    print("%-16s %12s %12s  %-22s %-22s" % ("callable", "A us/call", "B us/call",
                                           "B/A median [q1-q3]", "A2/A median [q1-q3]"))
    report = {}
    for name in names:
        a, a2, b = (times[s][name] for s in ("A", "A2", "B"))
        ba = _quartiles([y / x for x, y in zip(a, b)])
        aa = _quartiles([y / x for x, y in zip(a, a2)])
        us = [round(1e6 * statistics.median(v), 2) for v in (a, b)]
        print("%-16s %12.2f %12.2f  %.3f [%.3f-%.3f]    %.3f [%.3f-%.3f]" % (
            name, *us, ba[1], ba[0], ba[2], aa[1], aa[0], aa[2]))
        report[name] = {"A, B us/call": us, "B/A q1, median, q3": [round(q, 3) for q in ba],
                        "A2/A q1, median, q3": [round(q, 3) for q in aa]}

    print("\n%-16s %-46s  %s" % ("callable", "B against A", "A2 against A"))
    for name in (n for n in names if outputs["A"][n] is not None):
        a = outputs["A"][name]
        for side in ("B", "A2"):
            moves = _moves(a, outputs[side][name])
            report[name][side] = {
                "items": len(a) if isinstance(a, (list, tuple)) else 1, "differ": len(moves),
                "move": "%.3g" % np.fmax.reduce([*moves.values()] or [0.0]),
                "at": list(moves)[:10]}
        print("%-16s %-46s  %s" % (name, *(
            "%(differ)d of %(items)d items differ, move %(move)s, at %(at)s" % p
            if p["differ"] else "same bits" for p in (report[name]["B"], report[name]["A2"]))))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
