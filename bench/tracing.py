"""Tracing from outside the package.

The tracer wraps public functions of each layer at every module binding
through which the package calls them (``moments.psi``, ``cli.summarize``,
``fit.root``, ...), found by identity, so aliases are covered too. Spanned
functions record (name, start, end, parent) in memory; functions called
thousands of times per operation are counted, not spanned. A target that no
longer exists is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (home module, attribute)
SPANNED = {
    "tables.parse_table": ("miposterior.tables", "parse_table"),
    "tables.apply_prior": ("miposterior.tables", "apply_prior"),
    "moments.summarize": ("miposterior.moments", "summarize"),
    "moments.mean_exact": ("miposterior.moments", "mean_exact"),
    "moments.point_stats": ("miposterior.moments", "point_stats"),
    "fit.fit_two_moment": ("miposterior.fit", "fit_two_moment"),
    "fit.survival": ("miposterior.fit", "survival"),
    "fit.fit_poly_ansatz": ("miposterior.fit", "fit_poly_ansatz"),
    "mc.mc_estimate": ("miposterior.mc", "mc_estimate"),
    "cli.main": ("miposterior.cli", "main"),
}
COUNTED = {
    "special.psi": ("miposterior.special", "psi"),
    # Each start of the four-moment fit makes one root call.
    "fit.root": ("miposterior.fit", "root"),
}
# Counts taken from a call's result: prefix -> (count name, result -> amount).
FROM_RESULT = {
    "fit.root": ("fit.root.nfev", lambda res: int(getattr(res, "nfev", 0))),
    "mc.mc_estimate": ("mc.draws", lambda res: int(res.sample_count)),
}

# Per-layer metric -> unit. Values are per operation unless the unit says.
METRICS = {
    **{name + ".self_ms": "ms" for name in SPANNED},
    "special.psi.calls": "count",
    "moments.point_stats.calls": "count",
    "fit.fit_poly_ansatz.starts": "count",
    "fit.root.nfev": "count",
    "mc.draws_per_s": "1/s",
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "miposterior"
                                  or name.startswith("miposterior."))]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def install(self) -> None:
        for name, (home, attr) in SPANNED.items():
            self._patch(home, attr, self._spanned(name))
        for name, (home, attr) in COUNTED.items():
            self._patch(home, attr, self._counted(name))

    def remove(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def _patch(self, home: str, attr: str, make) -> None:
        target = getattr(sys.modules.get(home), attr, None)
        if target is None:
            return
        wrapper = make(target)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, target))

    def _spanned(self, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"
        count_result = FROM_RESULT.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if count_result:
                    counts[count_result[0]] += count_result[1](result)
                return result
            return wrapper
        return make

    def _counted(self, name: str):
        counts = self.counts
        calls = name + ".calls"
        count_result = FROM_RESULT.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                result = fn(*args, **kwargs)
                if count_result:
                    counts[count_result[0]] += count_result[1](result)
                return result
            return wrapper
        return make

    def self_seconds(self) -> dict:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            total[name] += end - start - inner
        return total

    def metrics(self, ops: int) -> dict:
        """Per-layer values per operation over `ops` traced operations."""
        self_s = self.self_seconds()
        out = {name + ".self_ms": 1e3 * self_s[name] / ops for name in SPANNED}
        out["special.psi.calls"] = self.counts["special.psi.calls"] / ops
        out["moments.point_stats.calls"] = (
            self.counts["moments.point_stats.calls"] / ops)
        out["fit.fit_poly_ansatz.starts"] = self.counts["fit.root.calls"] / ops
        out["fit.root.nfev"] = self.counts["fit.root.nfev"] / ops
        mc_s = sum(end - start for name, start, end, _ in self.spans
                   if name == "mc.mc_estimate")
        out["mc.draws_per_s"] = self.counts["mc.draws"] / mc_s if mc_s else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
