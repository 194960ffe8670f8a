"""One benchmark worker process: set up, run the timed loop, check outputs.

Started by run.py in a fresh process with the thread variables set to 1.
Prints one JSON object as its last line of output.

Set-up, timed from the first line of this file, covers importing
miposterior and miposterior.cli, building the inputs and one warm-up
operation.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_OPS = 100  # at least ten operations beyond the 90th percentile


class Loop:
    """Replays a deck in whole passes. The first output of each deck item is
    kept for the checks; every later output must have the same digest."""

    def __init__(self, workload, deck):
        self.workload = workload
        self.deck = deck
        self.first = [None] * len(deck)
        self.digests = [None] * len(deck)
        self.mismatched = set()

    def call(self, k: int):
        item = self.deck[k]
        t = time.perf_counter()
        try:
            out = self.workload.run(item)
            failed = False
        except Exception as exc:  # counted as failed; the checks judge it
            out, failed = exc, True
        dt = time.perf_counter() - t
        digest = (repr(out) if failed else self.workload.digest(out))
        if self.digests[k] is None:
            self.digests[k], self.first[k] = digest, out
        elif digest != self.digests[k]:
            self.mismatched.add(k)
        return dt, failed

    def passes(self, seconds: float, min_ops: int):
        """Whole passes until both `seconds` of operation time and `min_ops`
        operations are reached. Returns latencies, failures, busy seconds."""
        latencies, failed, busy = [], 0, 0.0
        while busy < seconds or len(latencies) < min_ops:
            for k in range(len(self.deck)):
                dt, f = self.call(k)
                latencies.append(dt)
                failed += f
                busy += dt
        return latencies, failed, busy

    def problems(self) -> list:
        found = ["deck item %d: output differs between passes" % k
                 for k in sorted(self.mismatched)]
        kept = self.workload.kept_fault
        for k, (item, out) in enumerate(zip(self.deck, self.first)):
            if out is None:
                continue
            if not isinstance(out, Exception):
                found += self.workload.check(item, out)
            elif not (kept and isinstance(out, kept)):
                found.append("deck item %d raised %r" % (k, out))
        return found


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    with workloads.workdir() as tmp:
        loop = Loop(wl, wl.build(args.seed, Path(tmp)))
        loop.call(0)  # warm-up
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            result = traced(loop, args, workloads.OUT_DIR)
        else:
            lat, failed, busy = loop.passes(args.seconds, MIN_OPS)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result = {
                "attempted": len(lat),
                "failed": failed,
                "metrics": {
                    "setup_s": setup_s,
                    "ops_per_s": (len(lat) - failed) / busy,
                    "latency_p50_ms": 1e3 * statistics.median(lat),
                    "latency_p90_ms": 1e3 * statistics.quantiles(
                        lat, n=10, method="inclusive")[8],
                    "peak_rss_mb": peak_rss_mb,
                },
            }
        problems = loop.problems()
    for line in problems[:20]:
        sys.stderr.write("check failed: %s\n" % line)
    result["correct"] = not problems
    print(json.dumps(result))
    return 0


def traced(loop: Loop, args, out_dir) -> dict:
    """Untraced and traced passes alternate, half the run each, so a drift
    in machine speed does not show as tracing overhead. Per-layer values
    are per traced operation."""
    import tracing

    tracer = tracing.Tracer()
    ops = {False: 0, True: 0}
    failed = {False: 0, True: 0}
    busy = {False: 0.0, True: 0.0}
    while min(busy.values()) < args.seconds / 2:
        for on in (False, True):
            if on:
                tracer.install()
            try:
                lat, f, b = loop.passes(0.0, 1)  # one pass
            finally:
                tracer.remove()
            ops[on] += len(lat)
            failed[on] += f
            busy[on] += b
    metrics = tracer.metrics(ops[True])
    untraced, traced_rate = ((ops[on] - failed[on]) / busy[on]
                             for on in (False, True))
    metrics["trace.untraced_ops_per_s"] = untraced
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced / traced_rate - 1.0)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / ("trace-%s.json" % args.workload))
    return {"attempted": ops[False] + ops[True],
            "failed": failed[False] + failed[True], "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
