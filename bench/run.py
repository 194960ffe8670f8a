"""Benchmark for miposterior: runs a workload in fresh single-threaded worker
processes and prints its metrics.

    python3 bench/run.py --workload screen_small --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics (for
--workload all, one such object per workload, keyed by name).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("screen_small", "summarize_large", "ansatz_tail", "mc_oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5   # fresh processes whose set-up times give the median
IMPORT_REPEATS = 3  # fresh `python -X importtime` processes
TIME_LIMIT_S = 170  # one workload run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
IMPORT_METRICS = {  # per-layer metric (ms) -> module whose import is timed
    "cli.import_ms": None,  # miposterior.cli with everything it imports
    "cli.import.scipy_integrate_ms": "scipy.integrate",
    "cli.import.scipy_optimize_ms": "scipy.optimize",
    "cli.import.scipy_special_ms": "scipy.special",
}
TRACE_METRICS = {
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _child(argv: list, deadline: float) -> subprocess.CompletedProcess:
    """Run a fresh Python process to completion; fail on error or timeout."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before %s" % argv)
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: %s" % argv) from None
    if proc.returncode != 0:
        raise BenchError("exit %d from %s\n%s" % (proc.returncode, argv,
                                                   proc.stderr))
    return proc


def _worker(args, deadline: float, *extra: str) -> dict:
    proc = _child([str(BENCH / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), *extra], deadline)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(deadline: float) -> dict:
    """Import times of miposterior.cli and of the scipy subpackages it pulls
    in, in ms, from `python -X importtime` (median of fresh processes)."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = _child(["-X", "importtime", "-c", "import miposterior.cli"],
                      deadline)
        total, cumulative = 0.0, {}
        for line in proc.stderr.splitlines():
            fields = line.partition("import time:")[2].split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            us, name = int(fields[1]), fields[2]
            module = name.strip()
            cumulative.setdefault(module, us)
            top_level = len(name) - len(name.lstrip()) == 1
            if top_level and module.split(".")[0] == "miposterior":
                total += us
        if not total:
            raise BenchError("no miposterior import in -X importtime output")
        runs.append({metric: (total if module is None
                              else cumulative.get(module, 0)) / 1e3
                     for metric, module in IMPORT_METRICS.items()})
    return {m: statistics.median(r[m] for r in runs) for m in IMPORT_METRICS}


def run_workload(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    result = _worker(args, deadline)
    if args.trace:
        import tracing

        values = {**result["metrics"], **import_times(deadline)}
        units = {**tracing.METRICS, **dict.fromkeys(IMPORT_METRICS, "ms"),
                 **TRACE_METRICS}
    else:
        setups = [result["metrics"]["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_worker(args, deadline, "--setup-only")["setup_s"])
        values = {**result["metrics"], "setup_s": statistics.median(setups)}
        units = END_TO_END
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _report(name: str, seed: int, result: dict) -> None:
    print("%s (seed %d): %d attempted, %d failed, outputs %s" % (
        name, seed, result["attempted"], result["failed"],
        "correct" if result["correct"] else "WRONG"))
    for metric, m in result["metrics"].items():
        print("  %-32s %14.6g %s" % (metric, m["value"], m["unit"]))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "miposterior" / "__init__.py").is_file():
        sys.stderr.write("bench: no miposterior sources under %s\n" % SRC)
        return 2
    everything = args.workload == "all"
    names = WORKLOADS if everything else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args)
            _report(name, args.seed, results[name])
    except BenchError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    print(json.dumps(results if everything else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
