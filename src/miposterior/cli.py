"""Command-line front end: read a table, select prior and outputs, emit a report.

The JSON report is the stable contract: full-precision numbers, no timestamp,
byte-identical across runs for the same flags, input, and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .errors import FitError, NumericPreconditionError, ValidationError
from .fit import (TWO_MOMENT_FAMILIES, central_to_raw, fit_poly_ansatz,
                  fit_two_moment, survival)
from .mc import mc_estimate
from .moments import summarize
from .tables import NAMED_PRIORS, PriorSpec, apply_prior, parse_grid, parse_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="miposterior",
        description="Posterior moments, fitted densities, and tail quantiles "
        "of the mutual information of a contingency table under a Dirichlet prior.",
    )
    p.add_argument("--input", required=True, help="path to the contingency table")
    p.add_argument("--input-format", choices=("csv", "tsv", "json"), default="csv")
    p.add_argument("--prior", choices=NAMED_PRIORS + ("custom",), default="jeffreys")
    p.add_argument("--prior-matrix", default=None,
                   help="path to pseudo-count matrix (required with --prior custom)")
    p.add_argument("--var-order", choices=("1", "2", "auto"), default="auto")
    p.add_argument("--fit", choices=TWO_MOMENT_FAMILIES + ("ansatz", "none"),
                   default="gamma")
    p.add_argument("--quantile", type=float, action="append", default=[],
                   metavar="X", help="report p(I > X); repeatable")
    p.add_argument("--mc", type=int, default=0, metavar="N",
                   help="add a Monte Carlo block with N samples")
    p.add_argument("--mc-seed", type=int, default=0, metavar="S")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return p


# Values that _clean returns as they are; finite floats join them.
_PLAIN = frozenset((str, int, bool, type(None)))


def _clean(obj):
    """Make a report JSON-serializable: dataclasses to dicts, arrays to lists,
    NaN/inf to None. An array is converted in one pass, and the plain values
    of a dict, dataclass or list without a call each."""
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isfinite(obj).all():
            obj = np.where(np.isfinite(obj), obj, None)
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _PLAIN or (type(v) is float and math.isfinite(v))
                else _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN or (type(v) is float and math.isfinite(v))
                else _clean(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if is_dataclass(obj):
        return _clean({f.name: getattr(obj, f.name) for f in fields(obj)})
    return obj


def _read_text(path: str) -> str:
    # utf-8-sig drops the byte-order mark that Excel writes at the start
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text (%s)" % (path, exc)) from None


def _fit(summary, var_used: float, family: str):
    """The fitted density; the ansatz tries the gamma base, then the normal."""
    if family != "ansatz":
        return fit_two_moment(summary.mean_exact, var_used, family)
    raw = central_to_raw(summary.mean_exact, var_used,
                         summary.central3, summary.central4)
    try:
        return fit_poly_ansatz(*raw, base="gamma", support_max=summary.i_max * 1.05)
    except FitError:
        return fit_poly_ansatz(*raw, base="normal", support_max=summary.i_max * 1.05)


def _build_report(args) -> dict:
    table = parse_table(_read_text(args.input), args.input_format)
    if args.prior == "custom":
        if args.prior_matrix is None:
            raise ValidationError("--prior custom requires --prior-matrix")
        prior = PriorSpec("custom", parse_grid(_read_text(args.prior_matrix),
                                               args.input_format))
    else:
        if args.prior_matrix is not None:
            raise ValidationError("--prior-matrix requires --prior custom, not --prior %s"
                                  % args.prior)
        prior = PriorSpec(args.prior)
    post = apply_prior(table, prior)
    summary = summarize(post)

    if args.var_order == "2":
        post.require_all_positive("--var-order 2")
    # var_o2 is NaN on zero cells, so "auto" falls back to order 1 there.
    if args.var_order == "2" or (args.var_order == "auto" and summary.var_o2 > 0):
        var_used, var_order_used = summary.var_o2, 2
    else:
        var_used, var_order_used = summary.var_o1, 1

    fit_result = None
    if args.fit != "none":
        if args.fit == "ansatz":
            post.require_all_positive("--fit ansatz")
        if not var_used > 0:
            raise NumericPreconditionError(
                "fit requires positive variance; the table has one row or one "
                "column, so I is identically 0"
                if "constant_variable" in summary.flags else
                "fit requires positive variance; zero leading-order "
                "variance (the log-ratio is constant on the table's support)"
                if var_order_used == 1 else
                "fit requires positive variance; the second-order variance "
                "is %r" % var_used
            )
        try:
            fit_result = _fit(summary, var_used, args.fit)
        except ValidationError as exc:
            # The fit's inputs come from the summary, not from the user.
            raise NumericPreconditionError(str(exc)) from None

    quantiles = []
    if args.quantile:
        if fit_result is None:
            raise ValidationError("--quantile requires a fitted density (--fit != none)")
        for t in args.quantile:
            if t == math.inf:
                raise ValidationError("--quantile must be finite, got inf")
            quantiles.append({"threshold": t, "p_exceed": survival(fit_result, t)})

    mc_block = (mc_estimate(post, args.mc, seed=args.mc_seed,
                            thresholds=tuple(args.quantile)) if args.mc else None)

    return _clean({
        "tool": "miposterior",
        "version": __version__,
        "input": {
            "table": table.counts,
            "prior": args.prior,
            "prior_matrix": prior.matrix if prior.kind == "custom" else None,
            "r": table.r,
            "s": table.s,
            "posterior_counts": post.counts,
            "n": post.total,
            "all_positive": post.all_positive,
        },
        "point_stats": post.stats,
        "moments": summary,
        "var_order_used": var_order_used,
        "variance_used": var_used,
        "fit": fit_result,
        "quantiles": quantiles,
        "mc": mc_block,
        "seed": args.mc_seed,
    })


def _print_text(report: dict, out) -> None:
    mom = report["moments"]
    out.write("table: %d x %d, n = %r, prior = %s\n" % (
        report["input"]["r"], report["input"]["s"],
        report["input"]["n"], report["input"]["prior"]))
    for key in ("mean_exact", "mean_o2", "var_o1", "var_o2", "central3",
                "central4", "skewness", "kurtosis", "i_max", "validity_ratio"):
        out.write("%-15s %r\n" % (key, mom[key]))
    if mom["flags"]:
        out.write("flags: %s\n" % json.dumps(mom["flags"]))
    if report["fit"]:
        out.write("fit (%s): %s\n" % (report["fit"]["family"],
                                      json.dumps(report["fit"]["params"])))
    for q in report["quantiles"]:
        out.write("p(I > %r) = %r\n" % (q["threshold"], q["p_exceed"]))
    if report["mc"]:
        mc = report["mc"]
        out.write("mc: N = %d, mean = %r (se %r), var = %r (se %r)\n" % (
            mc["sample_count"], mc["mean"], mc["se_mean"],
            mc["variance"], mc["se_variance"]))


# main's parser: built on the first call, then reused. Parsing leaves it
# unchanged (append actions copy their default list).
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        report = _build_report(args)
    except (NumericPreconditionError, FitError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PRECONDITION
    except (ValidationError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_VALIDATION
    if args.format == "json":
        sys.stdout.write(json.dumps(report, allow_nan=False) + "\n")
    else:
        _print_text(report, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
