"""Cases for tools/ab.py: the stages of the CLI's ansatz report on the
ansatz_tail deck (seed 1, the 25 tables of bench/ansatz_tables.json under
Jeffreys, each with three --quantile thresholds).

    python3 tools/ab.py PARENT/src src tools/ansatz_stages.py

Each callable runs its stage once over the whole deck, so its time per call
divided by 25 is the cost per report. `build_parser` builds the CLI's
parser once per table; `parse_args` parses each table's flags with one
parser. `_gamma_bases` and `fit_poly_ansatz` start from each table's moments
as the report forms them (the fit falls back to the normal base where the
gamma base has no root, as the report does); `_clean` converts each table's
report as `_build_report` hands it over. `main` is the whole in-process
report, which returns each table's exit code and stdout.
"""

import contextlib
import importlib
import io
import tempfile
from pathlib import Path

from bench.workloads import _ansatz_build

_FILES = tempfile.TemporaryDirectory()  # the deck's CSV files
ARGVS = [case.argv for case in _ansatz_build(1, Path(_FILES.name))]


def make(mp):
    cli = importlib.import_module(mp.__name__ + ".cli")
    parser = cli.build_parser()

    moments = []  # (m1, var, k3, k4), raw moments, support_max
    for argv in ARGVS:
        args = parser.parse_args(argv)
        post = mp.apply_prior(mp.parse_table(Path(args.input).read_text()),
                              mp.PriorSpec(args.prior))
        s = mp.summarize(post)
        var = s.var_o2 if s.var_o2 > 0 else s.var_o1
        m1, m2, m3, m4 = raw = mp.central_to_raw(s.mean_exact, var, s.central3,
                                                 s.central4)
        k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
        k4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        moments.append(((m1, var, k3, k4), raw, s.i_max * 1.05))

    reports = []  # what _build_report passes to _clean, one per table
    clean = cli._clean
    cli._clean = reports.append
    try:
        for argv in ARGVS:
            cli._build_report(parser.parse_args(argv))
    finally:
        cli._clean = clean

    def build_parser():  # a parser has no value equality, so it returns None
        for _ in ARGVS:
            cli.build_parser()

    def fit(raw, hi):
        try:
            return mp.fit_poly_ansatz(*raw, base="gamma", support_max=hi)
        except mp.FitError:
            return mp.fit_poly_ansatz(*raw, base="normal", support_max=hi)

    def report(argv):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            return cli.main(argv), stdout.getvalue()

    return {
        "build_parser": build_parser,
        "parse_args": lambda: [parser.parse_args(argv) for argv in ARGVS],
        "_gamma_bases": lambda: [mp.fit._gamma_bases(*m) for m, _, _ in moments],
        "fit_poly_ansatz": lambda: [fit(raw, hi) for _, raw, hi in moments],
        "_clean": lambda: [cli._clean(r) for r in reports],
        "main": lambda: [report(argv) for argv in ARGVS],
    }
