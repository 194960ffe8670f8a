"""Parity of the ansatz report's cheaper paths with the code they replaced.

_gamma_bases moves each rate that np.roots locates to a sign change of the
float resultant with _sign_change, a bracketing Illinois iteration, where it
ran a fixed 60-step bisection; cli._clean converts an array in one pass,
where it made one call per element; cli.main parses with one parser per
process. The replaced code is frozen below.

The iteration may stop at another sign change than the bisection did, since
the float resultant can change sign more than once within a few ulps of a
root; so fits must agree in their number of bases, their chosen root and
its diagnostics, in params and tails to 1e-9 relative, and in achieved
moments to the 1e-8 contract, not bit for bit.
Report stdout must match byte for byte.
"""

import json
import math
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from miposterior import (
    CountsTable,
    FitError,
    PriorSpec,
    apply_prior,
    central_to_raw,
    cli,
    fit,
    summarize,
    survival,
)
from miposterior.fit import _poly_mul, _resultant, _shape_moments

ROOT = Path(__file__).resolve().parent.parent

# --------------------------------------------------------------------------
# The replaced code, frozen.


def _gamma_bases_ref(m1, var, k3, k4):
    def resultant(phi):
        return _resultant(*_shape_moments(phi, m1, var, k3, k4)[1:])

    phi0 = m1 / var
    phi_of_y = np.zeros(13)
    phi_of_y[1] = phi0
    coef = _resultant(*_shape_moments(phi_of_y, m1, var, k3, k4, _poly_mul)[1:], _poly_mul)
    coef = coef[:5:-1]
    ys = np.roots(coef[np.argmax(np.abs(coef) > 1e-12 * np.abs(coef).max()):])
    ys = np.unique(ys.real[(ys.real > 0.0) & (np.abs(ys.imag) <= 1e-6 * np.abs(ys))])
    edges = phi0 * np.concatenate((0.5 * ys[:1], 0.5 * (ys[1:] + ys[:-1]), 2.0 * ys[-1:]))
    out = []
    for y, lo, hi in zip(ys.tolist(), edges[:-1].tolist(), edges[1:].tolist()):
        phi = phi0 * y
        lo_pos = resultant(lo) > 0
        if (resultant(hi) > 0) != lo_pos:
            for _ in range(60):  # the bracket is at most 1.5 phi wide
                mid = 0.5 * (lo + hi)
                if (resultant(mid) > 0) == lo_pos:
                    lo = mid
                else:
                    hi = mid
            phi = 0.5 * (lo + hi)
        e1, c2, c3, c4 = _shape_moments(phi, m1, var, k3, k4)
        den = 9.0 * c2**3 - 2.0 * c2 * c2 - c2 * c4 + 3.0 * c3 * c3
        if den == 0.0:
            continue
        alpha = e1 + c3 * (3.0 * c2 * c2 - c2 + c4) / den - 1.0
        if alpha > 0.0:
            out.append((alpha / phi, alpha / (phi * phi)))
    return out


def _clean_ref(obj):
    if isinstance(obj, dict):
        return {str(k): _clean_ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean_ref(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _clean_ref(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if is_dataclass(obj):
        return _clean_ref({f.name: getattr(obj, f.name) for f in fields(obj)})
    return obj


# --------------------------------------------------------------------------
# The four-moment fits of the benchmark's ansatz tables and a seeded sweep.

PRIORS = ("haldane", "perks", "jeffreys", "uniform")


def _fit_inputs():
    """(raw moments, support_max, thresholds) of each gamma-base fit the
    CLI makes: the 25 ansatz benchmark tables under Jeffreys, then 50 seeded
    2x2 to 6x6 tables under each prior (zero cells skipped under Haldane)."""
    tables = [(np.array(t, dtype=float), "jeffreys")
              for t in json.loads((ROOT / "bench" / "ansatz_tables.json").read_text())]
    rng = np.random.default_rng(1717)
    for _ in range(50):
        r, s = (int(v) for v in rng.integers(2, 7, size=2))
        p = rng.dirichlet(np.ones(r * s))
        n = int(r * s * 5.0 * 32.0 ** rng.uniform())
        counts = rng.multinomial(n, p).reshape(r, s).astype(float)
        tables += [(counts, kind) for kind in PRIORS]
    for counts, kind in tables:
        post = apply_prior(CountsTable(counts), PriorSpec(kind))
        if not post.all_positive:
            continue
        s = summarize(post)
        var = s.var_o2 if s.var_o2 > 0 else s.var_o1
        raw = central_to_raw(s.mean_exact, var, s.central3, s.central4)
        yield raw, s.i_max * 1.05, tuple(raw[0] * f for f in (0.5, 1.0, 2.0))


FITS = list(_fit_inputs())


def _moment_args(raw):
    m1, m2, m3, m4 = raw
    return (m1, m2 - m1 * m1, m3 - 3.0 * m1 * m2 + 2.0 * m1**3,
            m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4)


def _fit_or_error(raw, hi):
    try:
        return fit.fit_poly_ansatz(*raw, base="gamma", support_max=hi)
    except FitError as exc:
        return str(exc)


def _close(a, b, rel=1e-9):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


class TestGammaBases:
    def test_parity_with_the_bisection(self, monkeypatch):
        assert len(FITS) > 200
        moved = 0
        for raw, hi, thresholds in FITS:
            args = _moment_args(raw)
            assert len(fit._gamma_bases(*args)) == len(_gamma_bases_ref(*args))
            got = _fit_or_error(raw, hi)
            with monkeypatch.context() as m:
                m.setattr(fit, "_gamma_bases", _gamma_bases_ref)
                want = _fit_or_error(raw, hi)
            if isinstance(want, str):
                assert isinstance(got, str)
                continue
            for key in ("roots_found", "density_nonnegative", "warnings"):
                assert got.diagnostics[key] == want.diagnostics[key]
            assert got.params["base"] == want.params["base"]
            pairs = [(got.params[k], want.params[k]) for k in
                     ("b", "c", "mu", "sigma2", "normalization", "base_shape",
                      "base_scale")]
            pairs += [(survival(got, t), survival(want, t)) for t in thresholds]
            assert all(_close(a, b) for a, b in pairs), pairs
            # The achieved moments keep the 1e-8 contract; a fourth moment
            # formed with cancellation can move by more than 1e-9.
            assert got.diagnostics["residual"] <= 1e-8
            assert all(_close(a, b, 1e-8) for a, b in
                       zip(got.moments_achieved, want.moments_achieved))
            moved += got != want
        # Most fits keep their bits; the rest stop at another sign change.
        assert moved <= len(FITS) // 4

    def test_each_rate_sits_at_a_sign_change(self, monkeypatch):
        calls, evals = [], [0]

        def spy(f, x, lo, hi):
            def counted(phi):
                evals[0] += 1
                return f(phi)
            phi = real(counted, x, lo, hi)
            calls.append((f, x, lo, hi, phi))
            return phi

        real = fit._sign_change
        monkeypatch.setattr(fit, "_sign_change", spy)
        for raw, _, _ in FITS:
            fit._gamma_bases(*_moment_args(raw))
        assert len(calls) > 400
        unbracketed = 0
        for f, x, lo, hi, phi in calls:
            pos = [f(v) > 0.0 for v in (math.nextafter(phi, 0.0), phi,
                                        math.nextafter(phi, math.inf))]
            if f(phi) == 0.0 or pos[0] != pos[1] or pos[1] != pos[2]:
                continue
            # Only a rate with no sign change across either bracket stays put.
            assert phi == x
            ends = (x * (1.0 - 1e-8), x * (1.0 + 1e-8), lo, hi)
            assert len({f(v) > 0.0 for v in ends}) == 1
            unbracketed += 1
        assert unbracketed <= len(calls) // 10
        # A fixed 60-step bisection takes 62 evaluations per root.
        assert evals[0] / len(calls) <= 10.0

    def test_sign_change_of_a_line(self):
        n = [0]

        def f(x):
            n[0] += 1
            return x - 1.0 / 3.0

        assert fit._sign_change(f, 1.0 / 3.0 * (1 + 3e-10), 0.1, 0.9) == 1.0 / 3.0
        assert n[0] <= 6
        # Off by more than 1e-8: the search falls back to [lo, hi].
        assert fit._sign_change(f, 0.34, 0.1, 0.9) == 1.0 / 3.0
        # No sign change in either bracket: x stays.
        assert fit._sign_change(lambda x: 1.0 + x * x, 0.5, 0.1, 0.9) == 0.5
        # An exact zero stops the search.
        assert fit._sign_change(lambda x: x - 0.5, 0.5 * (1 + 1e-9), 0.1, 0.9) == 0.5

    @pytest.mark.parametrize("f", [lambda x: x**20 - 0.5**20,
                                   lambda x: math.exp(50.0 * x) - math.exp(25.0)],
                             ids=["power", "exp"])
    def test_sign_change_of_a_steep_function(self, f):
        # Plain regula falsi crawls from one end toward the root at 0.5.
        # _sign_change takes 17 evaluations on each; without its bisections
        # 39 and 58, without the Illinois halving 23 and 24.
        n = [0]

        def counted(x):
            n[0] += 1
            return f(x)

        phi = fit._sign_change(counted, 0.9, 0.01, 1.0)
        assert n[0] <= 20
        assert phi == pytest.approx(0.5, rel=1e-15)
        pos = [f(v) > 0.0 for v in (math.nextafter(phi, 0.0), phi, math.nextafter(phi, 1.0))]
        assert f(phi) == 0.0 or pos[0] != pos[1] or pos[1] != pos[2]


# --------------------------------------------------------------------------
# The CLI: one parser per process, and _clean in one pass per array.

@pytest.fixture
def tables(tmp_path):
    dep = tmp_path / "dep.csv"
    dep.write_text("12,3,4\n2,15,5\n3,4,18\n")
    zero = tmp_path / "zero.csv"
    zero.write_text("5,0,1\n1,6,0\n")
    return str(dep), str(zero)


def _argvs(dep, zero):
    return [
        ["--input", dep, "--fit", "ansatz", "--quantile", "0.1", "--quantile", "0.3"],
        ["--input", dep, "--fit", "ansatz"],
        ["--input", zero, "--prior", "haldane", "--fit", "gamma", "--quantile", "0.2"],
        ["--input", dep, "--prior", "perks", "--mc", "1000", "--mc-seed", "3",
         "--quantile", "0.25"],
        ["--input", dep, "--fit", "lognormal", "--format", "text"],
        ["--input", dep, "--quantile", "0.05"],
    ]


def _stdout(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_clean_matches_the_element_wise_pass(capsys, monkeypatch, tables):
    for argv in _argvs(*tables):
        got = _stdout(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_clean", _clean_ref)
            assert _stdout(capsys, argv) == got
    obj = {1.5: np.array([[1.0, np.nan], [-np.inf, 2.5]]), "i": np.arange(3),
           "f32": np.float32(0.1), "t": (np.float64(np.inf), np.int64(4), True),
           "fit": fit.fit_two_moment(0.3, 0.02, "gamma"), "s": "x", "n": None,
           "inf": [0.5, math.inf, {"nan": math.nan, "ok": 2.0}]}
    assert json.dumps(cli._clean(obj)) == json.dumps(_clean_ref(obj))


def test_reused_parser_reports_as_fresh_processes(capsys, tables):
    # --quantile given, then omitted: no appended value may carry over.
    argvs = _argvs(*tables)
    in_process = [_stdout(capsys, argv) for argv in argvs]
    fresh = [subprocess.run([sys.executable, "-m", "miposterior.cli", *argv],
                            capture_output=True, text=True, check=True).stdout
             for argv in argvs]
    assert in_process == fresh
    assert json.loads(in_process[1])["quantiles"] == []
    assert cli.build_parser() is not cli.build_parser()
