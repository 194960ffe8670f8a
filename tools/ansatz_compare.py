"""Compare the four-moment fit of two source trees.

    python3 tools/ansatz_compare.py PARENT/src src

1. Reports: the in-process CLI report (exit code, stdout and stderr) of
   every table of the ansatz_tail decks of seeds 1-20 (25 tables with three
   --quantile thresholds each, under Jeffreys), compared byte for byte.
2. Sweep: fit_poly_ansatz with both bases on the moments `--fit ansatz`
   forms from seeded random 2x2 to 6x6 tables (half with cell
   probabilities drawn at random, half near independence) under the four
   named priors and both variance orders, and on synthetic moment sets.
   Every fit whose params, moments, diagnostics or error differ is printed;
   it counts as a confirmed dip when A reported a non-negative density, B a
   negative one, and A's q(t) / z is negative somewhere on a 10^6-interval
   grid over A's checked interval.

The last line is a JSON summary.
"""

import contextlib
import importlib
import io
import json
import math
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.workloads import _ansatz_build  # noqa: E402

load_package = runpy.run_path(str(ROOT / "tools" / "ab.py"))["load_package"]


def reports(mp, tmp: Path) -> list:
    cli = importlib.import_module(mp.__name__ + ".cli")
    out = []
    for seed in range(1, 21):
        for case in _ansatz_build(seed, tmp):
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(case.argv)
            out.append((code, buf.getvalue(), err.getvalue()))
    return out


def moment_sets(mp):
    """(label, raw moments, support_max) of the sweep."""
    rng = np.random.default_rng(1812)
    for k in range(3000):
        r, s = rng.integers(2, 7, size=2)
        if k % 2:
            p = np.outer(rng.dirichlet(5.0 * np.ones(r)), rng.dirichlet(5.0 * np.ones(s)))
        else:
            p = rng.dirichlet(np.ones(r * s))
        n = round(2.0 * 64.0 ** rng.uniform() * r * s)
        rows = rng.multinomial(n, p.ravel()).reshape(r, s)
        for prior in ("haldane", "perks", "jeffreys", "uniform"):
            post = mp.apply_prior(mp.CountsTable(rows.astype(float)), mp.PriorSpec(prior))
            if not post.all_positive:
                continue
            su = mp.summarize(post)
            for order, var in ((1, su.var_o1), (2, su.var_o2)):
                if math.isfinite(var) and var > 0:
                    yield ("%s %s var_o%d" % (rows.tolist(), prior, order),
                           mp.central_to_raw(su.mean_exact, var, su.central3, su.central4),
                           su.i_max * 1.05)
    for _ in range(1000):
        m1 = 0.01 + 0.5 * rng.uniform()
        var = (m1 * rng.uniform(0.05, 1.0)) ** 2
        mu3 = rng.uniform(-1.0, 3.0) * var ** 1.5
        mu4 = (3.0 + rng.uniform(-1.5, 12.0)) * var * var
        raw = mp.central_to_raw(m1, var, mu3, mu4)
        yield "synthetic %r" % (raw,), raw, None


def fit(mp, raw, base, hi):
    try:
        f = mp.fit_poly_ansatz(*raw, base=base, support_max=hi)
    except (mp.FitError, mp.ValidationError) as exc:
        return repr(exc), None
    return (f.params, f.moments_achieved, f.diagnostics), f


def dense_min(f) -> float:
    t = np.linspace(0.0, f.diagnostics["nonnegativity_grid_max"], 10**6 + 1)
    p = f.params
    return float(np.min((1.0 + p["b"] * t + p["c"] * t * t) / p["normalization"]))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    a, b = (load_package(Path(src), alias) for src, alias in zip(args, ("_cmp_a", "_cmp_b")))
    with tempfile.TemporaryDirectory() as tmp:
        ra, rb = reports(a, Path(tmp)), reports(b, Path(tmp))
    fits = changed = confirmed = 0
    for label, raw, hi in moment_sets(a):
        for base in ("gamma", "normal"):
            fits += 1
            (ka, fa), (kb, fb) = fit(a, raw, base, hi), fit(b, raw, base, hi)
            if ka == kb:
                continue
            changed += 1
            dmin = dense_min(fa) if fa is not None else math.nan
            dip = (fa is not None and fb is not None
                   and fa.diagnostics["density_nonnegative"]
                   and not fb.diagnostics["density_nonnegative"] and dmin < 0.0)
            confirmed += dip
            print("%s base=%s: A min q/z %.3g, %s" % (
                label, base, dmin, "confirmed dip" if dip else "NOT A MISSED DIP"))
    print(json.dumps({"reports": len(ra), "reports_identical": ra == rb, "fits": fits,
                      "changed": changed, "confirmed_dips": confirmed}))
    return 0 if ra == rb and confirmed == changed else 1


if __name__ == "__main__":
    sys.exit(main())
