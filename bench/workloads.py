"""The four benchmark workloads: seeded inputs, the timed operation, and the
checks made on its outputs outside the timed region.

A workload builds a deck (a list of inputs) from the seed. A run replays the
deck in order and in whole passes, so every percentile is taken over the same
mix of inputs. Table shapes, sizes and priors follow fixed schedules; the seed
draws the counts, so the cost of a pass barely moves from seed to seed.

The package is called through module attributes at call time
(``mp.summarize``, ``cli.main``), so the tracer's wrappers see every call.
Reference values come from the benchmark's own numpy and scipy code, never
from the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

import miposterior as mp
import miposterior.cli as cli

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

JEFFREYS = "jeffreys"
HALDANE = "haldane"


# --------------------------------------------------------------------------
# Reference computations, independent of the package.

def _plugin_mi(n: np.ndarray) -> float:
    """Plug-in mutual information of a count matrix (numpy only)."""
    w = n / n.sum()
    outer = np.outer(w.sum(axis=1), w.sum(axis=0))
    pos = w > 0
    return float((w[pos] * np.log(w[pos] / outer[pos])).sum())


def _ref_mean(n: np.ndarray) -> tuple[float, float]:
    """Exact posterior mean of I by a vectorized digamma sum, and the scale
    of its terms (for a cancellation-aware tolerance)."""
    from scipy.special import digamma

    total = n.sum()
    t = n * (digamma(n + 1.0) - digamma(n.sum(axis=1) + 1.0)[:, None]
             - digamma(n.sum(axis=0) + 1.0)[None, :] + digamma(total + 1.0))
    t = t[n > 0]
    return float(t.sum() / total), float(np.abs(t).sum() / total)


def _ref_var_o1(n: np.ndarray) -> tuple[float, float]:
    """Leading-order variance (K - J^2) / (n+1) and the scale K / (n+1)."""
    total = n.sum()
    w = n / total
    pos = n > 0
    lr = np.zeros_like(n)
    lr[pos] = np.log(n[pos] * total
                     / np.outer(n.sum(axis=1), n.sum(axis=0))[pos])
    j = float((w * lr).sum())
    k = float((w * lr * lr).sum())
    return max(0.0, k - j * j) / (total + 1.0), k / (total + 1.0)


def _close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _usable_variance(summary) -> float:
    """Second-order variance when it is finite and positive, else leading
    order: the CLI's ``--var-order auto`` rule."""
    if math.isfinite(summary.var_o2) and summary.var_o2 > 0:
        return summary.var_o2
    return summary.var_o1


def _check_moments(where: str, n: np.ndarray, mean: float, var_o1: float,
                   i_max: float) -> list[str]:
    problems = []
    ref, scale = _ref_mean(n)
    if not _close(mean, ref, 1e-11, scale):
        problems.append("%s: mean_exact %r, reference %r" % (where, mean, ref))
    if not -1e-12 <= mean <= i_max + 1e-12:
        problems.append("%s: mean_exact %r outside [0, %r]" % (where, mean, i_max))
    ref_v, scale_v = _ref_var_o1(n)
    if not _close(var_o1, ref_v, 1e-9, scale_v):
        problems.append("%s: var_o1 %r, reference %r" % (where, var_o1, ref_v))
    return problems


def _check_gamma_fit(where: str, fit, mean: float, var: float,
                     thresholds, tails) -> list[str]:
    problems = []
    shape, scale = fit.params["shape"], fit.params["scale"]
    if not (_close(shape * scale, mean, 1e-12)
            and _close(shape * scale * scale, var, 1e-12)):
        problems.append("%s: gamma fit does not reproduce mean and variance"
                        % where)
    if mp.survival(fit, 0.0) != 1.0:
        problems.append("%s: survival at 0 is not 1" % where)
    order = sorted(range(len(thresholds)), key=lambda i: thresholds[i])
    ordered = [tails[i] for i in order]
    if not all(0.0 <= p <= 1.0 for p in ordered):
        problems.append("%s: survival outside [0, 1]: %r" % (where, ordered))
    if any(b > a for a, b in zip(ordered, ordered[1:])):
        problems.append("%s: survival increases with threshold: %r"
                        % (where, ordered))
    return problems


def _posterior_counts(counts: np.ndarray, prior: str) -> np.ndarray:
    return counts + 0.5 if prior == JEFFREYS else counts


def _dependent_counts(rng, r: int, s: int, n: int) -> np.ndarray:
    """Multinomial counts from a mixture of an independent table and a
    random joint table, so dependence varies from table to table."""
    a = rng.dirichlet(np.full(r, 2.0))
    b = rng.dirichlet(np.full(s, 2.0))
    w = rng.uniform(0.2, 1.0)
    p = (1.0 - w) * np.outer(a, b) + w * rng.dirichlet(np.ones(r * s)).reshape(r, s)
    return rng.multinomial(n, p.ravel() / p.sum()).reshape(r, s).astype(float)


# --------------------------------------------------------------------------
# screen_small: screen every pair of variables of one categorical dataset.

# (variables, rows) per dataset; the prior alternates Jeffreys / Haldane.
SCREEN_DATASETS = (
    (10, 300), (10, 2000), (11, 900), (11, 500), (12, 2500),
    (12, 400), (13, 700), (13, 1500), (14, 350), (14, 3000),
    (15, 1200), (15, 600), (12, 1000), (13, 250), (11, 1800),
)
SCREEN_THRESHOLDS = (0.005, 0.02, 0.08)


@dataclass
class Dataset:
    prior: str
    pairs: list  # (i, j, counts) with counts over the observed categories


def _categorical_dataset(rng, n_vars: int, rows: int) -> list[np.ndarray]:
    """Columns driven by a three-class latent variable, each with its own
    strength of dependence on it; 2 to 8 categories per column."""
    z = rng.choice(3, size=rows, p=rng.dirichlet(np.full(3, 2.0)))
    columns = []
    for v in range(n_vars):
        cats = 2 + v % 7
        strength = rng.uniform(0.0, 1.0)
        cond = ((1.0 - strength) * rng.dirichlet(np.ones(cats))
                + strength * rng.dirichlet(np.full(cats, 0.5), size=3))
        cum = cond.cumsum(axis=1)
        x = (rng.random(rows)[:, None] > cum[z]).sum(axis=1)
        columns.append(np.minimum(x, cats - 1))
    return columns


def _screen_build(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    deck = []
    for k, (n_vars, rows) in enumerate(SCREEN_DATASETS):
        # A caller cross-tabulates the categories it observed.
        coded = [np.unique(x, return_inverse=True)
                 for x in _categorical_dataset(rng, n_vars, rows)]
        pairs = []
        for i, j in combinations(range(n_vars), 2):
            (ui, xi), (uj, xj) = coded[i], coded[j]
            counts = np.bincount(xi * len(uj) + xj, minlength=len(ui) * len(uj))
            pairs.append((i, j, counts.reshape(len(ui), len(uj)).astype(float)))
        deck.append(Dataset(JEFFREYS if k % 2 == 0 else HALDANE, pairs))
    return deck


def _screen_run(ds: Dataset) -> list:
    prior = mp.PriorSpec(ds.prior)
    out = []
    for i, j, counts in ds.pairs:
        post = mp.apply_prior(mp.CountsTable(counts), prior)
        s = mp.summarize(post)
        var = _usable_variance(s)
        if var > 0 and s.mean_exact > 0:
            fit = mp.fit_two_moment(s.mean_exact, var, "gamma")
            tails = tuple(mp.survival(fit, t) for t in SCREEN_THRESHOLDS)
        else:  # reported without a fit
            fit, tails = None, ()
        out.append((s, var, fit, tails))
    return out


def _screen_digest(out) -> str:
    return repr([(s.mean_exact, s.var_o1, s.var_o2, s.central3, s.central4,
                  var, fit.params if fit else None, tails)
                 for s, var, fit, tails in out])


def _screen_check(ds: Dataset, out) -> list[str]:
    problems = []
    for (i, j, counts), (s, var, fit, tails) in zip(ds.pairs, out):
        where = "pair (%d, %d) under %s" % (i, j, ds.prior)
        n = _posterior_counts(counts, ds.prior)
        problems += _check_moments(where, n, s.mean_exact, s.var_o1, s.i_max)
        if fit is not None:
            problems += _check_gamma_fit(where, fit, s.mean_exact, var,
                                         SCREEN_THRESHOLDS, tails)
        elif var > 0 and s.mean_exact > 0:
            problems.append("%s: positive variance but no fit" % where)
    return problems


# --------------------------------------------------------------------------
# summarize_large: parse and summarize one large table.

LARGE_SIDES = tuple(100 + round(200 * k / 14) for k in range(15))


@dataclass
class LargeTable:
    counts: np.ndarray
    text: str
    thresholds: tuple


def _large_build(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    deck = []
    for k, side in enumerate(LARGE_SIDES):
        per_cell = 20.0 + 80.0 * ((7 * k) % 15) / 14.0  # 20..100, not by size
        a = rng.dirichlet(np.full(side, 5.0))
        b = rng.dirichlet(np.full(side, 5.0))
        p = np.outer(a, b) * rng.uniform(0.7, 1.3, size=(side, side))
        counts = rng.poisson(per_cell * side * side * p / p.sum())
        text = "\n".join(",".join(map(str, row)) for row in counts.tolist()) + "\n"
        j = _plugin_mi(counts + 0.5)
        deck.append(LargeTable(counts.astype(float), text,
                               (0.5 * j, j, 2.0 * j)))
    return deck


def _large_run(item: LargeTable):
    table = mp.parse_table(item.text)
    post = mp.apply_prior(table, mp.PriorSpec(JEFFREYS))
    s = mp.summarize(post)
    var = _usable_variance(s)
    fit = mp.fit_two_moment(s.mean_exact, var, "gamma")
    tails = tuple(mp.survival(fit, t) for t in item.thresholds)
    return table, s, var, fit, tails


def _large_digest(out) -> str:
    table, s, var, fit, tails = out
    return repr((hash(table.counts.tobytes()), s.mean_exact, s.var_o1, s.var_o2,
                 s.central3, s.central4, var, fit.params, tails))


def _large_check(item: LargeTable, out) -> list[str]:
    table, s, var, fit, tails = out
    where = "%dx%d table" % item.counts.shape
    problems = []
    if not np.array_equal(table.counts, item.counts):
        problems.append("%s: parsed table differs from its source" % where)
    again = mp.parse_table(mp.serialize_table(table))
    if not np.array_equal(again.counts, table.counts):
        problems.append("%s: parse -> serialize -> parse changed the table"
                        % where)
    problems += _check_moments(where, item.counts + 0.5, s.mean_exact,
                               s.var_o1, s.i_max)
    problems += _check_gamma_fit(where, fit, s.mean_exact, var,
                                 item.thresholds, tails)
    return problems


# --------------------------------------------------------------------------
# ansatz_tail: the CLI's four-moment fit and tail report, in process.

# Drawn once from the mixture in _dependent_counts (2x2 to 6x6, n/(rs) from
# 5 to 160) and frozen, followed by a 4x4 table on which the fit is known to
# fail. The tables do not depend on the seed, so the tables on which
# fit_poly_ansatz raises FitError are the same in every run; the seed draws
# the --quantile thresholds.
ANSATZ_TABLES = BENCH_DIR / "ansatz_tables.json"


@dataclass
class AnsatzCase:
    counts: np.ndarray
    argv: list
    thresholds: tuple


def _ansatz_build(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    deck = []
    for k, rows in enumerate(json.loads(ANSATZ_TABLES.read_text())):
        counts = np.array(rows, dtype=float)
        path = workdir / ("table%02d.csv" % k)
        path.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
        j = _plugin_mi(counts + 0.5)
        thresholds = tuple(j * rng.uniform(lo, hi)
                           for lo, hi in ((0.3, 0.8), (0.9, 1.2), (1.5, 3.0)))
        argv = ["--input", str(path), "--prior", JEFFREYS, "--fit", "ansatz"]
        for t in thresholds:
            argv += ["--quantile", repr(t)]
        deck.append(AnsatzCase(counts, argv, thresholds))
    return deck


def _ansatz_run(case: AnsatzCase):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(case.argv)
    return code, buf.getvalue()


def _raw_moments(mean, var, mu3, mu4):
    """Raw moments from central ones, apart from fit.central_to_raw."""
    return (mean, var + mean * mean, mu3 + 3 * var * mean + mean ** 3,
            mu4 + 4 * mu3 * mean + 6 * var * mean * mean + mean ** 4)


def _ansatz_check(case: AnsatzCase, out) -> list[str]:
    where = "%dx%d ansatz table n=%g" % (case.counts.shape + (case.counts.sum(),))
    code, text = out
    if code != 0:
        return ["%s: exit code %r" % (where, code)]
    report = json.loads(text)
    mom = report["moments"]
    problems = _check_moments(where, case.counts + 0.5, mom["mean_exact"],
                              mom["var_o1"], mom["i_max"])
    raw = _raw_moments(mom["mean_exact"], report["variance_used"],
                       mom["central3"], mom["central4"])
    fit = report["fit"]
    achieved = fit["moments_achieved"]
    if fit["family"] != "poly_ansatz" or not all(
            abs(a / m - 1.0) <= 1e-8 * (1 + 1e-6) for a, m in zip(achieved, raw)):
        problems.append("%s: moments_achieved %r miss raw moments %r"
                        % (where, achieved, raw))
    result = mp.FitResult(fit["family"], fit["params"], tuple(achieved),
                          fit["diagnostics"])
    reported = [(q["threshold"], q["p_exceed"]) for q in report["quantiles"]]
    if [t for t, _ in reported] != list(case.thresholds):
        problems.append("%s: report thresholds %r" % (where, reported))
    for t, p in reported:
        quad = mp.survival_quad(result, t)
        if abs(p - quad) > 1e-7:
            problems.append("%s: closed-form tail %r, quadrature %r at %r"
                            % (where, p, quad, t))
    return problems


# --------------------------------------------------------------------------
# mc_oracle: the Monte Carlo estimate on small tables.

MC_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (3, 5), (4, 5),
             (5, 5), (2, 5), (2, 2), (3, 3), (4, 4), (5, 5), (3, 4))
MC_DRAWS = 3 << 15  # 98304: three whole sampling blocks


@dataclass
class McCase:
    counts: np.ndarray  # posterior (Jeffreys) counts
    post: object
    mc_seed: int
    thresholds: tuple


def _mc_build(seed: int) -> list:
    rng = np.random.default_rng([seed, 4])
    deck = []
    for k, (r, s) in enumerate(MC_SHAPES):
        per_cell = 5.0 * 10.0 ** (((3 * k) % 15) / 14.0)  # 5..50
        counts = _dependent_counts(rng, r, s, round(per_cell * r * s))
        post = mp.apply_prior(mp.CountsTable(counts), mp.PriorSpec(JEFFREYS))
        j = _plugin_mi(counts + 0.5)
        deck.append(McCase(counts + 0.5, post, seed * 100 + k,
                           (0.5 * j, 2.0 * j)))
    return deck


def _mc_run(case: McCase):
    return mp.mc_estimate(case.post, MC_DRAWS, seed=case.mc_seed,
                          thresholds=case.thresholds)


def _mc_digest(est) -> str:
    return repr((est.mean, est.variance, est.skewness, est.kurtosis,
                 est.se_mean, est.se_variance, est.se_skewness,
                 est.se_kurtosis, sorted(est.tail.items()),
                 est.hist_counts.tolist(), est.hist_edges.tolist()))


def _mc_check(case: McCase, est) -> list[str]:
    where = "%dx%d mc table" % case.counts.shape
    problems = []
    ref, _ = _ref_mean(case.counts)
    if not abs(est.mean - ref) <= 5.0 * est.se_mean:
        problems.append("%s: mc mean %r, exact %r, se %r"
                        % (where, est.mean, ref, est.se_mean))
    if int(est.hist_counts.sum()) != MC_DRAWS or est.sample_count != MC_DRAWS:
        problems.append("%s: histogram holds %d of %d draws"
                        % (where, int(est.hist_counts.sum()), MC_DRAWS))
    lo, hi = (est.tail[t] for t in case.thresholds)
    if not 0.0 <= hi <= lo <= 1.0:
        problems.append("%s: tail fractions %r, %r" % (where, lo, hi))
    return problems


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    build: object   # seed, workdir -> deck
    run: object     # deck item -> output (timed)
    digest: object  # output -> str; equal outputs give equal digests
    check: object   # deck item, output -> list of problems
    # An exception counted as a failed operation rather than as wrong output.
    kept_fault: type | None = None


WORKLOADS = {
    "screen_small": Workload(lambda seed, _: _screen_build(seed), _screen_run,
                             _screen_digest, _screen_check),
    "summarize_large": Workload(lambda seed, _: _large_build(seed), _large_run,
                                _large_digest, _large_check),
    "ansatz_tail": Workload(_ansatz_build, _ansatz_run, repr, _ansatz_check,
                            kept_fault=mp.FitError),
    "mc_oracle": Workload(lambda seed, _: _mc_build(seed), _mc_run, _mc_digest,
                          _mc_check),
}


def workdir():
    """A scratch directory inside the benchmark's output directory."""
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR)
