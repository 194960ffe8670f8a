"""Property tests over random tables: 1x2 to 8x8, integer and fractional
counts from 0 to 1000, under the four named priors. Subnormal counts are
left out: PosteriorCounts rejects a posterior total below the smallest
normal double (about 2.2e-308) with NumericPreconditionError, which
tests/test_cli.py pins (exit 3, no warning)."""

import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from miposterior import (
    CountsTable,
    DegenerateError,
    NumericPreconditionError,
    PriorSpec,
    apply_prior,
    skew_kurt,
    summarize,
)
from miposterior.cli import main

PRIORS = ("haldane", "perks", "jeffreys", "uniform")
SHAPE_FLAGS = ("constant_variable", "shape_degenerate", "shape_underflow")

cells = st.one_of(st.integers(0, 1000).map(float),
                  st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False,
                            allow_subnormal=False))


@st.composite
def tables(draw):
    r, s = draw(st.sampled_from([(r, s) for r in range(1, 9) for s in range(1, 9)
                                 if r * s >= 2]))
    counts = draw(arrays(float, (r, s), elements=cells))
    assume(np.any(counts > 0))
    return counts


def posterior(counts, prior):
    return apply_prior(CountsTable(counts), PriorSpec(prior))


def summary_or_error(c):
    try:
        return summarize(c), None
    except NumericPreconditionError as exc:
        return None, exc


def close(a, b):
    """Equal up to rounding: the sums run over the cells in another order."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-13


# Derandomized, so that every run of the suite draws the same tables.
SETTINGS = {"deadline": None, "derandomize": True}


@settings(max_examples=150, **SETTINGS)
@given(tables(), st.sampled_from(PRIORS), st.randoms(use_true_random=False))
def test_summarize_invariant_under_permutation_and_transpose(counts, prior, rnd):
    c = posterior(counts, prior)
    s, err = summary_or_error(c)
    rows = rnd.sample(range(counts.shape[0]), counts.shape[0])
    cols = rnd.sample(range(counts.shape[1]), counts.shape[1])
    for other in (counts[rows][:, cols], counts.T):
        d = posterior(np.ascontiguousarray(other), prior)
        t, other_err = summary_or_error(d)
        assert (err is None) == (other_err is None)
        if err is not None:
            continue
        for key in ("mean_exact", "mean_o2", "var_o2", "i_max", "validity_ratio"):
            assert close(getattr(s, key), getattr(t, key)), key
        assert s.flags.keys() == t.flags.keys()
        # On an independent table the plug-in log-ratios are rounding noise,
        # and so is every moment built on K - J^2: compare those above it.
        if min(c.stats.k, d.stats.k) > 1e-16:
            for key in ("var_o1", "central3", "central4", "skewness", "kurtosis"):
                assert close(getattr(s, key), getattr(t, key)), key


@settings(max_examples=200, **SETTINGS)
@given(tables(), st.sampled_from(PRIORS))
def test_mean_exact_within_bounds(counts, prior):
    s, err = summary_or_error(posterior(counts, prior))
    assume(err is None)
    assert 0.0 <= s.mean_exact <= s.i_max + 1e-12


@settings(max_examples=200, **SETTINGS)
@given(tables(), st.sampled_from(PRIORS))
def test_posterior_counts_margins_are_the_sums_of_its_counts(counts, prior):
    c = posterior(counts, prior)
    assert np.array_equal(c.row_sums, c.counts.sum(axis=1))
    assert np.array_equal(c.col_sums, c.counts.sum(axis=0))
    assert c.total == float(c.counts.sum())
    assert c.all_positive == bool(np.all(c.counts > 0))


@settings(max_examples=200, **SETTINGS)
@given(tables(), st.sampled_from(PRIORS))
def test_skew_kurt_reads_summarize(counts, prior):
    c = posterior(counts, prior)
    s, err = summary_or_error(c)
    if err is not None:
        with pytest.raises(NumericPreconditionError) as ei:
            skew_kurt(c)
        assert str(ei.value) == str(err)
        return
    flagged = [key for key in SHAPE_FLAGS if key in s.flags]
    if not flagged:
        sk, ku = skew_kurt(c)
        assert np.array_equal([sk, ku], [s.skewness, s.kurtosis], equal_nan=True)
        return
    (key,) = flagged
    with pytest.raises(DegenerateError) as ei:
        skew_kurt(c)
    want = ("constant variable: I is identically 0" if key == "constant_variable"
            else s.flags[key])
    assert str(ei.value) == want


@settings(max_examples=40, **SETTINGS)
@given(tables(), st.sampled_from(PRIORS),
       st.sampled_from(("gamma", "normal", "lognormal", "ansatz", "none")),
       st.sampled_from(("1", "2", "auto")))
def test_cli_exits_with_a_documented_code(counts, prior, fit, var_order):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(",".join("%.17g" % v for v in row) for row in counts))
        argv = ["--input", path, "--prior", prior, "--fit", fit,
                "--var-order", var_order, "--mc", "200"]
        if fit != "none":
            argv += ["--quantile", "0.1"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
    assert "RuntimeWarning" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
