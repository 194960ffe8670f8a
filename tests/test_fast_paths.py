"""Parity of the fast paths from CountsTable to summarize with the code they
replaced.

_valid_grid, point_stats and mean_exact take a cheaper route on the common
input: one min/max test for a valid grid, an unmasked log-ratio without zero
cells, np.add.reduce for ndarray.sum, a scalar pseudo-count for a named
prior, full-grid products formed in place, and on large tables a vectorized
correctly rounded sum and a half-integer digamma lookup. Their earlier forms
are frozen below. On seeded tables every count, margin, point statistic,
summary field and flag must match them bit for bit, and every bad input must
raise the same error with the same message.
"""

import math
import struct
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.special import digamma

from miposterior import (
    CountsTable,
    NumericPreconditionError,
    PriorSpec,
    ValidationError,
    apply_prior,
    moments,
    special,
    summarize,
)
from miposterior.tables import PosteriorCounts, _read_only

# --------------------------------------------------------------------------
# The replaced code, frozen.


def _valid_grid_ref(a, what="table", entry="entry"):
    a = _read_only(a)
    if a.ndim != 2 or a.size == 0:
        raise ValidationError("%s must be a non-empty 2-d grid" % what)
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a))[0]
        raise ValidationError("non-finite %s at cell (%d, %d)" % ((entry,) + tuple(bad)))
    if np.any(a < 0):
        bad = np.argwhere(a < 0)[0]
        raise ValidationError("negative %s at cell (%d, %d)" % ((entry,) + tuple(bad)))
    return a


def _counts_ref(grid):
    """What CountsTable(grid).counts was, or the error it raised."""
    a = _valid_grid_ref(grid)
    if not np.any(a > 0):
        raise ValidationError("all-zero table: at least one count must be positive")
    return a


def _posterior_counts_ref(a, kind, matrix=None):
    if kind == "haldane":
        return a
    if kind == "custom":
        pseudo = _valid_grid_ref(matrix, "custom prior matrix", "custom prior entry")
    else:
        r, s = a.shape
        per_cell = {"perks": 1.0 / (r * s), "jeffreys": 0.5, "uniform": 1.0}[kind]
        pseudo = np.full((r, s), per_cell)
    with np.errstate(over="ignore"):
        return a + pseudo


def _constant_ref(c):
    """One row or one column holds every positive cell: I is identically 0."""
    return 1 in (np.count_nonzero(c.row_sums), np.count_nonzero(c.col_sums))


def _point_stats_ref(c):
    if _constant_ref(c):
        return moments.PointStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                  np.zeros(c.r), np.zeros(c.s))
    n = c.counts
    pos = n > 0
    rows = np.where(c.row_sums > 0, c.row_sums, 1.0)[:, None]
    cols = np.where(c.col_sums > 0, c.col_sums, 1.0)
    by_row = n / rows
    by_col = n / cols
    w = n / c.total
    lr = np.log(by_row / (cols / c.total), out=np.zeros_like(n), where=pos)
    wl = w * lr
    wll = wl * lr
    finite = moments._finite
    j = finite(float(wl.sum()), "J")
    k = finite(float(wll.sum()), "K")
    l = finite(float((wll * lr).sum()), "L")
    row_j = wl.sum(axis=1)
    col_j = wl.sum(axis=0)
    q = finite(1.0 - float((by_row * by_col).sum()), "Q")
    m = finite(float(((1.0 - by_row - by_col + w) * lr).sum()), "M")
    p = finite(float(c.total * ((row_j**2 / rows[:, 0]).sum()
                                + (col_j**2 / cols).sum())), "P")
    return moments.PointStats(j, k, l, m, p, q, row_j, col_j)


def _mean_exact_ref(c):
    if _constant_ref(c):
        return 0.0
    n = c.counts
    if c.total < moments._SERIES_TOTAL:
        d = moments._psi1p_minus_psi1
        terms = (n / c.total) * (d(n) - d(c.row_sums)[:, None] - d(c.col_sums)
                                 + d(c.total))
        return math.fsum(memoryview(terms.ravel()))
    if c.total >= moments._ASYMPTOTIC_TOTAL:
        d = moments._psi1p_minus_log
        cells, rows, cols = (np.where(a > 0, a, 1.0)
                             for a in (n, c.row_sums, c.col_sums))
        terms = (n / c.total) * (d(cells) - d(rows)[:, None] - d(cols) + d(c.total))
        return moments._finite(c.stats.j + math.fsum(memoryview(terms.ravel())),
                               "the exact mean")
    digamma = special.digamma_ufunc
    psi_margins = digamma(np.concatenate((c.row_sums, c.col_sums)) + 1.0)
    terms = n * (digamma(n + 1.0) - psi_margins[:c.r, None] - psi_margins[c.r:]
                 + digamma(c.total + 1.0))
    return moments._finite(math.fsum(memoryview(terms.ravel())) / c.total,
                           "the exact mean")


# --------------------------------------------------------------------------


def _bits(x):
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return struct.pack("<d", x)
    return x


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised; a warning
    raises too."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return "value", _bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the parity is in the type
        return "error", type(exc), str(exc)


SUMMARY_FIELDS = ("mean_exact", "mean_o2", "var_o1", "var_o2", "central3",
                  "central4", "skewness", "kurtosis", "i_max", "validity_ratio")


def _digest(c, stats, summary):
    return ([_bits(c.counts), _bits(c.row_sums), _bits(c.col_sums),
             _bits(c.total), c.all_positive]
            + [_bits(getattr(stats, f)) for f in "jklmpq"]
            + [_bits(stats.row_j), _bits(stats.col_j)]
            + [_bits(getattr(summary, f)) for f in SUMMARY_FIELDS]
            + [repr(summary.flags)])


def _reference(grid, kind, matrix):
    n = _posterior_counts_ref(_counts_ref(grid), kind, matrix)
    margins = n.sum(axis=1), n.sum(axis=0)
    with mock.patch.multiple(moments, point_stats=_point_stats_ref,
                             mean_exact=_mean_exact_ref):
        c = PosteriorCounts(n)
        s = summarize(c)
    assert _bits(c.row_sums) == _bits(margins[0])
    assert _bits(c.col_sums) == _bits(margins[1])
    assert c.total == float(n.sum()) and c.all_positive == bool(np.all(n > 0))
    return _digest(c, c.stats, s)


def _current(grid, kind, matrix):
    prior = PriorSpec(kind, matrix) if kind == "custom" else PriorSpec(kind)
    c = apply_prior(CountsTable(grid), prior)
    return _digest(c, c.stats, summarize(c))


def _seeded_tables(seed, count):
    """1x1 to 8x8 tables of integer, %.17g fractional or sparse counts,
    with zero cells and empty rows and columns."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        r, s = (int(v) for v in rng.integers(1, 9, size=2))
        if t % 3 == 0:
            counts = rng.integers(0, 40, size=(r, s)).astype(float)
        elif t % 3 == 1:
            scale = 10.0 ** rng.uniform(-3.0, 5.0)
            counts = np.array([[float("%.17g" % v) for v in row]
                               for row in rng.uniform(0.0, 1.0, (r, s)) * scale])
        else:
            counts = rng.poisson(0.8, size=(r, s)).astype(float)
            if rng.random() < 0.5:
                counts[rng.integers(r)] = 0.0
            if rng.random() < 0.5:
                counts[:, rng.integers(s)] = 0.0
        counts[rng.random((r, s)) < 0.2] = 0.0
        if not counts.any():
            counts[rng.integers(r), rng.integers(s)] = 1.0
        matrix = rng.uniform(0.0, 2.0, (r, s)) * (rng.random((r, s)) < 0.7)
        yield counts, matrix


PRIOR_KINDS = ("haldane", "perks", "jeffreys", "uniform", "custom")


class TestFastPathParity:
    @pytest.mark.parametrize("kind", PRIOR_KINDS)
    def test_seeded_tables_bit_for_bit(self, kind):
        for counts, matrix in _seeded_tables(2013, 400):
            want = _outcome(_reference, counts, kind, matrix)
            got = _outcome(_current, counts, kind, matrix)
            assert want[0] == "value", want
            assert got == want, (kind, counts)

    def test_point_stats_and_mean_exact_bit_for_bit(self):
        # The frozen functions on the same posterior, zero cells included.
        for counts, matrix in _seeded_tables(2014, 300):
            for kind in PRIOR_KINDS:
                c = PosteriorCounts(_posterior_counts_ref(counts, kind, matrix))
                want, got = _point_stats_ref(c), moments.point_stats(c)
                for f in "jklmpq":
                    assert _bits(getattr(got, f)) == _bits(getattr(want, f)), f
                assert _bits(got.row_j) == _bits(want.row_j)
                assert _bits(got.col_j) == _bits(want.col_j)
                assert _bits(moments.mean_exact(c)) == _bits(_mean_exact_ref(c))

    @pytest.mark.parametrize("grid", [
        [[math.nan, 1.0], [1.0, 1.0]],
        [[1.0, math.inf], [1.0, 1.0]],
        [[1.0, 1.0], [-math.inf, 1.0]],
        [[1.0, -1.0], [1.0, 1.0]],
        [[-1.0, math.nan], [1.0, 1.0]],   # the non-finite cell is named first
        [[1.0, 2.0], [-0.5, math.inf]],
        [[-0.0, 1.0], [1.0, 1.0]],        # -0.0 is a valid zero
        [[-0.0, -0.0], [-0.0, -0.0]],     # ... and all-zero
        [[0.0, 0.0], [0.0, 0.0]],
        [[5e-324, 0.0]],
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        [1.0, 2.0],
        [[[1.0]]],
    ])
    def test_bad_grids_raise_as_before(self, grid):
        want = _outcome(_counts_ref, grid)
        got = _outcome(lambda g: CountsTable(g).counts, grid)
        assert got == want
        matrix_want = _outcome(_valid_grid_ref, grid, "custom prior matrix",
                               "custom prior entry")
        matrix_got = _outcome(lambda g: PriorSpec("custom", g).matrix, grid)
        assert matrix_got == matrix_want

    @pytest.mark.parametrize("grid, kind, message", [
        ([[1e308, 1e308], [1e308, 1e308]], "haldane", "total overflows"),
        ([[1e308, 1e308], [1e308, 1e308]], "uniform", "total overflows"),
        ([[1e308, 8e307]], "jeffreys", "total overflows"),
        ([[1e-320, 0.0], [0.0, 1e-320]], "haldane", "is subnormal"),
    ])
    def test_extreme_totals_raise_as_before(self, grid, kind, message):
        got = _outcome(_current, grid, kind, None)
        assert got[:2] == ("error", NumericPreconditionError)
        assert message in got[2] and "rescale them" in got[2]

    def test_custom_prior_overflow_raises_as_before(self):
        matrix = np.full((2, 2), 1.7976931348623157e308)
        got = _outcome(_current, [[1e308, 1.0], [1.0, 1.0]], "custom", matrix)
        assert got[:2] == ("error", NumericPreconditionError)
        assert "total overflows" in got[2]


# --------------------------------------------------------------------------
# Large tables: moments._sum against math.fsum, moments._psi_cells against
# digamma(n + 1.0), and point_stats and mean_exact against the frozen code
# on tables of _VECTOR_CELLS cells and more.


def _adversarial_vectors():
    """(name, vector) pairs on which a naive sum loses bits."""
    rng = np.random.default_rng(1401)
    signs = rng.choice([-1.0, 1.0], size=5000)
    yield "exponents 1e-300 to 1e300", signs * 10.0 ** rng.uniform(-300, 300, 5000)
    yield "exponents 2^-800 to 2^800", signs * np.ldexp(
        rng.uniform(1.0, 2.0, 5000), rng.integers(-800, 800, 5000))
    x = rng.normal(size=2500) * 10.0 ** rng.uniform(-20, 20, 2500)
    yield "cancelling pairs", rng.permutation(np.concatenate((x, -x)))
    yield "cancelling pairs and a residue", rng.permutation(
        np.concatenate((x, -x, [1e-30])))
    yield "large and tiny", rng.permutation(
        np.concatenate((signs[:2000] * 1e16, [1.0, -0.5, 2.0**-60] * 100)))
    yield "subnormals", signs[:3000] * 5e-324 * rng.integers(1, 1 << 40, 3000)
    yield "subnormals and normals", rng.permutation(np.concatenate((
        signs[:2000] * 5e-324 * rng.integers(1, 1000, 2000),
        rng.normal(size=1000) * 1e-300)))
    yield "near 2^1000", signs[:2000] * np.ldexp(rng.uniform(1.0, 2.0, 2000), 1000)
    yield "overflowing", np.full(2000, sys.float_info.max)
    yield "inf", np.concatenate((rng.normal(size=2000), [math.inf]))
    yield "inf and -inf", np.concatenate((rng.normal(size=2000), [math.inf, -math.inf]))
    yield "nan", np.concatenate(([math.nan], rng.normal(size=2000)))
    yield "all zeros", np.zeros(3000)
    yield "signed zeros", np.array([0.0, -0.0] * 1500)
    yield "negative zeros", np.full(3000, -0.0)
    yield "one element", np.array([-3.7e-200])
    yield "one zero", np.array([-0.0])
    yield "1,023 normals", rng.normal(size=1023) * 1e5
    yield "1,024 normals", rng.normal(size=1024) * 1e5
    yield "1,025 normals", rng.normal(size=1025) * 1e5
    yield "90,000 mean_exact-like terms", (
        rng.uniform(0.5, 400.0, 90000) * rng.normal(size=90000))
    yield "2-d", rng.normal(size=(40, 60)) * 10.0 ** rng.uniform(-8, 8, (40, 60))


class TestLargeTableParity:
    @pytest.mark.parametrize("gate", [None, 1])
    def test_sum_is_fsum_bit_for_bit(self, gate, monkeypatch):
        # gate 1 runs the extraction on every vector, even the small ones
        if gate is not None:
            monkeypatch.setattr(moments, "_VECTOR_CELLS", gate)
        for name, x in _adversarial_vectors():
            want = _outcome(lambda v: math.fsum(v.ravel().tolist()), x)
            got = _outcome(moments._sum, x.copy())
            assert got == want, name

    def test_sum_takes_the_extraction_from_the_gate_up(self, monkeypatch):
        calls = []

        class Math:  # math, with a record of what fsum is handed
            def __getattr__(self, name):
                return getattr(math, name)

            def fsum(self, xs):
                xs = list(xs)
                calls.append(len(xs))
                return math.fsum(xs)

        monkeypatch.setattr(moments, "math", Math())
        x = np.ones(moments._VECTOR_CELLS)
        assert moments._sum(x[1:].copy()) == x.size - 1.0
        assert moments._sum(x.copy()) == x.size
        assert calls == [x.size - 1, 1]  # every term, then one exact part

    def _psi_calls(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(special, "digamma_ufunc",
                            lambda a: sizes.append(np.size(a)) or digamma(a))
        return sizes

    @pytest.mark.parametrize("offset", [0.0, 0.5, 1.0])
    def test_psi_cells_on_half_integer_grids(self, offset, monkeypatch):
        sizes = self._psi_calls(monkeypatch)
        rng = np.random.default_rng(1402)
        for shape in ((32, 32), (40, 60), (150, 150)):
            n = rng.poisson(20.0, shape) + offset
            n[0, 0] = 0.0
            sizes.clear()
            assert _bits(moments._psi_cells(n)) == _bits(digamma(n + 1.0))
            assert sizes == [int(2 * n.max()) + 1]  # looked up

    @pytest.mark.parametrize("case, looked_up", [
        ("off the half grid", False), ("perks", False), ("below the gate", False),
        ("top above size", False), ("top at size", False), ("top below size", True),
    ])
    def test_psi_cells_elsewhere(self, case, looked_up, monkeypatch):
        sizes = self._psi_calls(monkeypatch)
        n = np.random.default_rng(1403).poisson(3.0, (40, 40)).astype(float)
        if case == "off the half grid":
            n[7, 3] = 3.25
        elif case == "perks":
            n += 1.0 / n.size
        elif case == "below the gate":
            n = n[:31, :33]
        else:  # the top of 2 n at, above or just below n.size
            n[5, 5] = (n.size + {"at": 0, "above": 7, "below": -2}[case.split()[1]]) / 2
        want = digamma(n + 1.0)
        sizes.clear()
        assert _bits(moments._psi_cells(n)) == _bits(want)
        assert sizes == [n.size - 1 if looked_up else n.size]

    @staticmethod
    def _large_tables():
        """40x40 to 150x150 tables: integer counts (some with zero cells, an
        empty row or column, or counts too large for the half-integer
        lookup), fractional counts, and totals below 1e-2 and from 1e7 up."""
        rng = np.random.default_rng(1404)
        for t in range(12):
            r, s = (int(v) for v in rng.integers(40, 151, size=2))
            counts = rng.poisson([0.7, 5.0, 40.0, 3000.0][t % 4], (r, s)).astype(float)
            if t % 3 == 1:
                counts[rng.integers(r)] = 0.0
                counts[:, rng.integers(s)] = 0.0
            yield counts
            if t % 4 == 1:
                yield counts * rng.uniform(0.5, 1.5, (r, s))
            if t % 4 == 2:
                yield counts * 10.0 ** rng.uniform(-12, -7)
            if t % 4 == 3:
                yield counts * 10.0 ** rng.uniform(2, 280)

    @pytest.mark.parametrize("kind", ["haldane", "perks", "jeffreys", "uniform"])
    def test_point_stats_and_mean_exact_bit_for_bit(self, kind):
        totals = []
        for counts in self._large_tables():
            c = PosteriorCounts(_posterior_counts_ref(counts, kind))
            totals.append(c.total)
            want = _outcome(lambda post: _stats_bits(_point_stats_ref(post)), c)
            assert want[0] == "value", want
            got = _outcome(lambda post: _stats_bits(moments.point_stats(post)), c)
            assert got == want
            assert _outcome(moments.mean_exact, c) == _outcome(_mean_exact_ref, c)
        # every mean_exact branch: only Haldane adds no pseudo-count
        assert (min(totals) < moments._SERIES_TOTAL) == (kind == "haldane")
        assert max(totals) >= moments._ASYMPTOTIC_TOTAL


def _stats_bits(st):
    return [_bits(getattr(st, f)) for f in "jklmpq"] + [_bits(st.row_j), _bits(st.col_j)]
