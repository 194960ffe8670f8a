import math

import numpy as np
import pytest

from miposterior import (
    CountsTable,
    DegenerateError,
    NumericPreconditionError,
    PriorSpec,
    ValidationError,
    ZeroCellError,
    apply_prior,
    central3,
    central4,
    dirichlet_covariance,
    i_max,
    mean_exact,
    mean_o2,
    mean_var_from_cov,
    point_mi,
    point_stats,
    psi,
    skew_kurt,
    summarize,
    var_o1,
    var_o2,
)


def posterior(mat, prior="haldane"):
    return apply_prior(CountsTable(np.array(mat, dtype=float)), PriorSpec(prior))


# hand values for the 2x2 table [[2,1],[1,2]] (and its probability version):
# cells with weight 2/3 have log-ratio log(4/3), weight 1/3 have log(2/3)
J_212 = (2.0 / 3.0) * math.log(4.0 / 3.0) + (1.0 / 3.0) * math.log(2.0 / 3.0)
K_212 = (2.0 / 3.0) * math.log(4.0 / 3.0) ** 2 + (1.0 / 3.0) * math.log(2.0 / 3.0) ** 2
L_212 = (2.0 / 3.0) * math.log(4.0 / 3.0) ** 3 + (1.0 / 3.0) * math.log(2.0 / 3.0) ** 3


class TestPointMi:
    def test_uniform_is_zero(self):
        assert point_mi(np.full((2, 2), 0.25)) == 0.0

    def test_diagonal_is_log2(self):
        assert point_mi(np.array([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_hand_value(self):
        q = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        assert point_mi(q) == pytest.approx(J_212, abs=1e-15)
        assert point_mi(q) == pytest.approx(0.05663301226, abs=1e-11)

    def test_errors(self):
        with pytest.raises(ValidationError):
            point_mi(np.array([[0.5, -0.1], [0.3, 0.3]]))
        with pytest.raises(ValidationError):
            point_mi(np.array([[0.5, 0.4], [0.3, 0.3]]))

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = rng.uniform(0, 1, size=(3, 4))
            q /= q.sum()
            v = point_mi(q)
            assert 0.0 <= v <= min(math.log(3), math.log(4)) + 1e-12


class TestPointStats:
    def test_uniform_all_zero(self):
        for c in (0.5, 1.0, 3.0):
            st = point_stats(posterior([[c, c], [c, c]]))
            assert st.j == st.k == st.l == st.m == st.q == st.p == 0.0
            assert np.all(st.row_j == 0) and np.all(st.col_j == 0)

    def test_hand_values(self):
        st = point_stats(posterior([[2, 1], [1, 2]]))
        assert st.j == pytest.approx(J_212, abs=1e-15)
        assert st.j == pytest.approx(0.05663301226, abs=1e-11)
        assert st.k == pytest.approx(K_212, abs=1e-15)
        assert st.q == pytest.approx(-1.0 / 9.0, abs=1e-15)

    def test_row_col_sums_equal_j(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            st = point_stats(posterior(rng.uniform(0.1, 9.0, size=(3, 5))))
            tol = 1e-12 * max(1.0, abs(st.j))
            assert abs(st.row_j.sum() - st.j) <= tol
            assert abs(st.col_j.sum() - st.j) <= tol
            assert st.k - st.j**2 >= 0
            assert st.q <= 1.0

    def test_zero_cells_flag_m_p(self):
        st = point_stats(posterior([[5, 0], [0, 5]]))
        assert math.isnan(st.m) and math.isnan(st.p)
        assert math.isfinite(st.j) and math.isfinite(st.k)
        assert math.isfinite(st.q)


class TestMeanExact:
    def test_all_ones_is_one_twelfth(self):
        assert mean_exact(posterior([[1, 1], [1, 1]])) == pytest.approx(
            1.0 / 12.0, abs=1e-12)

    def test_single_row(self):
        assert mean_exact(posterior([[3, 1, 4, 1, 5]])) == 0.0

    def test_approaches_point_estimate(self):
        j = point_stats(posterior([[8, 2], [2, 8]])).j
        assert j == pytest.approx(0.8 * math.log(1.6) + 0.2 * math.log(0.4),
                                  abs=1e-15)
        gaps = [abs(mean_exact(posterior([[8.0 * f, 2.0 * f], [2.0 * f, 8.0 * f]])) - j)
                for f in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            c = posterior(rng.uniform(0.1, 9.0, size=(2, 3)))
            assert 0.0 <= mean_exact(c) <= i_max(c)

    def test_strictly_positive_even_under_independence(self):
        for n in (4, 16, 64):
            assert mean_exact(posterior([[n / 4.0] * 2] * 2)) > 0

    def test_tiny_total_matches_mpmath(self):
        # digamma(x + 1) rounds to psi(1) below x of about 1e-16, which read
        # this mean as exactly 0; the series for psi(1 + x) - psi(1) keeps it.
        mpmath = pytest.importorskip("mpmath")
        c = posterior([[1e-20, 3e-20], [2e-20, 1e-20]])
        with mpmath.workdps(80):
            psi1 = [mpmath.digamma(mpmath.mpf(float(v)) + 1)
                    for v in (*c.row_sums, *c.col_sums, c.total)]
            exact = mpmath.fsum(
                nij * (mpmath.digamma(mpmath.mpf(float(nij)) + 1)
                       - psi1[i] - psi1[2 + j] + psi1[-1])
                for (i, j), nij in np.ndenumerate(c.counts)) / c.total
        assert mean_exact(c) == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_series_for_psi_one_plus_x(self):
        from miposterior.moments import _SERIES_TOTAL, _psi1p_minus_psi1

        mpmath = pytest.importorskip("mpmath")
        for x in (0.0, 1e-300, 1e-20, 3.7e-9, 1e-4, 2.5e-3, _SERIES_TOTAL):
            with mpmath.workdps(400):
                want = mpmath.digamma(1 + mpmath.mpf(x)) - mpmath.digamma(1)
            assert _psi1p_minus_psi1(x) == pytest.approx(float(want), rel=1e-15, abs=0.0)
        xs = np.array([1e-30, 1e-3])
        assert np.array_equal(_psi1p_minus_psi1(xs),
                              [_psi1p_minus_psi1(float(x)) for x in xs])

    def test_continuous_across_the_series_switch(self):
        from miposterior.moments import _SERIES_TOTAL

        base = np.array([[1.0, 3.0], [2.0, 1.0]]) / 7.0
        below = mean_exact(posterior(base * _SERIES_TOTAL * (1 - 1e-9)))
        above = mean_exact(posterior(base * _SERIES_TOTAL * (1 + 1e-9)))
        assert below == pytest.approx(above, rel=1e-8, abs=0.0)


class TestExpansions:
    def test_mean_o2_all_ones(self):
        assert mean_o2(posterior([[1, 1], [1, 1]])) == pytest.approx(0.1, abs=1e-15)

    def test_mean_o2_single_row(self):
        assert mean_o2(posterior([[2, 3, 4]])) == 0.0

    def test_mean_o2_hand_value(self):
        assert mean_o2(posterior([[2, 1], [1, 2]])) == pytest.approx(
            J_212 + 1.0 / 14.0, abs=1e-15)
        assert mean_o2(posterior([[2, 1], [1, 2]])) == pytest.approx(
            0.12806158369, abs=1e-11)

    def test_var_o1(self):
        assert var_o1(posterior([[3, 3], [3, 3]])) == 0.0
        assert var_o1(posterior([[1, 2, 3]])) == 0.0
        assert var_o1(posterior([[2, 1], [1, 2]])) == pytest.approx(
            (K_212 - J_212**2) / 7.0, abs=1e-15)

    def test_var_o2_all_ones(self):
        assert var_o2(posterior([[1, 1], [1, 1]])) == pytest.approx(
            1.0 / 60.0, abs=1e-15)

    def test_var_o2_zero_cell_error(self):
        with pytest.raises(ZeroCellError) as ei:
            var_o2(posterior([[5, 0], [0, 5]]))
        assert (0, 1) in ei.value.cells and (1, 0) in ei.value.cells

    def test_var_o2_uniform_general(self):
        for r, s in ((2, 2), (3, 3), (2, 4)):
            c = posterior(np.ones((r, s)))
            expected = ((r - 1) * (s - 1) / 2.0) / ((r * s + 1) * (r * s + 2))
            assert var_o2(c) == pytest.approx(expected, rel=1e-12)

    def test_central3_uniform(self):
        assert central3(posterior([[2, 2], [2, 2]])) == 0.0

    def test_central3_hand_value(self):
        c = posterior([[2, 1], [1, 2]])
        st = point_stats(c)
        expected = (2.0 / 36.0) * (2 * J_212**3 - 3 * K_212 * J_212 + L_212) \
            + (3.0 / 36.0) * (K_212 + J_212**2 - st.p)
        assert central3(c) == pytest.approx(expected, rel=1e-12)

    def test_central3_scaling(self):
        vals = [abs(central3(posterior([[8.0 * f, 2.0 * f], [2.0 * f, 8.0 * f]])))
                for f in (4, 8, 16, 32)]
        for a, b in zip(vals, vals[1:]):
            assert 3.0 < a / b < 5.5  # ~f^-2 decay of the n^-2 prefactor

    def test_central4(self):
        assert central4(posterior([[1, 1], [1, 1]])) == 0.0
        c = posterior([[2, 1], [1, 2]])
        assert central4(c) == pytest.approx(3.0 * (K_212 - J_212**2) ** 2 / 36.0,
                                            rel=1e-13)
        # algebraic identity with var_o1
        n = 6.0
        assert central4(c) == pytest.approx(
            3.0 * (n + 1) ** 2 / n**2 * var_o1(c) ** 2, rel=1e-12)

    def test_skew_kurt_limits(self):
        kurt_gaps = []
        skews = []
        for f in (4, 8, 16, 32):
            sk, ku = skew_kurt(posterior([[8.0 * f, 2.0 * f], [2.0 * f, 8.0 * f]]))
            kurt_gaps.append(abs(ku - 3.0))
            skews.append(abs(sk))
        for a, b in zip(kurt_gaps, kurt_gaps[1:]):
            assert 1.4 < a / b < 2.8  # kurtosis approaches 3 like 1/n
        for a, b in zip(skews, skews[1:]):
            assert 1.2 < a / b < 1.75  # skewness decays like n^-1/2

    def test_skew_kurt_degenerate(self):
        with pytest.raises(DegenerateError):
            skew_kurt(posterior([[5, 5], [5, 5]]))
        with pytest.raises(DegenerateError):
            skew_kurt(posterior([[1, 2, 3]]))
        # perfectly dependent: the log-ratio is log 2 on every positive cell
        with pytest.raises(DegenerateError, match="log-ratio is constant") as ei:
            skew_kurt(posterior([[5, 0], [0, 5]]))
        assert "independence" not in str(ei.value)


class TestCovariancePath:
    def test_all_ones_covariance(self):
        cov = dirichlet_covariance(posterior([[1, 1], [1, 1]]))
        for i in range(2):
            for j in range(2):
                assert cov[i, j, i, j] == pytest.approx(3.0 / 80.0, abs=1e-15)
        assert cov[0, 0, 0, 1] == pytest.approx(-1.0 / 80.0, abs=1e-15)

    def test_rows_sum_to_zero_and_diagonal(self):
        rng = np.random.default_rng(17)
        c = posterior(rng.uniform(0.5, 9.0, size=(3, 4)))
        cov = dirichlet_covariance(c)
        assert np.allclose(cov.sum(axis=(2, 3)), 0.0, atol=1e-15)
        assert np.allclose(cov, np.transpose(cov, (2, 3, 0, 1)))
        q = c.counts / c.total
        for i in range(3):
            for j in range(4):
                p = q[i, j]
                assert cov[i, j, i, j] == pytest.approx(
                    p * (1 - p) / (c.total + 1.0), rel=1e-13)

    def test_zero_cov_degenerates_to_point_estimate(self):
        q = np.array([[0.3, 0.2], [0.1, 0.4]])
        m, v = mean_var_from_cov(q, np.zeros((2, 2, 2, 2)))
        assert m == pytest.approx(point_mi(q), abs=1e-15)
        assert v == 0.0

    def test_all_ones_end_to_end(self):
        c = posterior([[1, 1], [1, 1]])
        m, v = mean_var_from_cov(c.counts / c.total, dirichlet_covariance(c))
        assert m == pytest.approx(0.1, abs=1e-14)
        assert v == pytest.approx(0.0, abs=1e-16)

    def test_keystone_equivalence(self):
        # generic covariance path reproduces the Dirichlet closed forms
        rng = np.random.default_rng(7)
        for _ in range(100):
            r, s = rng.integers(2, 6), rng.integers(2, 6)
            c = posterior(rng.uniform(0.2, 20.0, size=(r, s)))
            m, v = mean_var_from_cov(c.counts / c.total, dirichlet_covariance(c))
            assert m == pytest.approx(mean_o2(c), rel=1e-12)
            assert v == pytest.approx(var_o1(c), rel=1e-12, abs=1e-25)

    def test_zero_probability_rejected(self):
        q = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            mean_var_from_cov(q, np.zeros((2, 2, 2, 2)))


class TestSummarize:
    def test_all_ones(self):
        s = summarize(posterior([[1, 1], [1, 1]]))
        assert s.mean_exact == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert s.mean_o2 == pytest.approx(0.1)
        assert s.var_o1 == 0.0
        assert s.var_o2 == pytest.approx(1.0 / 60.0)
        assert math.isnan(s.skewness) and math.isnan(s.kurtosis)
        assert "shape_degenerate" in s.flags

    def test_single_row(self):
        s = summarize(posterior([[1, 2, 3, 4, 5]]))
        assert s.mean_exact == s.var_o1 == s.var_o2 == 0.0
        assert s.i_max == 0.0
        assert s.flags.get("constant_variable")

    def test_dependent_table(self):
        s = summarize(posterior([[8, 2], [2, 8]]))
        assert s.validity_ratio == pytest.approx(0.2)
        for v in (s.mean_exact, s.mean_o2, s.var_o1, s.var_o2, s.central3,
                  s.central4, s.skewness, s.kurtosis):
            assert math.isfinite(v)

    def test_zero_cells_flagged(self):
        s = summarize(posterior([[5, 0], [0, 5]]))
        assert math.isnan(s.var_o2) and math.isnan(s.central3)
        assert s.flags["zero_cells"] == [(0, 1), (1, 0)]
        assert math.isfinite(s.mean_exact) and math.isfinite(s.var_o1)

    def test_shape_underflow_flagged(self):
        # var_o1 is about 2e-172, so the fourth central moment underflows.
        s = summarize(posterior([[3e170, 1e170], [1e170, 2e170]]))
        assert s.var_o1 > 0 and s.central4 == 0.0
        assert math.isnan(s.skewness) and math.isnan(s.kurtosis)
        assert "underflow" in s.flags["shape_underflow"]
        assert "shape_degenerate" not in s.flags


class TestInvariants:
    def test_permutation_and_transposition(self):
        rng = np.random.default_rng(23)
        ops = (mean_exact, mean_o2, var_o1, var_o2, central3, central4)
        for _ in range(50):
            r, s = rng.integers(2, 6), rng.integers(2, 6)
            counts = rng.uniform(0.2, 20.0, size=(r, s))
            c = posterior(counts)
            cp = posterior(counts[np.ix_(rng.permutation(r), rng.permutation(s))])
            ct = posterior(counts.T)
            for op in ops:
                ref = op(c)
                assert op(cp) == pytest.approx(ref, rel=1e-12, abs=1e-18)
                assert op(ct) == pytest.approx(ref, rel=1e-12, abs=1e-18)

    def test_expansion_gap_shrinks_second_order(self):
        gaps = [abs(mean_o2(posterior([[8.0 * f, 2.0 * f], [2.0 * f, 8.0 * f]]))
                    - mean_exact(posterior([[8.0 * f, 2.0 * f], [2.0 * f, 8.0 * f]])))
                for f in (1, 2, 4, 8, 16)]
        for a, b in zip(gaps, gaps[1:]):
            assert 3.0 <= a / b <= 5.5

    def test_independence_signal(self):
        # under independence the mean and the standard deviation are the same
        # order, so mean/sigma stays O(1)
        for cval in (2, 4, 8, 32, 128):
            c = posterior([[float(cval)] * 2] * 2)
            ratio = mean_exact(c) / math.sqrt(var_o2(c))
            assert 0.1 <= ratio <= 10.0

    def test_xlogx_limit(self):
        base = np.array([[5.0, 0.0], [0.0, 5.0]])
        st = point_stats(posterior(base))
        l_gaps = []
        for eps in (1e-8, 1e-10):
            ste = point_stats(posterior(np.where(base == 0, eps, base)))
            assert ste.j == pytest.approx(st.j, abs=1e-6)
            assert ste.k == pytest.approx(st.k, abs=1e-6)
            l_gaps.append(abs(ste.l - st.l))
        # the cubic term converges like eps log^3(eps): slower than J and K
        assert l_gaps[1] < l_gaps[0]
        assert l_gaps[1] <= 1e-6

    def test_nonnegativity(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            c = posterior(rng.uniform(0.1, 9.0, size=(3, 3)))
            st = point_stats(c)
            assert var_o1(c) >= 0
            assert central4(c) >= 0
            assert st.k - st.j**2 >= 0


# The scalar formulas that the vectorized kernel replaced: one special.psi
# call per cell and marginal summed with math.fsum, and the point statistics
# recomputed for every quantity from log(n_ij n / (n_i+ n_+j)).
def _old_point_stats(n):
    total = n.sum()
    rows, cols = n.sum(axis=1), n.sum(axis=0)
    outer = np.outer(rows, cols)
    pos = n > 0
    lr = np.zeros_like(n)
    lr[pos] = np.log(n[pos] * total / outer[pos])
    wl = n / total * lr
    st = {"j": float(wl.sum()), "k": float((wl * lr).sum()),
          "l": float((wl * lr * lr).sum())}
    if np.all(pos):
        row_j, col_j = wl.sum(axis=1), wl.sum(axis=0)
        inv = 1.0 / n - (1.0 / rows)[:, None] - (1.0 / cols)[None, :] + 1.0 / total
        st["m"] = float((inv * n * lr).sum())
        st["p"] = float(total * ((row_j**2 / rows).sum() + (col_j**2 / cols).sum()))
        st["q"] = 1.0 - float((n * n / outer).sum())
    return st


def _old_mean_exact(n):
    rows, cols = n.sum(axis=1), n.sum(axis=0)
    psi_total = psi(n.sum() + 1.0)
    terms = [n[i, j] * (psi(n[i, j] + 1.0) - psi(rows[i] + 1.0)
                        - psi(cols[j] + 1.0) + psi_total)
             for i in range(n.shape[0]) for j in range(n.shape[1]) if n[i, j] > 0]
    return math.fsum(terms) / n.sum(), math.fsum(abs(t) for t in terms) / n.sum()


def _old_summary(n):
    r, s = n.shape
    total = float(n.sum())

    def st():  # one point-statistics pass per quantity, as before
        return _old_point_stats(n)

    out = {"mean_o2": st()["j"] + (r - 1) * (s - 1) / (2.0 * (total + 1.0)),
           "var_o1": max(0.0, st()["k"] - st()["j"] ** 2) / (total + 1.0),
           "central4": 3.0 * max(0.0, st()["k"] - st()["j"] ** 2) ** 2 / total**2}
    if np.all(n > 0):
        a = st()
        out["var_o2"] = out["var_o1"] + (
            a["m"] + (r - 1) * (s - 1) * (0.5 - a["j"]) - a["q"]
        ) / ((total + 1.0) * (total + 2.0))
        out["central3"] = (2.0 / total**2) * (
            2.0 * a["j"] ** 3 - 3.0 * a["k"] * a["j"] + a["l"]
        ) + (3.0 / total**2) * (a["k"] + a["j"] ** 2 - a["p"])
    if out["var_o1"] > 0:
        var = out["var_o1"]
        if out.get("var_o2", 0.0) > 0:
            var = out["var_o2"]
        out["skewness"] = out.get("central3", math.nan) / var**1.5
        out["kurtosis"] = out["central4"] / var**2
    return out


class TestKernelRegression:
    def test_matches_scalar_formulas(self):
        rng = np.random.default_rng(2001)
        for trial in range(120):
            r, s = rng.integers(2, 21, size=2)
            counts = rng.poisson(10.0 ** rng.uniform(-0.5, 2.5), size=(r, s))
            counts = counts.astype(float)
            counts[0, 0] += 1.0  # some table entry must be positive
            c = posterior(counts, ("haldane", "jeffreys")[trial % 2])
            got = summarize(c)
            for key, want in _old_summary(c.counts).items():
                assert getattr(got, key) == pytest.approx(
                    want, rel=1e-12, abs=1e-300, nan_ok=True), key
            # The digamma sum cancels on near-independent tables, so the
            # bound is relative to the sum of its absolute terms.
            want, scale = _old_mean_exact(c.counts)
            assert abs(got.mean_exact - want) <= 1e-12 * scale

    def test_mean_exact_against_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2002)
        with mpmath.workdps(40):
            for trial in range(60):
                r, s = rng.integers(2, 9, size=2)
                counts = rng.poisson(10.0 ** rng.uniform(0.5, 2.5), size=(r, s))
                c = posterior(counts + 1.0, ("haldane", "jeffreys")[trial % 2])
                psi1 = [mpmath.digamma(mpmath.mpf(float(v)) + 1)
                        for v in (*c.row_sums, *c.col_sums, c.total)]
                exact = mpmath.fsum(
                    nij * (mpmath.digamma(mpmath.mpf(float(nij)) + 1)
                           - psi1[i] - psi1[r + j] + psi1[-1])
                    for (i, j), nij in np.ndenumerate(c.counts)) / c.total
                assert mean_exact(c) == pytest.approx(float(exact), rel=1e-12)


class TestCachedPointStats:
    def test_skew_kurt_raises_on_shape_underflow(self):
        # var_o1 is about 2e-172, so the fourth central moment underflows to
        # 0 and the shape ratios would read a spurious 0.
        c = posterior([[3e170, 1e170], [1e170, 2e170]])
        with pytest.raises(DegenerateError, match="underflow") as ei:
            skew_kurt(c)
        assert summarize(c).flags["shape_underflow"] == str(ei.value)

    def test_one_point_stats_pass_per_posterior(self, monkeypatch):
        from miposterior import moments

        original = moments.point_stats
        calls = []

        def counted(c):
            calls.append(c)
            return original(c)

        monkeypatch.setattr(moments, "point_stats", counted)
        c = posterior([[8, 2, 1], [2, 8, 3]], "jeffreys")
        s = summarize(c)
        assert (mean_o2(c), var_o1(c), var_o2(c), central3(c), central4(c),
                skew_kurt(c)) == (s.mean_o2, s.var_o1, s.var_o2, s.central3,
                                  s.central4, (s.skewness, s.kurtosis))
        assert len(calls) == 1
        assert c.stats is c.stats

    def test_constant_variable_with_zero_cells(self):
        # I is identically 0 on a 1xN table, zero cells or not.
        c = posterior([[1, 0, 3]])
        assert (mean_o2(c), var_o1(c), var_o2(c), central3(c), central4(c)) == (
            0.0, 0.0, 0.0, 0.0, 0.0)


class TestShapeRegime:
    # An exactly independent 3x3 table (an outer product): its plug-in
    # log-ratios are rounding noise, which read var_o1 9.9e-51 in one row
    # order and 0.0 in another.
    INDEPENDENT = np.array([
        [28.241885084859895, 107.70630116875563, 167.09048425046842],
        [64.81540397383893, 247.1870202645677, 383.474304365197],
        [10.228735988827058, 39.00941157709416, 60.51736435113342]])

    @pytest.mark.parametrize("rows", [(0, 1, 2), (0, 2, 1), (2, 1, 0)])
    def test_independent_table_is_shape_degenerate_in_every_row_order(self, rows):
        for counts in (self.INDEPENDENT[list(rows)], self.INDEPENDENT[list(rows)].T):
            s = summarize(posterior(np.ascontiguousarray(counts)))
            assert s.var_o1 == 0.0 and s.central4 == 0.0
            assert "shape_degenerate" in s.flags
            assert math.isnan(s.skewness) and math.isnan(s.kurtosis)

    def test_constant_log_ratio_is_shape_degenerate(self):
        # Two diagonal blocks of equal total, each an outer product: the
        # log-ratio is log 2 on the whole support, so K = J^2 exactly.
        counts = np.zeros((4, 5))
        counts[:2, :3] = 7.3 * np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        counts[2:, 3:] = 7.3 * np.outer([0.6, 0.4], [0.1, 0.9])
        for order in ((0, 1, 2, 3), (3, 1, 2, 0), (2, 0, 3, 1)):
            s = summarize(posterior(counts[list(order)]))
            assert s.var_o1 == 0.0 and "shape_degenerate" in s.flags

    def test_small_but_resolved_spread_keeps_its_variance(self):
        # log-ratios spread by about 1e-6 are far above rounding
        s = summarize(posterior([[1.0, 1.0 + 1e-6], [1.0, 1.0]]))
        assert s.var_o1 > 0 and "shape_degenerate" not in s.flags

    def test_tiny_counts_raise_what_summarize_raises(self):
        # n = 4e-170: the third central moment overflows, so summarize raises
        # NumericPreconditionError, and skew_kurt raises the same error rather
        # than calling the shape degenerate.
        c = posterior(np.full((2, 2), 1e-170))
        with pytest.raises(NumericPreconditionError) as want:
            summarize(c)
        with pytest.raises(NumericPreconditionError) as got:
            skew_kurt(c)
        assert not isinstance(got.value, DegenerateError)
        assert str(got.value) == str(want.value)

    def test_zero_cells_keep_the_leading_order_kurtosis(self):
        c = posterior([[5, 0, 1], [1, 5, 2]])
        s = summarize(c)
        skew, kurt = skew_kurt(c)
        assert math.isnan(skew) and math.isnan(s.skewness)
        assert kurt == s.kurtosis == s.central4 / s.var_o1 / s.var_o1
