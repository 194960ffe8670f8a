import math

import numpy as np
import pytest

from miposterior import (
    CountsTable,
    PriorSpec,
    ValidationError,
    ZeroCellError,
    apply_prior,
    i_max,
    mc_estimate,
    sample_dirichlet,
)


def posterior(mat, prior="haldane"):
    return apply_prior(CountsTable(np.array(mat, dtype=float)), PriorSpec(prior))


class TestSampler:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        c = posterior([[2, 1], [1, 2]])
        for _ in range(200):
            p = sample_dirichlet(c, rng)
            assert np.all(p > 0)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_zero_cell_names_cell(self):
        with pytest.raises(ZeroCellError) as ei:
            sample_dirichlet(posterior([[5, 0], [0, 5]]), np.random.default_rng(0))
        assert (0, 1) in ei.value.cells

    def test_cell_means_match_dirichlet(self):
        # E[pi_ij] = n_ij / n; check with 1e5 samples at 4 batch-means SEs
        c = posterior([[2, 1], [1, 2]])
        rng = np.random.default_rng(123)
        samples = np.array([sample_dirichlet(c, rng) for _ in range(100_000)])
        means = samples.mean(axis=0)
        batch = samples.reshape(32, -1, 2, 2).mean(axis=1)
        se = batch.std(axis=0, ddof=1) / math.sqrt(32)
        expected = c.counts / c.total
        assert np.all(np.abs(means - expected) <= 4.0 * se)

    def test_beta_marginal_variance(self):
        # marginal of each cell is Beta(n_ij, n - n_ij), with known variance
        c = posterior([[2, 1], [1, 2]], prior="jeffreys")  # fractional shapes < 1 hit too
        rng = np.random.default_rng(7)
        samples = np.array([sample_dirichlet(c, rng) for _ in range(100_000)])
        n = c.total
        for i in range(2):
            for j in range(2):
                a = c.counts[i, j]
                want = a * (n - a) / (n**2 * (n + 1.0))
                got = samples[:, i, j].var(ddof=1)
                assert got == pytest.approx(want, rel=0.05)


class TestMcEstimate:
    def test_deterministic(self):
        c = posterior([[2, 1], [1, 2]])
        a = mc_estimate(c, 5000, seed=7, thresholds=(0.1, 0.3))
        b = mc_estimate(c, 5000, seed=7, thresholds=(0.1, 0.3))
        assert a.mean == b.mean
        assert a.variance == b.variance
        assert a.skewness == b.skewness
        assert a.kurtosis == b.kurtosis
        assert a.tail == b.tail
        assert np.array_equal(a.hist_counts, b.hist_counts)

    def test_seed_changes_values(self):
        c = posterior([[2, 1], [1, 2]])
        assert mc_estimate(c, 5000, seed=7).mean != mc_estimate(c, 5000, seed=8).mean

    def test_minimum_samples(self):
        with pytest.raises(ValidationError):
            mc_estimate(posterior([[1, 1], [1, 1]]), 99)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed >= 0"):
            mc_estimate(posterior([[1, 1], [1, 1]]), 1000, seed=-1)

    def test_zero_cell_rejected(self):
        with pytest.raises(ZeroCellError):
            mc_estimate(posterior([[5, 0], [0, 5]]), 1000)

    def test_histogram_and_support(self):
        c = posterior([[4, 1], [1, 4]])
        est = mc_estimate(c, 20_000, seed=3, thresholds=(0.0,))
        assert est.hist_counts.sum() == 20_000
        assert est.hist_edges[0] == 0.0
        assert est.hist_edges[-1] == pytest.approx(i_max(c))
        # no histogram mass above i_max, and all tail mass below it
        assert est.tail[0.0] <= 1.0

    def test_ses_positive_and_estimates_finite(self):
        est = mc_estimate(posterior([[4, 1], [1, 4]]), 10_000, seed=1)
        for v in (est.mean, est.variance, est.skewness, est.kurtosis):
            assert math.isfinite(v)
        for se in (est.se_mean, est.se_variance, est.se_skewness, est.se_kurtosis):
            assert se > 0

    def test_se_scaling(self):
        # quadrupling N should roughly halve the batch-means SE
        c = posterior([[4, 1], [1, 4]])
        small = mc_estimate(c, 40_000, seed=11)
        big = mc_estimate(c, 160_000, seed=12)
        for a, b in ((small.se_mean, big.se_mean),
                     (small.se_variance, big.se_variance)):
            assert 1.5 <= a / b <= 2.7

    def test_stream_and_mi_match_normalized_reference(self):
        # The (seed, block) contract: block k draws rng.gamma(shape=counts)
        # from default_rng([seed, k]); I is then the plug-in MI of x / sum x.
        c = posterior([[4, 1, 2], [1, 4, 3]], prior="jeffreys")
        n, block = 70_000, 1 << 15
        values = []
        for k in range(3):
            rng = np.random.default_rng([9, k])
            m = min(block, n - k * block)
            p = rng.gamma(shape=c.counts.reshape(-1), size=(m, 6)).reshape(m, 2, 3)
            p /= p.sum(axis=(1, 2), keepdims=True)
            pi, pj = p.sum(axis=2), p.sum(axis=1)
            lr = np.log(p) - np.log(pi)[:, :, None] - np.log(pj)[:, None, :]
            values.append(np.maximum((p * lr).sum(axis=(1, 2)), 0.0))
        values = np.concatenate(values)
        est = mc_estimate(c, n, seed=9)
        assert est.mean == pytest.approx(values.mean(), rel=1e-12)
        assert est.variance == pytest.approx(values.var(ddof=1), rel=1e-10)

    def test_sampled_mi_within_bounds(self):
        c = posterior([[4, 1], [1, 4]])
        est = mc_estimate(c, 20_000, seed=5, thresholds=(i_max(c) + 1e-12,))
        assert est.tail[i_max(c) + 1e-12] == 0.0
