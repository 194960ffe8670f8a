import dataclasses
import math
import sys
import threading
import types

import numpy as np
import pytest

from miposterior import (
    CountsTable,
    NumericPreconditionError,
    PriorSpec,
    ValidationError,
    ZeroCellError,
    apply_prior,
    i_max,
    mc_estimate,
    mean_exact,
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


def _whole_block_values(c, n, seed):
    """I of every draw, each block drawn whole from default_rng([seed, k]) and
    reduced with reshape sums."""
    r, s = c.counts.shape
    values = []
    for k, start in enumerate(range(0, n, 1 << 15)):
        m = min(1 << 15, n - start)
        x = np.random.default_rng([seed, k]).standard_gamma(
            c.counts.reshape(-1), size=(m, r * s)).reshape(m, r, s)
        total = x.sum(axis=(1, 2))
        rows, cols = x.sum(axis=2), x.sum(axis=1)
        xlx = ((x * np.log(x)).sum(axis=(1, 2)) - (rows * np.log(rows)).sum(axis=1)
               - (cols * np.log(cols)).sum(axis=1))
        values.append(np.maximum(xlx / total + np.log(total), 0.0))
    return np.concatenate(values)


def _shape_stats(v):
    d = v - v.mean()
    m2 = (d * d).mean()
    return v.mean(), v.var(ddof=1), (d**3).mean() / m2**1.5, (d**4).mean() / m2**2


class TestChunkedBlocks:
    # Each block is drawn and reduced in chunks of at most _CHUNK_CELLS cells.
    # The generator fills the chunks in the order it would fill the whole
    # block, so only the rounding of the reduction can move.

    # 20x20: 163 rows per chunk, so chunks end inside a block, and 40,000
    # draws are not a multiple of the chunk. The reference forms its margins
    # by reshape sums, not the matrix product.
    @pytest.mark.parametrize("shape, n", [((20, 20), 40_000), ((40, 40), 3_001)])
    def test_matches_whole_block_draws(self, shape, n):
        from miposterior import mc

        c = posterior(np.random.default_rng(4).poisson(3.0, shape), "jeffreys")
        rows = mc._CHUNK_CELLS // c.counts.size
        assert (1 << 15) % rows and n % rows
        est = mc_estimate(c, n, seed=5, thresholds=(0.5,))
        want = _whole_block_values(c, n, 5)
        got = (est.mean, est.variance, est.skewness, est.kurtosis)
        # The skewness can sit near 0 (-0.0032 on the 40x40), so the two
        # dimensionless ratios also take an absolute 1e-12.
        for g, w, tol in zip(got, _shape_stats(want), (0.0, 0.0, 1e-12, 1e-12)):
            assert g == pytest.approx(w, rel=1e-12, abs=tol)
        assert est.tail[0.5] == float(np.mean(want > 0.5))

    def test_chunk_size_moves_only_the_last_bits(self, monkeypatch):
        from miposterior import mc

        c = posterior([[4, 1, 2, 7], [1, 4, 3, 2], [2, 2, 5, 1], [3, 1, 1, 6]],
                      "jeffreys")
        whole = mc_estimate(c, 70_000, seed=3, thresholds=(0.1, 0.2))
        for cells in (16, 16 * 999, 1 << 30):  # 1 row, 999 rows, whole blocks
            monkeypatch.setattr(mc, "_CHUNK_CELLS", cells)
            est = mc_estimate(c, 70_000, seed=3, thresholds=(0.1, 0.2))
            for key in ("mean", "variance", "skewness", "kurtosis",
                        "se_mean", "se_variance", "se_skewness", "se_kurtosis"):
                assert getattr(est, key) == pytest.approx(
                    getattr(whole, key), rel=1e-12, abs=0.0), key
            assert est.tail == whole.tail
            assert np.array_equal(est.hist_counts, whole.hist_counts)

    @pytest.mark.parametrize("shape, n, limit_mib", [
        ((5, 5), 98_304, 6.0),  # whole blocks: 16.3 MiB
        ((40, 40), 20_000, 8.0),  # whole blocks: 501 MiB, 2.5 MiB now
        # One draw per chunk, margins by reshape sums: the (rs, 1 + r + s)
        # margins matrix alone would take 413 MiB.
        ((300, 300), 200, 4.0),
    ])
    def test_peak_memory_is_one_chunk(self, shape, n, limit_mib):
        import tracemalloc

        c = posterior(np.random.default_rng(0).poisson(5.0, shape), "jeffreys")
        mc_estimate(c, 100)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            mc_estimate(c, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


def _bits(est):
    """Every field of an McEstimate; equal reprs are equal bits."""
    return [getattr(est, f.name).tobytes() if isinstance(getattr(est, f.name), np.ndarray)
            else repr(getattr(est, f.name)) for f in dataclasses.fields(est)]


class TestThreadedBlocks:
    # Blocks run on up to min(n_blocks, usable CPUs) threads, the calling
    # thread among them; each keeps its generator and chunks, so no output
    # depends on the thread count.

    @pytest.mark.parametrize("shape, n", [
        ((2, 2), 98_304),  # 3 whole blocks
        ((4, 4), 70_000),  # a partial last block
        ((20, 20), 40_000),  # chunks end inside blocks
        ((3, 3), 1_000),  # one block: no thread
    ])
    def test_outputs_do_not_depend_on_the_cpu_count(self, monkeypatch, shape, n):
        from miposterior import mc

        c = posterior(np.random.default_rng(2).poisson(3.0, shape) + 1, "jeffreys")
        threads = threading.active_count()
        got = []
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
            got.append(_bits(mc_estimate(c, n, seed=6, thresholds=(0.05, 0.2))))
            assert threading.active_count() == threads
        assert got[1] == got[0] and got[2] == got[0] and got[3] == got[0]

    def test_many_blocks_under_fast_thread_switching(self, monkeypatch):
        from miposterior import mc

        c = posterior([[3, 1, 2], [2, 5, 1]])
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
        want = _bits(mc_estimate(c, 12 * mc._BLOCK + 5, seed=2))
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _bits(mc_estimate(c, 12 * mc._BLOCK + 5, seed=2))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_blocks_run_side_by_side(self, monkeypatch):
        from miposterior import mc

        monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
        barrier = threading.Barrier(3, timeout=10)  # breaks unless 3 blocks meet
        idents = set()

        def run_block(k):
            idents.add(threading.get_ident())
            barrier.wait()

        mc._run_blocks(3, run_block)
        assert len(idents) == 3 and threading.get_ident() in idents

    @staticmethod
    def _tagged(monkeypatch, c, n, seed, fail):
        """Patch mc._mi_of_samples to note each block's first chunk and to
        call fail(block) there; returns the list of blocks started."""
        from miposterior import mc

        shapes = c.counts.reshape(-1)
        firsts = [np.random.default_rng([seed, k]).standard_gamma(shapes, size=shapes.size)
                  for k in range(-(-n // mc._BLOCK))]
        started = []
        real = mc._mi_of_samples

        def fake(x, r, s, margins):
            for k, first in enumerate(firsts):
                if np.array_equal(x[0], first):
                    started.append(k)
                    fail(k)
            return real(x, r, s, margins)

        monkeypatch.setattr(mc, "_mi_of_samples", fake)
        return started

    @staticmethod
    def _joins(monkeypatch):
        """Patch the threads of mc._run_blocks so that the returned Event is
        set when the calling thread begins to join its helpers, which it
        does only after it has recorded its own block's error."""
        from miposterior import mc

        joining = threading.Event()

        class Thread(threading.Thread):
            def join(self, timeout=None):
                joining.set()
                super().join(timeout)

        monkeypatch.setattr(mc, "threading", types.SimpleNamespace(
            Lock=threading.Lock, Thread=Thread))
        return joining

    @staticmethod
    def _recorded(thread, caller, joining):
        """Wait until `thread` has recorded the error of its block: a helper
        ends right after, the calling thread then joins its helpers."""
        if thread is caller:
            assert joining.wait(timeout=10)
        else:
            thread.join(timeout=10)
            assert not thread.is_alive()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_error_of_the_lowest_block_is_raised(self, monkeypatch, cpus):
        from miposterior import mc

        class Tagged(Exception):
            pass

        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        joining = self._joins(monkeypatch)
        caller = threading.current_thread()
        c = posterior([[3, 1], [2, 5]])
        block_2 = []  # the thread that runs block 2
        block_2_failed = threading.Event()
        first = threading.Barrier(cpus, timeout=10)

        def fail(k):
            if k < cpus:
                first.wait()  # the first `cpus` blocks start before any fails
            if k == 2:
                block_2.append(threading.current_thread())
                block_2_failed.set()
                raise Tagged(2)
            if cpus > 1 and (k == 1 or cpus > 2):
                # Blocks that run beside block 2 end after its thread has
                # recorded the error.
                assert block_2_failed.wait(timeout=10)
                self._recorded(block_2[0], caller, joining)
            if k == 1:
                raise Tagged(1)

        started = self._tagged(monkeypatch, c, 5 * mc._BLOCK, 4, fail)
        threads = threading.active_count()
        with pytest.raises(Tagged) as ei:
            mc_estimate(c, 5 * mc._BLOCK, seed=4)
        assert ei.value.args == (1,)
        assert sorted(started) == ([0, 1] if cpus == 1 else [0, 1, 2])
        assert threading.active_count() == threads

    def test_error_on_a_helper_stops_the_calling_thread(self, monkeypatch):
        from miposterior import mc

        class Tagged(Exception):
            pass

        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        caller = threading.current_thread()
        caller_started, failed = threading.Event(), threading.Event()
        helper = []
        started = []

        def run_block(k):
            started.append(k)
            if threading.current_thread() is caller:
                caller_started.set()
                assert failed.wait(timeout=10)
                helper[0].join(timeout=10)  # it ends once it has recorded its error
            else:
                assert caller_started.wait(timeout=10)
                helper.append(threading.current_thread())
                failed.set()
                raise Tagged(k)

        with pytest.raises(Tagged) as ei:
            mc._run_blocks(10, run_block)
        assert sorted(started) == [0, 1] and ei.value.args[0] in started

    def test_interrupt_on_the_calling_thread_stops_the_blocks(self, monkeypatch):
        from miposterior import mc

        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        joining = self._joins(monkeypatch)
        caller = threading.current_thread()
        c = posterior([[3, 1], [2, 5]])
        both = threading.Barrier(2, timeout=10)

        def fail(k):
            both.wait()  # blocks 0 and 1 start before the interrupt
            if threading.current_thread() is caller:
                raise KeyboardInterrupt
            # The helper's block ends after the calling thread has recorded
            # the interrupt.
            assert joining.wait(timeout=10)

        started = self._tagged(monkeypatch, c, 6 * mc._BLOCK, 4, fail)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            mc_estimate(c, 6 * mc._BLOCK, seed=4)
        assert sorted(started) == [0, 1]
        assert threading.active_count() == threads


class TestUnderflowingDraws:
    # Perks gives the 38 zero cells the shape 0.01; their gamma draws often
    # underflow to 0, where 0 log 0 would read NaN.
    TABLE = np.random.default_rng(0).poisson(0.8, (10, 10))

    def test_zero_draws_take_the_x_log_x_limit(self):
        c = posterior(self.TABLE, "perks")
        est = mc_estimate(c, 20000, seed=1)
        for v in (est.mean, est.variance, est.skewness, est.kurtosis,
                  est.se_mean, est.se_variance):
            assert math.isfinite(v)
        assert int(est.hist_counts.sum()) == 20000
        assert abs(est.mean - mean_exact(c)) <= 5.0 * est.se_mean

    def test_cli_report_is_complete(self, tmp_path, capsys):
        import json

        from miposterior.cli import main

        p = tmp_path / "t.csv"
        p.write_text("\n".join(",".join(map(str, row)) for row in self.TABLE))
        code = main(["--input", str(p), "--prior", "perks", "--fit", "none",
                     "--mc", "20000", "--mc-seed", "1"])
        out = capsys.readouterr()
        assert code == 0 and out.err == ""
        mc = json.loads(out.out)["mc"]
        assert None not in (mc["mean"], mc["variance"], mc["se_mean"])
        assert sum(mc["hist_counts"]) == 20000

    def test_draw_with_zero_total_raises(self):
        # Shapes near 1e-3: every cell of some draws underflows to 0.
        c = posterior([[1e-3, 2e-3], [3e-3, 1e-3]])
        with pytest.raises(NumericPreconditionError, match="underflows to 0 in every cell"):
            mc_estimate(c, 200)
