"""Monte Carlo oracle: Dirichlet sampling via gamma variates and empirical
moments of the mutual information with batch-means standard errors.

Determinism contract: samples are generated in fixed-size blocks, each block
from its own generator keyed by (seed, block index). The blocks run on the
usable CPUs, one thread each at most, the calling thread among them; each
block writes its own slice of the values of I. So no output depends on the
number of sampling threads. With the BLAS library's own thread count held
fixed, a fixed (seed, N, counts) triple determines every output. On tables
whose margins come from the matrix product (see _margins), the product may
round differently at another BLAS thread count, and then the moments differ
in their last bits. The 5x5 table of tests/test_mc.py's
test_same_bits_at_one_and_two_blas_threads keeps the same bits at one and
two threads.

Each block is drawn and reduced in chunks of max(_CHUNK_CELLS, rs) gamma
variates (_CHUNK_CELLS // rs draws, or one draw when rs is above
_CHUNK_CELLS), so the working set is a small multiple of one chunk's
doubles per thread plus the N values of I and, on tables whose
(rs, 1 + r + s) margins matrix holds at most _CHUNK_CELLS * 9 // 16
entries, that matrix. Larger tables form their margins by reshape sums,
since the matrix grows as (rs)^1.5 and the product costs more per draw as
the table grows; test_peak_memory_is_one_chunk bounds the peak. The
generator fills the chunks in the order it would fill the whole block, so
the variates are those of one whole-block draw and the (seed, block)
contract holds whatever the chunk size. Only the matrix product that forms
the margins can round differently with the chunk's row count, which moves
some draws' I in their last bits: the moments stay within 1e-12 relative
of whole-block draws (test_chunk_size_moves_only_the_last_bits); many
shapes are bit-identical.

Zero cells: a zero posterior cell is a gamma variate of shape 0, which
numpy's generator returns as 0 without taking a value from its stream. So
a zero-cell table's draws are those of its support: each row holds, in
row-major order, the variates a draw of the positive cells alone would
hold, and zeros in the other cells. Its moments are those of the table
with its empty rows and columns deleted, to rounding
(test_empty_row_matches_the_table_without_it). Every such draw takes the
x log x fallback of _mi_of_samples, which costs more per draw than the
plain kernel.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericPreconditionError, ValidationError
from .moments import i_max as _i_max
from .tables import PosteriorCounts

_BLOCK = 1 << 15
#: each block's draws are taken and reduced this many cells at a time
_CHUNK_CELLS = 1 << 16
_N_BATCHES = 32
_N_BINS = 128


@dataclass(frozen=True)
class McEstimate:
    """Empirical posterior moments of I with batch-means standard errors."""

    sample_count: int
    seed: int
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    se_mean: float
    se_variance: float
    se_skewness: float
    se_kurtosis: float
    tail: dict  # threshold -> empirical p(I > threshold)
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def sample_dirichlet(c: PosteriorCounts, rng: np.random.Generator) -> np.ndarray:
    """One draw from the posterior Dirichlet over the r x s cell probabilities;
    a zero cell draws 0."""
    x = rng.gamma(shape=c.counts)
    return x / x.sum()


def _margins(r: int, s: int) -> np.ndarray | None:
    """The (r*s, 1+r+s) 0/1 matrix that maps a row-major r x s table to its
    total, its row sums and its column sums; None when it would hold more
    than _CHUNK_CELLS * 9 // 16 (36,864) entries, from 27x27 on square
    tables.

    A chunk's product against the matrix takes about _CHUNK_CELLS (1 + r + s)
    multiply-adds, so reshape sums, which need no matrix, overtake it as the
    table grows. Per chunk, reshape sums took these shares of the product's
    time with OpenBLAS at its default 2 threads (one thread in brackets):
    1.03 to 1.08 at 26x26 (0.87), 0.90 at 27x27 (0.79), 0.91 at 29x29
    (0.74) and 0.78 at 31x31 (0.71); with one thread they already won from
    23x23 (0.92), and at 20x20 they took 1.13. On a 100x100 table (6 draws)
    a chunk takes 61 against 1,426 us, on a 5x5 (2,621 draws) 669 against
    49 us. Measured on a 2-vCPU host (tools/margins_stages.py).
    """
    if r * s * (1 + r + s) > _CHUNK_CELLS * 9 // 16:
        return None
    cells = np.arange(r * s)
    a = np.zeros((r * s, 1 + r + s))
    a[:, 0] = 1.0
    a[cells, 1 + cells // s] = 1.0
    a[cells, 1 + r + cells % s] = 1.0
    return a


def _sum_xlogx(a: np.ndarray) -> np.ndarray:
    """Each row's sum of a log a, with 0 log 0 = 0."""
    return np.einsum("ij,ij->i", a, np.log(a, out=np.zeros_like(a), where=a > 0))


def _mi_of_samples(x: np.ndarray, r: int, s: int,
                   margins: np.ndarray | None) -> np.ndarray:
    """I(pi) for a batch of unnormalized gamma draws, shape (m, r*s) -> (m,).

    With pi = x / X, I = (sum x log x - sum R log R - sum C log C) / X + log X
    for the total X, row sums R and column sums C of the draws, so no
    normalized copy of x is formed. margins is _margins(r, s).
    """
    if margins is not None:
        sums = x @ margins
        total = sums[:, 0]
        marg = sums[:, 1:]
    else:
        cells = x.reshape(-1, r, s)
        rows = cells.sum(axis=2)
        marg = np.concatenate((rows, cells.sum(axis=1)), axis=1)
        total = rows.sum(axis=1)
    # einsum forms each row's sum of products without a temporary array.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.einsum("ij,ij->i", x, np.log(x))
               - np.einsum("ij,ij->i", marg, np.log(marg))) / total
    bad = np.isnan(out)
    if bad.any():
        # Zero cells draw 0, and so can draws of shapes below about 0.01
        # that underflow; 0 log 0 reads NaN, so those rows take the
        # x log x -> 0 limit.
        if not np.all(total[bad] > 0):
            raise NumericPreconditionError(
                "a Monte Carlo draw underflows to 0 in every cell; the posterior "
                "counts are too small for gamma sampling in double precision"
            )
        out[bad] = (_sum_xlogx(x[bad]) - _sum_xlogx(marg[bad])) / total[bad]
    out += np.log(total)
    # I >= 0 analytically; floor tiny negative rounding residue.
    return np.maximum(out, 0.0)


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(x.mean())
    d = x - mean
    d2 = d * d  # products, not d**3 and d**4, which take numpy's slow pow
    m2 = float(d2.mean())
    # The third and fourth powers reuse d's buffer.
    m3 = float(np.multiply(d2, d, out=d).mean())
    m4 = float(np.multiply(d2, d2, out=d).mean())
    n = x.size
    var = m2 * n / (n - 1)
    skew = m3 / m2**1.5 if m2 > 0 else math.nan
    kurt = m4 / (m2 * m2) if m2 > 0 else math.nan
    return mean, var, skew, kurt


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run_blocks(n_blocks: int, run_block) -> None:
    """run_block(k) for k = 0 .. n_blocks - 1, on up to min(n_blocks, usable
    CPUs) threads, the calling thread among them; with one, it runs them all
    in order.

    Blocks are handed out in order. After an exception in any block
    (KeyboardInterrupt on the calling thread included) no block starts;
    every thread is joined, and then the exception of the lowest failed
    block is raised: the one the serial loop would raise, since every lower
    block had started.
    """
    workers = min(n_blocks, _usable_cpus())
    lock = threading.Lock()
    blocks = iter(range(n_blocks))
    errors = {}

    def work() -> None:
        nonlocal blocks
        while True:
            with lock:
                k = next(blocks, None)
            if k is None:
                return
            try:
                run_block(k)
            except BaseException as exc:  # handed to the calling thread
                with lock:
                    errors[k] = exc
                    blocks = iter(())
                return

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(workers - 1)]
    try:
        for t in helpers:
            t.start()
        work()
    finally:
        with lock:  # an interrupt between blocks stops the helpers too
            blocks = iter(())
        for t in helpers:
            if t.ident is not None:
                t.join()
    if errors:
        raise errors[min(errors)]


def mc_estimate(
    c: PosteriorCounts,
    n_samples: int,
    seed: int = 0,
    thresholds: tuple[float, ...] = (),
) -> McEstimate:
    """Monte Carlo moments of I from n_samples posterior draws.

    Standard errors come from 32 batch means; the histogram has 128
    equal-width bins on [0, I_max]. The sampling blocks run on up to
    min(blocks, usable CPUs) threads, the calling thread among them, each
    holding one chunk at a time; no output depends on the thread count.
    """
    if n_samples < 100:
        raise ValidationError("mc_estimate needs at least 100 samples")
    if seed < 0:
        raise ValidationError("mc_estimate needs a seed >= 0")
    shapes = c.counts.reshape(-1)
    rows = max(1, _CHUNK_CELLS // shapes.size)
    margins = _margins(c.r, c.s)
    try:
        values = np.empty(n_samples)
    except (ValueError, MemoryError):  # more values than numpy or memory holds
        raise ValidationError("mc_estimate cannot hold %d samples" % n_samples) from None

    def run_block(k: int) -> None:
        start = k * _BLOCK
        stop = min(start + _BLOCK, n_samples)
        rng = np.random.default_rng([seed, k])
        # The same variates as rng.gamma(shape=shapes, size=(stop - start,
        # rs)), without its scale multiply: the generator fills the chunks in
        # the order it would fill the whole block.
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            x = rng.standard_gamma(shapes, size=(hi - lo, shapes.size))
            values[lo:hi] = _mi_of_samples(x, c.r, c.s, margins)

    _run_blocks(-(-n_samples // _BLOCK), run_block)

    mean, var, skew, kurt = _moments(values)
    per_batch = n_samples // _N_BATCHES
    batch_stats = np.array([
        _moments(values[b * per_batch:(b + 1) * per_batch])
        for b in range(_N_BATCHES)
    ])
    ses = batch_stats.std(axis=0, ddof=1) / math.sqrt(_N_BATCHES)

    im = _i_max(c)
    hi = im if im > 0 else 1.0
    tail = {float(t): float(np.mean(values > t)) for t in thresholds}
    # The tails have read values, so the histogram may clip it in place.
    counts, edges = np.histogram(np.clip(values, 0.0, hi, out=values),
                                 bins=_N_BINS, range=(0.0, hi))
    return McEstimate(
        sample_count=n_samples,
        seed=seed,
        mean=mean,
        variance=var,
        skewness=skew,
        kurtosis=kurt,
        se_mean=float(ses[0]),
        se_variance=float(ses[1]),
        se_skewness=float(ses[2]),
        se_kurtosis=float(ses[3]),
        tail=tail,
        hist_edges=edges,
        hist_counts=counts,
    )
