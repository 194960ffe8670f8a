"""Monte Carlo oracle: Dirichlet sampling via gamma variates and empirical
moments of the mutual information with batch-means standard errors.

Determinism contract: samples are generated in fixed-size blocks, each block
from its own generator keyed by (seed, block index). Results therefore do not
depend on how blocks would be distributed over workers, and a fixed
(seed, N, counts) triple fully determines every output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .moments import i_max as _i_max
from .tables import PosteriorCounts

_BLOCK = 1 << 15
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
    """One draw from the posterior Dirichlet over the r x s cell probabilities."""
    c.require_all_positive("Dirichlet sampling")
    x = rng.gamma(shape=c.counts)
    return x / x.sum()


def _margins(r: int, s: int) -> np.ndarray:
    """The (r*s, 1+r+s) 0/1 matrix that maps a row-major r x s table to its
    total, its row sums and its column sums."""
    cells = np.arange(r * s)
    a = np.zeros((r * s, 1 + r + s))
    a[:, 0] = 1.0
    a[cells, 1 + cells // s] = 1.0
    a[cells, 1 + r + cells % s] = 1.0
    return a


def _mi_of_samples(x: np.ndarray, r: int, s: int) -> np.ndarray:
    """I(pi) for a batch of unnormalized gamma draws, shape (m, r*s) -> (m,).

    With pi = x / X, I = (sum x log x - sum R log R - sum C log C) / X + log X
    for the total X, row sums R and column sums C of the draws, so no
    normalized copy of x is formed.
    """
    sums = x @ _margins(r, s)
    total = sums[:, 0]
    marg = sums[:, 1:]
    # einsum forms each row's sum of products without a temporary array.
    out = (np.einsum("ij,ij->i", x, np.log(x))
           - np.einsum("ij,ij->i", marg, np.log(marg))) / total
    out += np.log(total)
    # I >= 0 analytically; floor tiny negative rounding residue.
    return np.maximum(out, 0.0)


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(x.mean())
    d = x - mean
    d2 = d * d  # products, not d**3 and d**4, which take numpy's slow pow
    m2 = float(d2.mean())
    m3 = float((d2 * d).mean())
    m4 = float((d2 * d2).mean())
    n = x.size
    var = m2 * n / (n - 1)
    skew = m3 / m2**1.5 if m2 > 0 else math.nan
    kurt = m4 / (m2 * m2) if m2 > 0 else math.nan
    return mean, var, skew, kurt


def mc_estimate(
    c: PosteriorCounts,
    n_samples: int,
    seed: int = 0,
    thresholds: tuple[float, ...] = (),
) -> McEstimate:
    """Monte Carlo moments of I from n_samples posterior draws.

    Standard errors come from 32 batch means; the histogram has 128
    equal-width bins on [0, I_max].
    """
    if n_samples < 100:
        raise ValidationError("mc_estimate needs at least 100 samples")
    if seed < 0:
        raise ValidationError("mc_estimate needs a seed >= 0")
    c.require_all_positive("Dirichlet sampling")
    shapes = c.counts.reshape(-1)
    values = np.empty(n_samples)
    pos = 0
    block = 0
    while pos < n_samples:
        m = min(_BLOCK, n_samples - pos)
        rng = np.random.default_rng([seed, block])
        # The same variates as rng.gamma(shape=shapes, ...), without its
        # scale multiply.
        x = rng.standard_gamma(shapes, size=(m, shapes.size))
        values[pos:pos + m] = _mi_of_samples(x, c.r, c.s)
        pos += m
        block += 1

    mean, var, skew, kurt = _moments(values)
    per_batch = n_samples // _N_BATCHES
    batch_stats = np.array([
        _moments(values[b * per_batch:(b + 1) * per_batch])
        for b in range(_N_BATCHES)
    ])
    ses = batch_stats.std(axis=0, ddof=1) / math.sqrt(_N_BATCHES)

    im = _i_max(c)
    hi = im if im > 0 else 1.0
    counts, edges = np.histogram(np.clip(values, 0.0, hi), bins=_N_BINS,
                                 range=(0.0, hi))
    tail = {float(t): float(np.mean(values > t)) for t in thresholds}
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
