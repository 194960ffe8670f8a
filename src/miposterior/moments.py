"""Posterior moments of mutual information under a Dirichlet posterior.

All closed forms run in O(r*s): the point statistics J, K, L, M, P, Q are
single passes over the table, the exact mean is a digamma sum, and the
variance / third / fourth central-moment expansions combine the point
statistics with shifted denominators (n+1) and (n+1)(n+2). A posterior
computes its point statistics once, as ``PosteriorCounts.stats``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateError, NumericPreconditionError, ValidationError

if TYPE_CHECKING:
    from .tables import PosteriorCounts


def digamma(x):
    """scipy.special.digamma. scipy.special takes about 0.3 s to import and
    only the exact mean needs it here, so the first call imports it and
    rebinds this name to it."""
    global digamma
    from scipy.special import digamma
    return digamma(x)


@dataclass(frozen=True)
class PointStats:
    """Scalar statistics of the plug-in distribution pi_hat = n_ij / n.

    j is the plug-in mutual information; k and l its second and third moments
    under pi_hat; m, p, q feed the second-order variance and third central
    moment. m and p are NaN when the table has zero cells.
    """

    j: float
    k: float
    l: float
    m: float
    p: float
    q: float
    row_j: np.ndarray
    col_j: np.ndarray


@dataclass(frozen=True)
class MomentSummary:
    """Aggregated posterior moments with validity diagnostics."""

    mean_exact: float
    mean_o2: float
    var_o1: float
    var_o2: float  # NaN when zero cells block the second-order term
    central3: float
    central4: float
    skewness: float  # NaN when degenerate
    kurtosis: float  # NaN when degenerate
    i_max: float
    validity_ratio: float  # r*s / n, small means the expansions are trustworthy
    flags: dict = field(default_factory=dict)


#: K - J^2 is read as 0 below this multiple of K, and K below its square
_ROUNDING = 32.0 * sys.float_info.epsilon


def _degenerate(c: PosteriorCounts) -> bool:
    # MI of a constant variable is identically zero.
    return 1 in c.counts.shape


def i_max(c: PosteriorCounts) -> float:
    return min(math.log(c.r), math.log(c.s))


def point_mi(q: np.ndarray) -> float:
    """Plug-in mutual information of a probability matrix, in nats.

    Zero cells contribute 0 (the x log x limit).
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValidationError("probability matrix must be 2-d")
    if np.any(q < 0):
        raise ValidationError("probabilities must be non-negative")
    total = q.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValidationError("probabilities must sum to 1, got %.12g" % total)
    if q.shape[0] == 1 or q.shape[1] == 1:
        return 0.0
    qi = q.sum(axis=1, keepdims=True)
    qj = q.sum(axis=0, keepdims=True)
    pos = q > 0
    ratio = np.ones_like(q)
    ratio[pos] = q[pos] / (np.broadcast_to(qi * qj, q.shape)[pos])
    return float(np.sum(q[pos] * np.log(ratio[pos])))


def _finite(value: float, what: str) -> float:
    """Pass a finite value through; map overflow or underflow to the
    documented precondition error instead of letting inf or NaN leak out."""
    if not math.isfinite(value):
        raise NumericPreconditionError(
            "%s is %r in double precision; the counts are too extreme in "
            "magnitude (rescale them)" % (what, value)
        )
    return value


def point_stats(c: PosteriorCounts) -> PointStats:
    """Compute J, K, L, M, P, Q and the row/column J vectors."""
    if _degenerate(c):
        return PointStats(
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            np.zeros(c.r), np.zeros(c.s),
        )
    n = c.counts
    pos = n > 0
    # Empty rows and columns hold only zero cells; dividing those zeros by 1
    # instead of 0 keeps every quotient finite.
    rows = np.where(c.row_sums > 0, c.row_sums, 1.0)[:, None]
    cols = np.where(c.col_sums > 0, c.col_sums, 1.0)
    # log(n_ij n / (n_i+ n_+j)), 0 at zero cells, formed from the two factors
    # n_ij / n_i+ and n_+j / n that are each at most 1, so no product of
    # counts overflows.
    by_row = n / rows
    by_col = n / cols
    w = n / c.total
    lr = np.log(by_row / (cols / c.total), out=np.zeros_like(n), where=pos)
    wl = w * lr
    wll = wl * lr
    j = _finite(float(wl.sum()), "J")
    k = _finite(float(wll.sum()), "K")
    l = _finite(float((wll * lr).sum()), "L")
    row_j = wl.sum(axis=1)
    col_j = wl.sum(axis=0)
    q = _finite(1.0 - float((by_row * by_col).sum()), "Q")
    if c.all_positive:
        # n_ij (1/n_ij - 1/n_i+ - 1/n_+j + 1/n), multiplied out
        m = _finite(float(((1.0 - by_row - by_col + w) * lr).sum()), "M")
        p = _finite(float(c.total * ((row_j**2 / c.row_sums).sum()
                                     + (col_j**2 / c.col_sums).sum())), "P")
    else:
        m = math.nan
        p = math.nan
    return PointStats(j, k, l, m, p, q, row_j, col_j)


#: (-1)^k zeta(k) for k = 2..9, the coefficients of psi(1 + x) - psi(1)
_PSI1P_SERIES = (1.6449340668482264, -1.2020569031595943, 1.0823232337111382,
                 -1.0369277551433699, 1.0173430619844491, -1.0083492773819228,
                 1.0040773561979443, -1.0020083928260822)
#: below this total mean_exact takes psi(1 + x) - psi(1) from its series
_SERIES_TOTAL = 1e-2


def _psi1p_minus_psi1(x):
    """psi(1 + x) - psi(1) = sum_{k>=2} (-1)^k zeta(k) x^(k-1), to 1e-16
    relative for 0 <= x <= 1e-2; x a float or an array."""
    acc = 0.0
    for z in reversed(_PSI1P_SERIES):
        acc = acc * x + z
    return acc * x


def mean_exact(c: PosteriorCounts) -> float:
    """Exact posterior mean of I: a digamma sum over cells and marginals."""
    if _degenerate(c):
        return 0.0
    n = c.counts
    if c.total < _SERIES_TOTAL:
        # Every cell and margin is below 1e-2 too. digamma(x + 1) rounds to
        # psi(1) for x below about 1e-16; each term's four psi(1) cancel, so
        # drop them. The weights n / total keep the terms, of order total,
        # from underflowing as n * total would.
        d = _psi1p_minus_psi1
        terms = (n / c.total) * (d(n) - d(c.row_sums)[:, None] - d(c.col_sums)
                                 + d(c.total))
        return math.fsum(memoryview(terms.ravel()))
    psi_margins = digamma(np.concatenate((c.row_sums, c.col_sums)) + 1.0)
    psi_rows = psi_margins[:c.r, None]
    psi_cols = psi_margins[c.r:]
    # Zero cells contribute 0 * psi(1) = 0, so the whole grid can be summed.
    terms = n * (digamma(n + 1.0) - psi_rows - psi_cols + digamma(c.total + 1.0))
    # fsum rounds the sum once; a memoryview hands it Python floats without
    # building a list.
    return _finite(math.fsum(memoryview(terms.ravel())) / c.total,
                   "the exact mean")


def mean_o2(c: PosteriorCounts) -> float:
    """Second-order mean: J + (r-1)(s-1) / (2(n+1))."""
    return c.stats.j + (c.r - 1) * (c.s - 1) / (2.0 * (c.total + 1.0))


def _spread(st: PointStats) -> float:
    """K - J^2, the plug-in variance of the log-ratio, taken as 0 where it is
    within rounding of 0: below _ROUNDING * K (the log-ratio is constant on
    the table's support) or with sqrt(K) below _ROUNDING (the log-ratios are
    rounding noise, as on an exactly independent table). Left as computed,
    such a residue would set shape_degenerate by the order of the rows."""
    d = st.k - st.j**2
    if d <= _ROUNDING * st.k or st.k <= _ROUNDING * _ROUNDING:
        return 0.0
    return d


def var_o1(c: PosteriorCounts) -> float:
    """Leading-order variance (K - J^2) / (n+1)."""
    return _spread(c.stats) / (c.total + 1.0)


def var_o2(c: PosteriorCounts) -> float:
    """Variance through second order.

    May go negative outside the validity regime (rs/n not small); returned
    unclamped so the breakdown is visible.
    """
    if _degenerate(c):
        return 0.0
    c.require_all_positive("second-order variance")
    st = c.stats
    n = c.total
    corr = (st.m + (c.r - 1) * (c.s - 1) * (0.5 - st.j) - st.q) / ((n + 1.0) * (n + 2.0))
    return var_o1(c) + corr


def central3(c: PosteriorCounts) -> float:
    """Leading-order third central moment of I."""
    if _degenerate(c):
        return 0.0
    c.require_all_positive("third central moment")
    st = c.stats
    # Divide by n twice: n**2 raises OverflowError for large Python floats.
    n = c.total
    return _finite((2.0 / n / n) * (2.0 * st.j**3 - 3.0 * st.k * st.j + st.l)
                   + (3.0 / n / n) * (st.k + st.j**2 - st.p),
                   "the third central moment")


def central4(c: PosteriorCounts) -> float:
    """Leading-order fourth central moment: 3 (K - J^2)^2 / n^2."""
    n = c.total
    return _finite(3.0 * _spread(c.stats) ** 2 / n / n,
                   "the fourth central moment")


def skew_kurt(c: PosteriorCounts) -> tuple[float, float]:
    """Skewness and kurtosis of the posterior of I: summarize(c)'s, or
    DegenerateError with the message of the flag that leaves them undefined
    (constant_variable, shape_degenerate or shape_underflow)."""
    s = summarize(c)
    if "constant_variable" in s.flags:
        raise DegenerateError("constant variable: I is identically 0")
    why = s.flags.get("shape_degenerate") or s.flags.get("shape_underflow")
    if why:
        raise DegenerateError(why)
    return s.skewness, s.kurtosis


def dirichlet_covariance(c: PosteriorCounts) -> np.ndarray:
    """Covariance tensor of the cell probabilities, shape (r, s, r, s):
    Cov(pi_ij, pi_kl) = (pi_hat_ij d_ik d_jl - pi_hat_ij pi_hat_kl) / (n+1).
    """
    q = c.counts / c.total
    r, s = q.shape
    cov = -np.multiply.outer(q, q)
    idx = np.arange(r)[:, None], np.arange(s)[None, :]
    cov[idx[0], idx[1], idx[0], idx[1]] += q
    return cov / (c.total + 1.0)


def mean_var_from_cov(qhat: np.ndarray, cov: np.ndarray) -> tuple[float, float]:
    """Second-order mean and leading-order variance of I from an arbitrary
    posterior covariance of the cell probabilities.

    This is the generic path: the mean adds the quadratic-curvature
    correction 1/2 sum (d d / q_ij - d/q_i+ - d/q_+j) Cov, the variance is the
    quadratic form of the log-ratios with the covariance.
    """
    qhat = np.asarray(qhat, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if np.any(qhat <= 0):
        raise ValidationError("generic path requires strictly positive probabilities")
    qi = qhat.sum(axis=1)
    qj = qhat.sum(axis=0)
    r, s = qhat.shape
    # diag(ij),(ij) term
    ii = np.arange(r)[:, None], np.arange(s)[None, :]
    diag = cov[ii[0], ii[1], ii[0], ii[1]]
    term_cell = (diag / qhat).sum()
    # sum over j,l of Cov(ij, il) for each row i (delta_ik)
    row_block = np.einsum("ijil->i", cov)
    term_row = (row_block / qi).sum()
    col_block = np.einsum("ijkj->j", cov)
    term_col = (col_block / qj).sum()
    mean = point_mi(qhat) + 0.5 * (term_cell - term_row - term_col)
    lr = np.log(qhat / np.outer(qi, qj))
    var = float(np.einsum("ij,ijkl,kl->", lr, cov, lr))
    return float(mean), var


def summarize(c: PosteriorCounts) -> MomentSummary:
    """All moments with flags instead of exceptions for degenerate regimes.

    The one place the shape regime is decided: skewness and kurtosis divide
    by the second-order variance when it is positive, else by the leading
    order one (with zero cells the skewness is NaN). Flag keys:
    ``constant_variable`` (r or s is 1, so I is identically 0),
    ``zero_cells`` (their indices; the second-order terms are NaN),
    ``validity_warning`` (negative second-order variance),
    ``shape_degenerate`` (zero leading-order variance, K - J^2 within
    rounding of 0 included; see _spread) and ``shape_underflow``
    (the third and fourth central moments underflow, for n above about
    1e160). The last two carry the message skew_kurt raises and leave
    skewness and kurtosis NaN. A moment that overflows (n below about
    1e-154) raises NumericPreconditionError.
    """
    flags: dict = {}
    im = i_max(c)
    ratio = c.r * c.s / c.total
    if _degenerate(c):
        flags["constant_variable"] = True
        return MomentSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.nan, math.nan,
                             im, ratio, flags)
    mo2 = mean_o2(c)
    me = mean_exact(c)
    v1 = var_o1(c)
    mu4 = central4(c)
    if c.all_positive:
        v2 = var_o2(c)
        mu3 = central3(c)
        if v2 < 0:
            flags["validity_warning"] = (
                "second-order variance is negative: rs/n = %.3g is outside "
                "the expansion's validity regime" % ratio
            )
    else:
        flags["zero_cells"] = c.zero_cells()
        v2 = mu3 = math.nan
    skew = kurt = math.nan
    if not v1 > 0:
        # The leading-order moments all vanish together; dividing the
        # (vanishing) third and fourth moments by a purely second-order
        # variance would produce meaningless shape values.
        flags["shape_degenerate"] = (
            "zero leading-order variance (the log-ratio is constant on the "
            "table's support); skewness and kurtosis are undefined at this order"
        )
    elif mu4 == 0.0:
        # mu4 = 3 (n+1)^2 var_o1^2 / n^2 > 0 in exact arithmetic, so a zero
        # here is underflow and the shape ratios would read a spurious 0.
        flags["shape_underflow"] = (
            "the third and fourth central moments underflow in double "
            "precision (n = %.3g); skewness and kurtosis are undefined" % c.total
        )
    else:
        # Divide step by step: var**2 can underflow to 0 while the ratio is finite.
        var = v2 if v2 > 0 else v1
        skew, kurt = mu3 / var / math.sqrt(var), mu4 / var / var
    return MomentSummary(me, mo2, v1, v2, mu3, mu4, skew, kurt, im, ratio, flags)
