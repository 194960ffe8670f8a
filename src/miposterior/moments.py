"""Posterior moments of mutual information under a Dirichlet posterior.

All closed forms run in O(r*s): the point statistics J, K, L, M, P, Q are
single passes over the table, the exact mean is a digamma sum, and the
variance / third / fourth central-moment expansions combine the point
statistics with shifted denominators (n+1) and (n+1)(n+2). A posterior
computes its point statistics once, as ``PosteriorCounts.stats``.

On small tables numpy's fixed cost per call outweighs the arithmetic, so
point_stats masks zero cells only in tables that have them and sums with
np.add.reduce (bit-identical to ndarray.sum). On large tables the cost is in
the full-grid passes: point_stats forms its products in place, in at most
four r x s arrays, and mean_exact forms its terms in place. From
_VECTOR_CELLS cells up, mean_exact sums its terms with _sum, a vectorized
sum rounded once as math.fsum rounds it, so it equals fsum bit for bit with
no Python float per term; and _psi_cells evaluates digamma once per
half-integer on tables whose cells are all multiples of 1/2. Every output is
bit-identical to the plain expressions. mean_exact rearranges its digamma
sum below _SERIES_TOTAL and from _ASYMPTOTIC_TOTAL up, where its terms
would cancel to rounding. point_mi and mean_var_from_cov reject non-finite
entries and a misshapen covariance with ValidationError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import special
from .errors import DegenerateError, NumericPreconditionError, ValidationError

if TYPE_CHECKING:
    from .tables import PosteriorCounts


@dataclass(frozen=True)
class PointStats:
    """Scalar statistics of the plug-in distribution pi_hat = n_ij / n.

    j is the plug-in mutual information; k and l its second and third moments
    under pi_hat; m, p, q feed the second-order variance and third central
    moment. Every sum runs over the support (see summarize): a zero cell
    adds nothing, and neither do an empty row or column.
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
    var_o2: float  # second order on the support; negative outside the validity regime
    central3: float
    central4: float
    skewness: float  # NaN when degenerate
    kurtosis: float  # NaN when degenerate
    i_max: float
    validity_ratio: float  # r*s / n, small means the expansions are trustworthy
    flags: dict = field(default_factory=dict)


#: K - J^2 is read as 0 below this multiple of K, and K below its square
_ROUNDING = 32.0 * sys.float_info.epsilon


def _support_shape(c: PosteriorCounts) -> tuple[int, int]:
    """The numbers of rows and of columns that hold a positive cell."""
    return int(np.count_nonzero(c.row_sums)), int(np.count_nonzero(c.col_sums))


def _degenerate(c: PosteriorCounts) -> bool:
    # MI of a constant variable is identically zero; on the support (see
    # summarize) a variable is constant when one of its values holds every
    # positive cell.
    return 1 in c.counts.shape or (not c.all_positive and 1 in _support_shape(c))


def i_max(c: PosteriorCounts) -> float:
    return min(math.log(c.r), math.log(c.s))


def require_finite(a: np.ndarray, entry: str) -> None:
    """Raise ValidationError naming the first non-finite cell of a, if any,
    calling a cell `entry`."""
    finite = np.isfinite(a)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        raise ValidationError("non-finite %s at cell (%s)"
                              % (entry, ", ".join("%d" % i for i in bad)))


def point_mi(q: np.ndarray) -> float:
    """Plug-in mutual information of a probability matrix, in nats.

    Zero cells contribute 0 (the x log x limit). A non-finite entry raises
    ValidationError naming its cell.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValidationError("probability matrix must be 2-d")
    require_finite(q, "probability")
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


@np.errstate(all="ignore")
def point_stats(c: PosteriorCounts) -> PointStats:
    """Compute J, K, L, M, P, Q and the row/column J vectors. Only a table with
    zero cells pays for the masked log-ratio; np.add.reduce is the ufunc
    behind ndarray.sum, so the sums round as before. Counts that span
    hundreds of orders of magnitude can underflow a ratio to 0 and its log
    to -inf; floating-point warnings are off, and _finite names the
    statistic that came out inf or NaN."""
    if _degenerate(c):
        return PointStats(
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            np.zeros(c.r), np.zeros(c.s),
        )
    n = c.counts
    rows, cols = c.row_sums, c.col_sums
    if not c.all_positive:
        # Empty rows and columns hold only zero cells; dividing those zeros
        # by 1 instead of 0 keeps every quotient finite, and each sum below
        # then runs over the support.
        rows = np.where(rows > 0, rows, 1.0)
        cols = np.where(cols > 0, cols, 1.0)
    # log(n_ij n / (n_i+ n_+j)), 0 at zero cells, formed from the two factors
    # n_ij / n_i+ and n_+j / n that are each at most 1, so no product of
    # counts overflows.
    by_row = n / rows[:, None]
    by_col = n / cols
    lr = by_row / (cols / c.total)
    lr = (np.log(lr, out=lr) if c.all_positive
          else np.log(lr, out=np.zeros_like(n), where=n > 0))
    add = np.add.reduce
    # Four full-grid arrays at most. Each product below is formed in an
    # array no longer needed, in the order of operations of the expression
    # it stands for, so every sum rounds as before.
    buf = by_row * by_col
    q = 1.0 - float(add(buf, axis=None))
    # n_ij (1/n_ij - 1/n_i+ - 1/n_+j + 1/n) lr, multiplied out:
    # (1 - by_row - by_col + w) lr, with w = n / N in by_col's place
    np.subtract(1.0, by_row, out=buf)
    buf -= by_col
    w = np.divide(n, c.total, out=by_col)
    buf += w
    buf *= lr
    m = float(add(buf, axis=None))
    wl = np.multiply(w, lr, out=w)  # then w lr^2 and w lr^3 in its place
    j = float(add(wl, axis=None))
    row_j = add(wl, axis=1)
    col_j = add(wl, axis=0)
    wl *= lr
    k = float(add(wl, axis=None))
    wl *= lr
    l = float(add(wl, axis=None))
    p = float(c.total * (add(row_j**2 / rows) + add(col_j**2 / cols)))
    checked = (j, k, l, q, m, p)
    if not math.isfinite(sum(checked)):  # raise on the first that is not
        for value, what in zip(checked, "JKLQMP"):
            _finite(value, what)
    return PointStats(j, k, l, m, p, q, row_j, col_j)


#: (-1)^k zeta(k) for k = 2..9, the coefficients of psi(1 + x) - psi(1)
_PSI1P_SERIES = (1.6449340668482264, -1.2020569031595943, 1.0823232337111382,
                 -1.0369277551433699, 1.0173430619844491, -1.0083492773819228,
                 1.0040773561979443, -1.0020083928260822)
#: below this total mean_exact takes psi(1 + x) - psi(1) from its series:
#: digamma(x + 1) rounds to psi(1) for x below about 1e-16, so the digamma
#: sum of a table of tiny counts cancels to 0 (test_tiny_total_matches_mpmath)
_SERIES_TOTAL = 1e-2


def _psi1p_minus_psi1(x):
    """psi(1 + x) - psi(1) = sum_{k>=2} (-1)^k zeta(k) x^(k-1), to 1e-16
    relative for 0 <= x <= 1e-2; x a float or an array."""
    acc = 0.0
    for z in reversed(_PSI1P_SERIES):
        acc = acc * x + z
    return acc * x


def _psi1p_minus_log(x):
    """psi(1 + x) - log(x) for an array x > 0. From 100 up it is the
    asymptotic series 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6) +
    1/(240x^8), whose truncation is below 1e-20 relative there."""
    t = 1.0 / np.maximum(x, 100.0)
    t2 = t * t
    series = t * (0.5 - t * (1 / 12 - t2 * (1 / 120 - t2 * (1 / 252 - t2 / 240))))
    return np.where(x >= 100.0, series, special.digamma_ufunc(x + 1.0) - np.log(x))


#: from this total up mean_exact sums J and psi(x + 1) - log(x) terms. The
#: digamma sum's four terms of a cell are each near log(N) and cancel, so
#: its error grows with the total, while the rearranged form stays near
#: epsilon: within 1e-12 relative of mpmath from here to 1e300
#: (test_large_totals_match_mpmath). Below it the digamma sum is accurate
#: and kept. In either form J carries an absolute error of about epsilon, so
#: on a near-independent table with a huge total the mean is good to about
#: epsilon absolute, not relative.
_ASYMPTOTIC_TOTAL = 1e7

#: from this many cells up _sum extracts exact parts in numpy instead of
#: handing every term to math.fsum, and _psi_cells looks digamma up on a
#: half-integer grid; below it numpy's fixed cost per call outweighs the saving
_VECTOR_CELLS = 1024
#: extraction passes before _sum hands what is left to math.fsum
_SUM_PASSES = 6


def _sum(terms: np.ndarray) -> float:
    """math.fsum(terms), bit for bit: the exact sum of the entries, rounded
    once. Overwrites terms.

    From _VECTOR_CELLS entries up it takes Rump, Ogita and Oishi's
    error-free extraction ("Accurate floating-point summation, Part I",
    SIAM J. Sci. Comput. 31, 2008). Take sigma a power of 2 at least
    size + 2 times every |p|. Then q = (p + sigma) - sigma is p rounded to
    a multiple of 2^-53 sigma, p - q is exact, and the q add up to less
    than sigma, so numpy sums them with no rounding, in any order. Each
    pass moves one exact part of the sum into `parts` and leaves p - q,
    smaller than the last p by about 2^-52 (size + 2). fsum of the parts
    rounds their exact sum, which is the exact sum of the terms, once.
    A top entry beyond 2^+-900 (where sigma or its ulp would leave the
    normal range), inf, NaN and what is left after _SUM_PASSES passes go
    to fsum as they are, which keeps the sum exact.
    """
    p = terms.reshape(-1)
    if p.size < _VECTOR_CELLS:
        # fsum rounds the sum once; a memoryview hands it Python floats
        # without building a list.
        return math.fsum(memoryview(p))
    n2 = float(1 << (p.size + 1).bit_length())
    q = np.empty_like(p)
    parts = []
    for _ in range(_SUM_PASSES):
        # minimum and maximum both propagate NaN, so top is NaN if p holds one
        top = max(-np.minimum.reduce(p), np.maximum.reduce(p))
        if top == 0.0:
            return math.fsum(parts)
        if not 2.0**-900 <= top <= 2.0**900:
            break
        sigma = math.ldexp(n2, math.frexp(top)[1])
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        parts.append(float(np.add.reduce(q)))
    return math.fsum(parts + p[p != 0].tolist())


def _psi_cells(n: np.ndarray) -> np.ndarray:
    """digamma(n + 1.0), bit for bit.

    Integer counts under Haldane, Jeffreys or uniform are multiples of 1/2,
    and a large table repeats few of them. From _VECTOR_CELLS cells up,
    when every 2 n_ij is an integer below the number of cells, digamma is
    evaluated once per half-integer from 0 to the largest cell and looked
    up: the same doubles passed to the same ufunc, so the same values.
    """
    if n.size >= _VECTOR_CELLS:
        k = n * 2.0
        top = float(np.maximum.reduce(k, axis=None))
        if top < n.size:
            index = k.astype(np.intp)
            k -= index
            if not k.any():
                grid = special.digamma_ufunc(np.arange(int(top) + 1) * 0.5 + 1.0)
                # every index is in range; the default mode="raise" would
                # write the result to a copy first
                return np.take(grid, index, out=k, mode="clip")
    return special.digamma_ufunc(n + 1.0)


def mean_exact(c: PosteriorCounts) -> float:
    """Exact posterior mean of I: a digamma sum over cells and marginals,
    rearranged below a total of _SERIES_TOTAL and from _ASYMPTOTIC_TOTAL up
    so that its terms do not cancel to rounding."""
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
        return _sum(terms)
    if c.total >= _ASYMPTOTIC_TOTAL:
        # The four psi(x + 1) of a term, each near log(N), cancel to rounding.
        # Their logs sum to the cell's log-ratio, and the log-ratios, weighted
        # by n_ij / N, sum to J; what is left, d(x) = psi(x + 1) - log(x), is
        # of order 1/x. Zero cells and margins, of weight 0, are read as 1.
        d = _psi1p_minus_log
        cells, rows, cols = (np.where(a > 0, a, 1.0)
                             for a in (n, c.row_sums, c.col_sums))
        terms = (n / c.total) * (d(cells) - d(rows)[:, None] - d(cols) + d(c.total))
        return _finite(c.stats.j + _sum(terms), "the exact mean")
    psi_margins = special.digamma_ufunc(np.concatenate((c.row_sums, c.col_sums)) + 1.0)
    # Zero cells contribute 0 * psi(1) = 0, so the whole grid can be summed.
    # In place, in the order of n * (psi(n + 1) - rows - cols + psi(N + 1)).
    terms = _psi_cells(n)
    terms -= psi_margins[:c.r, None]
    terms -= psi_margins[c.r:]
    terms += special.digamma_ufunc(c.total + 1.0)
    terms *= n
    return _finite(_sum(terms) / c.total, "the exact mean")


def _dof(c: PosteriorCounts) -> int:
    """(r-1)(s-1) of the support: |S| - r_S - s_S + 1 for the support's
    cells S and the r_S rows and s_S columns that hold them. On a table
    without zero cells the two are equal, and need no numpy call."""
    if c.all_positive:
        return (c.r - 1) * (c.s - 1)
    r_s, s_s = _support_shape(c)
    return int(np.count_nonzero(c.counts)) - r_s - s_s + 1


def mean_o2(c: PosteriorCounts) -> float:
    """Second-order mean: J + dof / (2(n+1)), dof the support's (see _dof)."""
    return c.stats.j + _dof(c) / (2.0 * (c.total + 1.0))


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
    st = c.stats
    n = c.total
    corr = (st.m + _dof(c) * (0.5 - st.j) - st.q) / ((n + 1.0) * (n + 2.0))
    return var_o1(c) + corr


def central3(c: PosteriorCounts) -> float:
    """Leading-order third central moment of I."""
    if _degenerate(c):
        return 0.0
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
    quadratic form of the log-ratios with the covariance. A probability
    matrix that is not 2-d, a covariance whose shape is not (r, s, r, s) and
    a non-finite entry of either raise ValidationError.
    """
    qhat = np.asarray(qhat, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if qhat.ndim != 2:
        raise ValidationError("probability matrix must be 2-d")
    if cov.shape != qhat.shape * 2:
        raise ValidationError("covariance must have shape (r, s, r, s) = %s, got %s"
                              % (qhat.shape * 2, cov.shape))
    require_finite(qhat, "probability")
    require_finite(cov, "covariance entry")
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

    Zero cells: a zero posterior cell (a zero count under Haldane, or under
    a custom prior with a zero entry) has pi_ij = 0 in every draw, so the
    posterior is the Dirichlet on the support S, the set of positive cells,
    and every moment is that of S. mean_exact's zero cells add
    0 psi(1) = 0; the point statistics sum over S; mean_o2 and var_o2 count
    the support's degrees of freedom (_dof); and when S lies in one row or
    one column, I is identically 0. On a table without zero cells S is the
    whole grid. i_max and validity_ratio still count the whole grid
    (tests/test_moments.py::TestSupport).

    The one place the shape regime is decided: skewness and kurtosis divide
    by the second-order variance when it is positive, else by the leading
    order one. Flag keys:
    ``zero_cells`` (their indices, for information),
    ``constant_variable`` (the support lies in one row or one column, as
    when r or s is 1, so I is identically 0),
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
    if not c.all_positive:
        flags["zero_cells"] = c.zero_cells()
    if _degenerate(c):
        flags["constant_variable"] = True
        return MomentSummary(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.nan, math.nan,
                             im, ratio, flags)
    mo2 = mean_o2(c)
    me = mean_exact(c)
    v1 = var_o1(c)
    mu4 = central4(c)
    v2 = var_o2(c)
    mu3 = central3(c)
    if v2 < 0:
        flags["validity_warning"] = (
            "second-order variance is negative: rs/n = %.3g is outside "
            "the expansion's validity regime" % ratio
        )
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
