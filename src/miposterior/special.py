"""Digamma function over positive reals with exact integer/half-integer paths.

The general path lifts the argument with psi(x) = psi(x+1) - 1/x until it is
large enough for the asymptotic series
    psi(x) = log x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6)
             + 1/(240x^8) - 1/(132x^10) + ...
Integer and half-integer arguments have closed forms in terms of harmonic
sums, served up to 512 from lookup tables built when the module is imported.
"""

from __future__ import annotations

import math

import numpy as np

#: Euler-Mascheroni constant; psi(1) = -EULER_GAMMA.
EULER_GAMMA = 0.57721566490153286

_LOG2 = math.log(2.0)

# Lift threshold 10 with Bernoulli terms through x^-12 keeps the truncation
# error below 1e-15, comfortably inside the 1e-12 fast-path agreement budget.
_LIFT = 10.0
_BERN = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
         -691.0 / 32760.0)

_TABLE_MAX = 512
# psi(m) and psi(m + 1/2) for m = 0.._TABLE_MAX (psi(0) is NaN), summed from
# psi(1) and psi(1/2) in order of m: np.cumsum adds sequentially.
_k = np.arange(1.0, _TABLE_MAX + 1)
_INT_TABLE = np.concatenate(([np.nan], np.cumsum(np.append(-EULER_GAMMA, 1.0 / _k[:-1]))))
_HALF_TABLE = np.cumsum(np.append(-EULER_GAMMA - 2.0 * _LOG2, 2.0 / (2.0 * _k - 1.0)))
_INT_TABLE.setflags(write=False)
_HALF_TABLE.setflags(write=False)


def digamma(x: float) -> float:
    """psi(x) for x > 0, absolute error below 1e-12 for x >= 1e-6."""
    if not x > 0:
        raise ValueError("digamma requires x > 0, got %r" % (x,))
    terms = []
    while x < _LIFT:
        terms.append(-1.0 / x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    p = inv2
    for coeff in _BERN:
        terms.append(-coeff * p)
        p *= inv2
    terms.append(math.log(x))
    terms.append(-0.5 / x)
    return math.fsum(terms)


def digamma_integer(m: int) -> float:
    """psi(m) = -gamma + H_{m-1} for integer m >= 1."""
    if m < 1 or m != int(m):
        raise ValueError("digamma_integer requires an integer m >= 1, got %r" % (m,))
    m = int(m)
    if m <= _TABLE_MAX:
        return float(_INT_TABLE[m])
    # Partial harmonic sum, small-to-large for accuracy.
    h = math.fsum(1.0 / k for k in range(m - 1, 0, -1))
    return h - EULER_GAMMA


def digamma_half_integer(m: int) -> float:
    """psi(m + 1/2) = -gamma - 2 log 2 + 2 sum_{k=1}^m 1/(2k-1) for integer m >= 0.

    The -2 log 2 sign is forced by the recurrence anchored at psi(1) = -gamma:
    psi(1/2) = -gamma - 2 log 2 (some references print the opposite sign).
    """
    if m < 0 or m != int(m):
        raise ValueError("digamma_half_integer requires an integer m >= 0, got %r" % (m,))
    m = int(m)
    if m <= _TABLE_MAX:
        return float(_HALF_TABLE[m])
    h = math.fsum(1.0 / (2 * k - 1) for k in range(m, 0, -1))
    return 2.0 * h - EULER_GAMMA - 2.0 * _LOG2


def psi(x: float) -> float:
    """psi(x) dispatching to the exact integer/half-integer paths when they apply."""
    if x > 0 and x <= _TABLE_MAX + 0.5:
        f = math.floor(x)
        if x == f:
            return digamma_integer(int(f))
        if x - f == 0.5:
            return digamma_half_integer(int(f))
    return digamma(x)
