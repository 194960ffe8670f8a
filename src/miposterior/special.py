"""The package's special functions: psi (digamma) and Q(a, x), the
regularized upper incomplete gamma function, plus exact harmonic tables.

Both come from scipy.special, which is slow to import (`bench/run.py
--trace 1` reports its import as cli.import.scipy_special_ms), so this
module imports it on first use: reading ``special.digamma_ufunc`` or
``special.gammaincc`` binds scipy's ufunc as a module global, and every
later read reaches the ufunc with no Python wrapper in between. Every
module calls them through this one binding.

Integer and half-integer arguments have closed forms in terms of harmonic
sums, served exactly up to 512 from lookup tables built when the module is
imported, without scipy; past the tables they take the same psi.
"""

from __future__ import annotations

import math

import numpy as np

#: Euler-Mascheroni constant; psi(1) = -EULER_GAMMA.
EULER_GAMMA = 0.57721566490153286

_LOG2 = math.log(2.0)

#: module attribute -> the scipy.special ufunc it binds on first read
_SCIPY = {"digamma_ufunc": "digamma", "gammaincc": "gammaincc"}

_TABLE_MAX = 512
# psi(m) and psi(m + 1/2) for m = 0.._TABLE_MAX (psi(0) is NaN), summed from
# psi(1) and psi(1/2) in order of m: np.cumsum adds sequentially.
_k = np.arange(1.0, _TABLE_MAX + 1)
_INT_TABLE = np.concatenate(([np.nan], np.cumsum(np.append(-EULER_GAMMA, 1.0 / _k[:-1]))))
_HALF_TABLE = np.cumsum(np.append(-EULER_GAMMA - 2.0 * _LOG2, 2.0 / (2.0 * _k - 1.0)))
_INT_TABLE.setflags(write=False)
_HALF_TABLE.setflags(write=False)


def __getattr__(name: str):
    """The ufunc bound to a name in _SCIPY. The first read imports
    scipy.special and caches the ufunc as a module global, which later
    reads of ``special.<name>`` find without calling this."""
    if name not in _SCIPY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    if name not in globals():
        import scipy.special

        globals()[name] = getattr(scipy.special, _SCIPY[name])
    return globals()[name]


def digamma(x: float) -> float:
    """psi(x) for x > 0: scipy.special.digamma, as a float."""
    if not x > 0:
        raise ValueError("digamma requires x > 0, got %r" % (x,))
    return float(__getattr__("digamma_ufunc")(x))


def digamma_integer(m: int) -> float:
    """psi(m) = -gamma + H_{m-1} for integer m >= 1."""
    if m < 1 or m != int(m):
        raise ValueError("digamma_integer requires an integer m >= 1, got %r" % (m,))
    m = int(m)
    if m <= _TABLE_MAX:
        return float(_INT_TABLE[m])
    return digamma(float(m))


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
    return digamma(m + 0.5)


def psi(x: float) -> float:
    """psi(x) dispatching to the exact integer/half-integer paths when they apply."""
    if x > 0 and x <= _TABLE_MAX + 0.5:
        f = math.floor(x)
        if x == f:
            return digamma_integer(int(f))
        if x - f == 0.5:
            return digamma_half_integer(int(f))
    return digamma(x)
