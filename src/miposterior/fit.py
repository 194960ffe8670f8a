"""Closed-form density approximations matched to posterior moments of I.

Two-moment fits (normal, gamma, lognormal) are closed-form parameter
inversions. The four-moment fit modulates a base density p0 with a quadratic,
    p(I) ∝ (1 + b I + c I^2) * p0(I | mu, s2),
and solves algebraically for (b, c, mu, s2) so the first four raw moments
match. The modulated density is a signed approximant: it may dip negative
for extreme inputs, which is detected exactly and reported rather than
rejected.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import FitError, ValidationError

TWO_MOMENT_FAMILIES = ("normal", "gamma", "lognormal")


@dataclass(frozen=True)
class FitResult:
    """A fitted density family with its achieved moments and diagnostics."""

    family: str  # normal | gamma | lognormal | poly_ansatz
    params: dict
    moments_achieved: tuple  # first four raw moments of the fitted density
    diagnostics: dict = field(default_factory=dict)


def central_to_raw(mean: float, var: float, mu3: float, mu4: float) -> tuple:
    """First four raw moments from mean and central moments 2..4."""
    m1 = mean
    m2 = var + m1**2
    m3 = mu3 + 3.0 * var * m1 + m1**3
    m4 = mu4 + 4.0 * mu3 * m1 + 6.0 * var * m1**2 + m1**4
    return m1, m2, m3, m4


def _tails(base: str, mu: float, s2: float, kmax: int, t: float | None = None) -> list:
    """[T_0, ..., T_kmax], T_k = int_t^inf x^k p0(x) dx for the normal or gamma
    density p0 with mean mu and variance s2; without t, the raw moments.

    Gamma: T_k = E0[x^k] Q(shape + k, t / scale). Normal, by parts:
    T_k = mu T_(k-1) + (k-1) s2 T_(k-2) + t^(k-1) s2 p0(t); the last term is
    skipped where s2 p0(t) is 0, so far-out and infinite t give 0.0.
    """
    if base == "gamma":
        shape, scale = mu * mu / s2, s2 / mu
        out = [1.0]
        for k in range(1, kmax + 1):
            out.append(out[-1] * (shape + k - 1) * scale)
        if t is None:
            return out
        return [g * float(special.gammaincc(shape + k, t / scale))
                for k, g in enumerate(out)]
    out, edge = [1.0], 0.0
    if t is not None:
        d = t - mu  # d * d overflows to inf where d ** 2 would raise
        out = [0.5 * math.erfc(d / math.sqrt(2.0 * s2))]
        edge = math.exp(-0.5 * d * d / s2) * math.sqrt(0.5 * s2 / math.pi)
    for k in range(1, kmax + 1):
        tk = mu * out[k - 1]
        if k > 1:
            tk += (k - 1) * s2 * out[k - 2]
        if edge:
            tk += t ** (k - 1) * edge
        out.append(tk)
    return out


def fit_two_moment(mean: float, variance: float, family: str) -> FitResult:
    """Closed-form two-moment fit; reproduces mean and variance exactly."""
    if variance <= 0:
        raise ValidationError("two-moment fit requires variance > 0")
    if family == "normal":
        if mean < 0:
            raise ValidationError("normal fit requires mean >= 0")
        params = {"mean": mean, "variance": variance}
        raw = tuple(_tails("normal", mean, variance, 4)[1:])
    elif family == "gamma":
        if mean <= 0:
            raise ValidationError("gamma fit requires mean > 0")
        params = {"shape": mean * mean / variance, "scale": variance / mean}
        raw = tuple(_tails("gamma", mean, variance, 4)[1:])
    elif family == "lognormal":
        if mean <= 0:
            raise ValidationError("lognormal fit requires mean > 0")
        lvar = math.log1p(variance / (mean * mean))
        lmean = math.log(mean) - 0.5 * lvar
        params = {"log_mean": lmean, "log_variance": lvar}
        raw = tuple(math.exp(k * lmean + 0.5 * k * k * lvar) for k in range(1, 5))
    else:
        raise ValidationError(
            "unknown family %r; expected one of %s" % (family, TWO_MOMENT_FAMILIES)
        )
    return FitResult(family, params, raw)


def _normal_bases(m1: float, var: float, k3: float, k4: float) -> list:
    """(mu, s2) of every normal base with E[He_3] = E[He_4] = 0.

    In units of the standard deviation, with delta = (m1 - mu) / sd and
    w = s2 / var - 1, the two conditions read
        delta^3 - 3 w delta + k3 = 0,
        3 w^2 - 3 delta^2 w + 3 k3 delta + (k4 - 3) = 0,
    and eliminating w leaves 2 delta^6 - 8 k3 delta^3 + (9 - 3 k4) delta^2
    - k3^2 = 0. Each real delta gives w from the second condition (both
    signs; the residual check keeps the one that also solves the first),
    which stays accurate as delta -> 0, where the symmetric branch lives.
    """
    sd = math.sqrt(var)
    k3 = k3 / (var * sd)
    k4 = k4 / (var * var)
    deltas = np.roots([2.0, 0.0, 0.0, -8.0 * k3, 9.0 - 3.0 * k4, 0.0, -k3 * k3])
    deltas = deltas.real[np.abs(deltas.imag) <= 1e-6 * np.maximum(1.0, np.abs(deltas))]
    out = []
    for d in deltas.tolist():
        half = 1.5 * d * d
        disc = half * half - (3.0 * k3 * d + k4 - 3.0) * 3.0
        if disc < 0.0:
            continue
        for w in ((half + math.sqrt(disc)) / 3.0, (half - math.sqrt(disc)) / 3.0):
            if w > -1.0:
                out.append((m1 - d * sd, var * (1.0 + w)))
    return out


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two polynomials held as 13 ascending coefficients; the
    resultant has degree 12, so no kept coefficient is lost."""
    return np.convolve(a, b)[:13]


def _shape_moments(phi, m1: float, var: float, k3: float, k4: float,
                   mul=operator.mul) -> tuple:
    """E[a] = e1 and the central moments c2, c3, c4 of the shape a, for the
    gamma base at rate phi: values for a float phi or, with mul=_poly_mul
    and phi given by its coefficients as a polynomial, coefficients.

    The ansatz is the signed mixture sum_j w_j Gamma(alpha + j, 1/phi),
    j = 0, 1, 2. A Gamma(a, 1) variable has raw moments a, a(a+1),
    a(a+1)(a+2), ..., so u = x phi has E[u^k] = E_w[a (a+1) ... (a+k-1)].
    The relations are written about e1 so that no power of e1 is formed and
    then cancelled.
    """
    phi2 = mul(phi, phi)
    e1 = m1 * phi
    c2 = var * phi2 - e1
    c3 = k3 * mul(phi2, phi) - 3.0 * c2 - 2.0 * e1
    c4 = ((k4 - 3.0 * var * var) * mul(phi2, phi2) + 3.0 * mul(c2, c2)
          - 6.0 * c3 - 11.0 * c2 - 6.0 * e1)
    return e1, c2, c3, c4


# The shape moments sit on the three atoms e1 + tau + {0, 1, 2} exactly when,
# with t = a - e1 and P(t) = (t - tau)(t - tau - 1)(t - tau - 2),
#     E[P(t)]   = -tau^3 - 3 tau^2 - (3 c2 + 2) tau + c3 - 3 c2 = 0,
#     E[t P(t)] = 3 c2 tau^2 + (6 c2 - 3 c3) tau + c4 - 3 c3 + 2 c2 = 0.
# _resultant is their Sylvester resultant in tau, expanded: it vanishes where
# they share a root. That root is the root of the first subresultant,
# (9 c2^3 - 2 c2^2 - c2 c4 + 3 c3^2) (tau + 1) = c3 (3 c2^2 - c2 + c4).

def _resultant(c2, c3, c4, mul=operator.mul):
    c22, c33, c44 = mul(c2, c2), mul(c3, c3), mul(c4, c4)
    c222, c2222 = mul(c22, c2), mul(c22, c22)
    return (mul(c44, c4) + 3.0 * mul(c2, c44) - 18.0 * mul(c22, c44)
            + mul(81.0 * c2222 - 18.0 * c222 + 54.0 * mul(c2, c33) - 9.0 * c33, c4)
            - 27.0 * mul(c33, c33) - mul(54.0 * c222 + 27.0 * c22 - 9.0 * c2, c33)
            - 81.0 * mul(c2222, c2) + 36.0 * c2222 - 4.0 * c222)


def _sign_change(f, x: float, lo: float, hi: float) -> float:
    """x, a root of f located to about 1e-9 relative, moved to where the
    floating-point f changes sign between adjacent floats, or to a float
    where f is exactly 0.

    The search brackets [x (1 - 1e-8), x (1 + 1e-8)], or [lo, hi] when f
    takes the same side (f > 0 or not) at both ends of that; when it does at
    both ends of [lo, hi] too, x is returned. Each step is an Illinois
    regula falsi step, kept at least one float inside the bracket, or a
    bisection when the last two steps did not halve it. On the gamma-base
    fits of tests/test_ansatz_report.py the first bracket held all 424
    roots, at 5.6 evaluations of f per root (a fixed 60-step bisection took
    62). The float resultant can change sign more than once within a few
    ulps of a root; then any of those changes may be the one found.
    """
    for a, b in ((x * (1.0 - 1e-8), x * (1.0 + 1e-8)), (lo, hi)):
        fa, fb = f(a), f(b)
        if fa == 0.0 or fb == 0.0:
            return a if fa == 0.0 else b
        if (fa > 0.0) != (fb > 0.0):
            break
    else:
        return x
    moved, two_ago, one_ago = None, math.inf, math.inf
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
        t = a + (b - a) * (fa / (fa - fb))
        if not a <= t <= b or b - a > 0.5 * two_ago:
            t = mid
        t = min(max(t, math.nextafter(a, b)), math.nextafter(b, a))
        two_ago, one_ago = one_ago, b - a
        ft = f(t)
        if ft == 0.0:
            return t
        # Illinois: an end kept twice in a row has its value halved, so the
        # next step lands past the root rather than beside the moved end.
        if (ft > 0.0) == (fa > 0.0):
            a, fa = t, ft
            if moved == "a":
                fb *= 0.5
            moved = "a"
        else:
            b, fb = t, ft
            if moved == "b":
                fa *= 0.5
            moved = "b"


def _gamma_bases(m1: float, var: float, k3: float, k4: float) -> list:
    """(mu, s2) of every gamma base Gamma(alpha, 1/phi) for which the ansatz
    has the raw moments m1..m4.

    The resultant is phi^6 times a polynomial of degree 6 in phi. That
    polynomial's real positive roots, in units of phi0 = m1 / var (the
    two-moment gamma's rate), only locate the rates: _sign_change moves each
    to where the resultant, evaluated from the shape moments, changes sign
    between adjacent floats, searching first within 1e-8 of it and then in a
    bracket that reaches halfway to its neighbours. Then alpha = e1 + tau.
    """
    def resultant(phi):
        return _resultant(*_shape_moments(phi, m1, var, k3, k4)[1:])

    phi0 = m1 / var
    phi_of_y = np.zeros(13)
    phi_of_y[1] = phi0
    coef = _resultant(*_shape_moments(phi_of_y, m1, var, k3, k4, _poly_mul)[1:], _poly_mul)
    # Highest first; a leading coefficient that is rounding noise (zero when
    # k3 = k4 = 0) would only add a root near infinity, but it would also
    # spoil the companion matrix that locates the others.
    coef = coef[:5:-1]
    ys = np.roots(coef[np.argmax(np.abs(coef) > 1e-12 * np.abs(coef).max()):])
    ys = np.unique(ys.real[(ys.real > 0.0) & (np.abs(ys.imag) <= 1e-6 * np.abs(ys))])
    edges = phi0 * np.concatenate((0.5 * ys[:1], 0.5 * (ys[1:] + ys[:-1]), 2.0 * ys[-1:]))
    out = []
    for y, lo, hi in zip(ys.tolist(), edges[:-1].tolist(), edges[1:].tolist()):
        phi = _sign_change(resultant, phi0 * y, lo, hi)
        e1, c2, c3, c4 = _shape_moments(phi, m1, var, k3, k4)
        den = 9.0 * c2**3 - 2.0 * c2 * c2 - c2 * c4 + 3.0 * c3 * c3
        if den == 0.0:
            continue
        alpha = e1 + c3 * (3.0 * c2 * c2 - c2 + c4) / den - 1.0
        if alpha > 0.0:
            out.append((alpha / phi, alpha / (phi * phi)))
    return out


def _candidate(base: str, mu: float, s2: float, m: tuple, solve: bool = True):
    """(b, c, mu, s2, z, raw moments 1..4, residual) of the modulated base
    density (1 + b x + c x^2) p0(x | mu, s2) / z, or None if no (b, c) exist
    or z is near 0. With the base fixed, matching the mean m[0] and the second
    raw moment m[1] is linear in (b, c); when the base solves the
    orthogonal-polynomial conditions the third and fourth moments then match
    as well. Without solve, b = c = 0: the base alone. The residual is the
    largest relative miss of the moments m."""
    g = _tails(base, mu, s2, 6)
    b = c = 0.0
    if solve:
        m1, m2 = m[0], m[1]
        a11, a12, r1 = g[2] - m1 * g[1], g[3] - m1 * g[2], m1 - g[1]
        a21, a22, r2 = g[3] - m2 * g[1], g[4] - m2 * g[2], m2 - g[2]
        det = a11 * a22 - a12 * a21
        if det == 0.0:
            return None
        b, c = (r1 * a22 - a12 * r2) / det, (a11 * r2 - r1 * a21) / det
    z = 1.0 + b * g[1] + c * g[2]
    if abs(z) < 1e-12:
        return None
    raw = tuple((g[k] + b * g[k + 1] + c * g[k + 2]) / z for k in range(1, 5))
    return b, c, mu, s2, z, raw, float(np.max(np.abs(np.asarray(raw) / m - 1.0)))


def _nonnegative(x: tuple, hi: float) -> bool:
    """Whether the candidate x's density q(t) p0(t) / z, q(t) = 1 + b t + c t^2,
    is >= 0 for every t between 0 and hi. As q(0) = 1, exactly when z > 0,
    q(hi) >= 0, and q has no negative vertex -b / (2c) strictly inside:
    b^2 > 4c with 0 < -b hi < 2c hi^2 (the vertex between 0 and hi,
    multiplied through by 2c hi^2; it also needs c > 0)."""
    b, c, z = x[0], x[1], x[4]
    return z > 0.0 and 1.0 + b * hi + c * hi * hi >= 0.0 and not (
        0.0 < -b * hi < 2.0 * c * hi * hi and b * b > 4.0 * c)


def fit_poly_ansatz(
    m1: float,
    m2: float,
    m3: float,
    m4: float,
    base: str = "gamma",
    support_max: float | None = None,
) -> FitResult:
    """Match four raw moments with a quadratic-modulated base density.

    If p0 has orthogonal polynomials P_k, then (1 + b x + c x^2) p0
    integrates every P_k with k >= 3 to zero, so the four moments are
    matched exactly when E_m[P_3] = E_m[P_4] = 0, expectations formed from
    m1..m4. Those are two polynomial equations in the base's two parameters,
    solved directly: each base leads to a polynomial of degree 6 (for the
    gamma base, a resultant, whose roots are then refined to a sign change
    of the float resultant between adjacent floats). (b, c) then follow
    linearly.
    Residual contract: every moment matched to 1e-8 relative.

    Of the exact roots, the one whose density is non-negative on
    [0, support_max] is preferred; among those (or among all, if none is),
    the one whose base variance is closest to the moments' variance in ratio.
    When the base alone meets the contract, b = c = 0.
    """
    if base not in ("normal", "gamma"):
        raise ValidationError("ansatz base must be normal or gamma")
    if m1 <= 0:
        raise ValidationError("ansatz fit requires m1 > 0")
    var = m2 - m1 * m1
    if var <= 0:
        raise ValidationError("invalid moment sequence: m2 <= m1^2")
    m = (m1, m2, m3, m4)
    warnings = []
    hankel = np.array([[1.0, m1, m2], [m1, m2, m3], [m2, m3, m4]])
    if np.linalg.eigvalsh(hankel)[0] < -1e-14 * np.abs(hankel).max():
        # Realizable only by a signed density; the modulated ansatz is one.
        warnings.append("moment sequence is not classically realizable (indefinite Hankel)")

    plain = _candidate(base, m1, var, m, solve=False)
    if plain[6] <= 1e-8:
        candidates = [plain]
    else:
        k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
        k4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        bases = (_gamma_bases if base == "gamma" else _normal_bases)(m1, var, k3, k4)
        candidates = [x for x in (_candidate(base, mu, s2, m) for mu, s2 in bases)
                      if x is not None]
    best = math.inf
    roots = {}
    for x in candidates:
        best = min(best, x[6])
        if x[6] <= 1e-8:
            # A repeated polynomial root gives the same density twice.
            key = (round((x[2] - m1) / math.sqrt(var), 6), round(x[3] / var, 6))
            roots.setdefault(key, x)
    if not roots:
        raise FitError(
            "four-moment fit (%s base): no root of the moment equations meets "
            "the 1e-8 residual contract (best residual %.3g)" % (base, best),
            residual=best,
        )
    ranked = []
    for x in roots.values():
        hi = x[2] + 10.0 * math.sqrt(x[3]) if support_max is None else support_max
        ranked.append((not _nonnegative(x, hi), abs(math.log(x[3] / var)), hi, x))
    neg, _, hi, (b, c, mu, s2, z, raw, residual) = min(ranked, key=lambda t: t[:2])
    params = {"b": b, "c": c, "mu": mu, "sigma2": s2, "base": base,
              "normalization": z}
    if base == "gamma":
        params["base_shape"] = mu * mu / s2
        params["base_scale"] = s2 / mu

    if neg:
        warnings.append("fitted density dips negative on [0, %.6g]" % hi)
    diagnostics = {
        "roots_found": len(roots),
        "residual": residual,
        "density_nonnegative": not neg,
        "nonnegativity_grid_max": hi,
        "warnings": warnings,
    }
    return FitResult("poly_ansatz", params, raw, diagnostics)


def density(f: FitResult, x: np.ndarray) -> np.ndarray:
    """Evaluate the fitted density pointwise (vectorized)."""
    x = np.asarray(x, dtype=float)
    if f.family == "normal":
        mu, s2 = f.params["mean"], f.params["variance"]
        return np.exp(-0.5 * (x - mu) ** 2 / s2) / math.sqrt(2.0 * math.pi * s2)
    if f.family == "gamma":
        # exp((a-1) log y - y - lgamma(a)) / theta with y = x / theta, in the
        # order scipy.stats.gamma.pdf uses; 0 off the support x > 0.
        a, theta = f.params["shape"], f.params["scale"]
        out = np.zeros_like(x)
        pos = x > 0
        y = x[pos] / theta
        out[pos] = np.exp((a - 1.0) * np.log(y) - y - math.lgamma(a)) / theta
        return out
    if f.family == "lognormal":
        lm, lv = f.params["log_mean"], f.params["log_variance"]
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-0.5 * (np.log(x[pos]) - lm) ** 2 / lv) / (
            x[pos] * math.sqrt(2.0 * math.pi * lv)
        )
        return out
    if f.family == "poly_ansatz":
        p = f.params
        base_fit = (
            FitResult("gamma", {"shape": p["base_shape"], "scale": p["base_scale"]}, ())
            if p["base"] == "gamma"
            else FitResult("normal", {"mean": p["mu"], "variance": p["sigma2"]}, ())
        )
        poly = 1.0 + p["b"] * x + p["c"] * x * x
        return poly * density(base_fit, x) / p["normalization"]
    raise ValidationError("unknown family %r" % f.family)


def survival(f: FitResult, i_star: float) -> float:
    """Upper-tail probability p(I > i_star) of the fitted density."""
    if not i_star >= 0:
        raise ValidationError("threshold must be >= 0")
    p = f.params
    if f.family == "normal":
        return _tails("normal", p["mean"], p["variance"], 0, i_star)[0]
    if f.family == "gamma":
        return float(special.gammaincc(p["shape"], i_star / p["scale"]))
    if f.family == "lognormal":
        t = math.log(i_star) if i_star > 0 else -math.inf
        return _tails("normal", p["log_mean"], p["log_variance"], 0, t)[0]
    if f.family == "poly_ansatz":
        t = _tails(p["base"], p["mu"], p["sigma2"], 2, i_star)
        return (t[0] + p["b"] * t[1] + p["c"] * t[2]) / p["normalization"]
    raise ValidationError("unknown family %r" % f.family)


def survival_quad(f: FitResult, i_star: float) -> float:
    """Tail probability by adaptive quadrature; cross-check for survival()."""
    from scipy.integrate import quad

    val, _ = quad(lambda x: density(f, np.array([x]))[0], i_star, math.inf,
                  epsabs=1e-9, limit=200)
    return float(val)
