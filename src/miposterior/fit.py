"""Closed-form density approximations matched to posterior moments of I.

Two-moment fits (normal, gamma, lognormal) are closed-form parameter
inversions. The four-moment fit modulates a base density p0 with a quadratic,
    p(I) ∝ (1 + b I + c I^2) * p0(I | mu, s2),
and solves algebraically for (b, c, mu, s2) so the first four raw moments
match. The modulated density is a signed approximant: it may dip negative
for extreme inputs, which is detected and reported rather than rejected.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ValidationError

TWO_MOMENT_FAMILIES = ("normal", "gamma", "lognormal")


def gammaincc(a, x):
    """scipy.special.gammaincc. scipy.special takes about 0.3 s to import and
    only the gamma tails need it here, so the first call imports it and
    rebinds this name to it."""
    global gammaincc
    from scipy.special import gammaincc
    return gammaincc(a, x)


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


def _normal_raw(mu: float, s2: float, kmax: int) -> list[float]:
    # m_k = mu m_{k-1} + (k-1) s2 m_{k-2}
    g = [1.0, mu]
    for k in range(2, kmax + 1):
        g.append(mu * g[k - 1] + (k - 1) * s2 * g[k - 2])
    return g


def _gamma_raw(shape: float, scale: float, kmax: int) -> list[float]:
    g = [1.0]
    for k in range(1, kmax + 1):
        g.append(g[-1] * (shape + k - 1) * scale)
    return g


def _lognormal_raw(lmean: float, lvar: float, kmax: int) -> list[float]:
    return [math.exp(k * lmean + 0.5 * k * k * lvar) for k in range(kmax + 1)]


def fit_two_moment(mean: float, variance: float, family: str) -> FitResult:
    """Closed-form two-moment fit; reproduces mean and variance exactly."""
    if variance <= 0:
        raise ValidationError("two-moment fit requires variance > 0")
    if family == "normal":
        if mean < 0:
            raise ValidationError("normal fit requires mean >= 0")
        params = {"mean": mean, "variance": variance}
        raw = tuple(_normal_raw(mean, variance, 4)[1:])
    elif family == "gamma":
        if mean <= 0:
            raise ValidationError("gamma fit requires mean > 0")
        shape = mean * mean / variance
        scale = variance / mean
        params = {"shape": shape, "scale": scale}
        raw = tuple(_gamma_raw(shape, scale, 4)[1:])
    elif family == "lognormal":
        if mean <= 0:
            raise ValidationError("lognormal fit requires mean > 0")
        lvar = math.log1p(variance / (mean * mean))
        lmean = math.log(mean) - 0.5 * lvar
        params = {"log_mean": lmean, "log_variance": lvar}
        raw = tuple(_lognormal_raw(lmean, lvar, 4)[1:])
    else:
        raise ValidationError(
            "unknown family %r; expected one of %s" % (family, TWO_MOMENT_FAMILIES)
        )
    return FitResult(family, params, raw)


def _base_raw(base: str, mu: float, s2: float, kmax: int) -> list[float] | None:
    if s2 <= 0:
        return None
    if base == "gamma":
        if mu <= 0:
            return None
        return _gamma_raw(mu * mu / s2, s2 / mu, kmax)
    return _normal_raw(mu, s2, kmax)


def _ansatz_raw(x: tuple, base: str, kmax: int = 4) -> list[float] | None:
    """Raw moments 1..kmax of the modulated density, or None off-domain."""
    b, c, mu, s2 = x
    g = _base_raw(base, mu, s2, kmax + 2)
    if g is None:
        return None
    z = 1.0 + b * g[1] + c * g[2]
    if abs(z) < 1e-12:
        return None
    return [(g[k] + b * g[k + 1] + c * g[k + 2]) / z for k in range(1, kmax + 1)]


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


def _gamma_bases(m1: float, var: float, k3: float, k4: float) -> list:
    """(mu, s2) of every gamma base Gamma(alpha, 1/phi) for which the ansatz
    has the raw moments m1..m4.

    The resultant is phi^6 times a polynomial of degree 6 in phi. That
    polynomial's real positive roots, in units of phi0 = m1 / var (the
    two-moment gamma's rate), only locate the rates: each is bisected to
    machine precision on the resultant evaluated from the shape moments,
    inside a bracket that reaches halfway to its neighbours. Then
    alpha = e1 + tau.
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
        phi = phi0 * y
        lo_pos = resultant(lo) > 0
        if (resultant(hi) > 0) != lo_pos:
            for _ in range(60):  # the bracket is at most 1.5 phi wide
                mid = 0.5 * (lo + hi)
                if (resultant(mid) > 0) == lo_pos:
                    lo = mid
                else:
                    hi = mid
            phi = 0.5 * (lo + hi)
        e1, c2, c3, c4 = _shape_moments(phi, m1, var, k3, k4)
        den = 9.0 * c2**3 - 2.0 * c2 * c2 - c2 * c4 + 3.0 * c3 * c3
        if den == 0.0:
            continue
        alpha = e1 + c3 * (3.0 * c2 * c2 - c2 + c4) / den - 1.0
        if alpha > 0.0:
            out.append((alpha / phi, alpha / (phi * phi)))
    return out


def _modulated(base: str, mu: float, s2: float, m1: float, m2: float):
    """(b, c, mu, s2), with the (b, c) that give the modulated base density
    the mean m1 and the second raw moment m2, or None if none do. With the
    base fixed these two conditions are linear in (b, c); when the base solves
    the orthogonal-polynomial conditions the third and fourth moments then
    match as well."""
    g = _base_raw(base, mu, s2, 4)
    a11, a12, r1 = g[2] - m1 * g[1], g[3] - m1 * g[2], m1 - g[1]
    a21, a22, r2 = g[3] - m2 * g[1], g[4] - m2 * g[2], m2 - g[2]
    det = a11 * a22 - a12 * a21
    if det == 0.0:
        return None
    return (r1 * a22 - a12 * r2) / det, (a11 * r2 - r1 * a21) / det, mu, s2


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
    gamma base, a resultant, whose roots are then bisected to machine
    precision). (b, c) then follow linearly.
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
    m = np.array([m1, m2, m3, m4])
    warnings = []
    hankel = np.array([[1.0, m1, m2], [m1, m2, m3], [m2, m3, m4]])
    if np.linalg.eigvalsh(hankel)[0] < -1e-14 * np.abs(hankel).max():
        # Realizable only by a signed density; the modulated ansatz is one.
        warnings.append("moment sequence is not classically realizable (indefinite Hankel)")

    def residual(x) -> float:
        mus = _ansatz_raw(x, base)
        return math.inf if mus is None else float(np.max(np.abs(np.asarray(mus) / m - 1.0)))

    def grid_max(x) -> float:
        return support_max if support_max is not None else x[2] + 10.0 * math.sqrt(x[3])

    def nonnegative(x) -> bool:
        b, c, mu, s2 = x
        g = _base_raw(base, mu, s2, 2)
        grid = np.linspace(0.0, grid_max(x), 1024)
        poly = 1.0 + b * grid + c * grid * grid
        return bool(np.all(poly * np.sign(1.0 + b * g[1] + c * g[2]) >= 0))

    plain = (0.0, 0.0, m1, var)
    if residual(plain) <= 1e-8:
        candidates = [plain]
    else:
        k3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
        k4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
        bases = (_gamma_bases if base == "gamma" else _normal_bases)(m1, var, k3, k4)
        candidates = [x for x in (_modulated(base, mu, s2, m1, m2) for mu, s2 in bases)
                      if x is not None]
    best = math.inf
    roots = {}
    for x in candidates:
        r = residual(x)
        best = min(best, r)
        if r <= 1e-8:
            # A repeated polynomial root gives the same density twice.
            key = (round((x[2] - m1) / math.sqrt(var), 6), round(x[3] / var, 6))
            roots.setdefault(key, x)
    if not roots:
        raise FitError(
            "four-moment fit (%s base): no root of the moment equations meets "
            "the 1e-8 residual contract (best residual %.3g)" % (base, best),
            residual=best,
        )
    neg, _, x = min(((not nonnegative(x), abs(math.log(x[3] / var)), x)
                     for x in roots.values()), key=lambda t: t[:2])
    b, c, mu, s2 = x
    g = _base_raw(base, mu, s2, 2)
    z = 1.0 + b * g[1] + c * g[2]
    params = {"b": b, "c": c, "mu": mu, "sigma2": s2, "base": base,
              "normalization": z}
    if base == "gamma":
        params["base_shape"] = mu * mu / s2
        params["base_scale"] = s2 / mu

    hi = grid_max(x)
    if neg:
        warnings.append("fitted density dips negative on [0, %.6g]" % hi)
    diagnostics = {
        "roots_found": len(roots),
        "residual": residual(x),
        "density_nonnegative": not neg,
        "nonnegativity_grid_max": hi,
        "warnings": warnings,
    }
    return FitResult("poly_ansatz", params,
                     tuple(_ansatz_raw(x, base)), diagnostics)


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
    if i_star < 0:
        raise ValidationError("threshold must be >= 0")
    if f.family == "normal":
        mu, s2 = f.params["mean"], f.params["variance"]
        return 0.5 * math.erfc((i_star - mu) / math.sqrt(2.0 * s2))
    if f.family == "gamma":
        return float(gammaincc(f.params["shape"], i_star / f.params["scale"]))
    if f.family == "lognormal":
        if i_star <= 0:
            return 1.0
        lm, lv = f.params["log_mean"], f.params["log_variance"]
        return 0.5 * math.erfc((math.log(i_star) - lm) / math.sqrt(2.0 * lv))
    if f.family == "poly_ansatz":
        p = f.params
        b, c, z = p["b"], p["c"], p["normalization"]
        if p["base"] == "gamma":
            # Tail integrals of x^k p0 reduce to upper incomplete gammas.
            shape, scale = p["base_shape"], p["base_scale"]
            g = _gamma_raw(shape, scale, 2)
            t = [g[k] * float(gammaincc(shape + k, i_star / scale)) for k in range(3)]
            return (t[0] + b * t[1] + c * t[2]) / z
        return survival_quad(f, i_star)
    raise ValidationError("unknown family %r" % f.family)


def survival_quad(f: FitResult, i_star: float) -> float:
    """Tail probability by adaptive quadrature; cross-check for survival()."""
    from scipy.integrate import quad

    val, _ = quad(lambda x: density(f, np.array([x]))[0], i_star, math.inf,
                  epsabs=1e-9, limit=200)
    return float(val)
