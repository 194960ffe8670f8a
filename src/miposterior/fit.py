"""Closed-form density approximations matched to posterior moments of I.

Two-moment fits (normal, gamma, lognormal) are closed-form parameter
inversions. The four-moment fit modulates a base density p0 with a quadratic,
    p(I) ∝ (1 + b I + c I^2) * p0(I | mu, s2),
and solves for (b, c, mu, s2) so the first four raw moments match. The
modulated density is a signed approximant: it may dip negative for extreme
inputs, which is detected and reported rather than rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, gammaincc

from .errors import FitError, ValidationError

TWO_MOMENT_FAMILIES = ("normal", "gamma", "lognormal")


def root(*args, **kwargs):
    """scipy.optimize.root, imported on the first call: only the four-moment
    fit needs it, so importing the package does not pay for loading it."""
    from scipy.optimize import root as _root

    return _root(*args, **kwargs)


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


def _ansatz_raw(x: np.ndarray, base: str, kmax: int = 4) -> list[float] | None:
    """Raw moments 1..kmax of the modulated density, or None off-domain."""
    b, c, mu, s2 = x
    g = _base_raw(base, mu, s2, kmax + 2)
    if g is None:
        return None
    z = 1.0 + b * g[1] + c * g[2]
    if abs(z) < 1e-12:
        return None
    return [(g[k] + b * g[k + 1] + c * g[k + 2]) / z for k in range(1, kmax + 1)]


def fit_poly_ansatz(
    m1: float,
    m2: float,
    m3: float,
    m4: float,
    base: str = "gamma",
    support_max: float | None = None,
    max_starts: int = 200,
) -> FitResult:
    """Match four raw moments with a quadratic-modulated base density.

    Solved as 4-d root finding (MINPACK hybrid Newton, finite-difference
    Jacobian) from the natural initial guess b = c = 0, mu = m1,
    s2 = m2 - m1^2, with deterministic scaled restarts when a start stalls.
    Residual contract: every moment matched to 1e-8 relative.
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

    def resid(x: np.ndarray) -> np.ndarray:
        mus = _ansatz_raw(x, base)
        if mus is None:
            return 1e3 + np.abs(x)  # push the solver back on-domain
        return np.asarray(mus) / m - 1.0

    starts = [np.array([0.0, 0.0, m1, var])]
    rng = np.random.default_rng(20011215)
    for _ in range(max_starts - 1):
        starts.append(np.array([
            rng.normal(0.0, 2.0) / m1,
            rng.normal(0.0, 2.0) / (m1 * m1),
            m1 * rng.uniform(0.3, 3.0),
            var * math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
        ]))
    best = math.inf
    x = None
    tried = 0
    for x0 in starts:
        tried += 1
        sol = root(resid, x0, method="hybr", options={"maxfev": 800})
        r = float(np.max(np.abs(resid(sol.x))))
        if r < best:
            best, x = r, sol.x
        if best <= 1e-8:
            break
    if best > 1e-8:
        raise FitError(
            "four-moment fit did not converge after %d starts (best residual %.3g)"
            % (tried, best),
            residual=best,
        )
    b, c, mu, s2 = (float(v) for v in x)
    g = _base_raw(base, mu, s2, 2)
    z = 1.0 + b * g[1] + c * g[2]
    params = {"b": b, "c": c, "mu": mu, "sigma2": s2, "base": base,
              "normalization": z}
    if base == "gamma":
        params["base_shape"] = mu * mu / s2
        params["base_scale"] = s2 / mu

    # Non-negativity of the modulated polynomial on the reported support.
    hi = support_max if support_max is not None else mu + 10.0 * math.sqrt(s2)
    grid = np.linspace(0.0, hi, 1024)
    poly = 1.0 + b * grid + c * grid * grid
    nonneg = bool(np.all(poly * np.sign(z) >= 0))
    if not nonneg:
        warnings.append("fitted density dips negative on [0, %.6g]" % hi)
    diagnostics = {
        "starts_tried": tried,
        "residual": best,
        "density_nonnegative": nonneg,
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
        from scipy.stats import gamma as _gamma_dist

        return _gamma_dist.pdf(x, f.params["shape"], scale=f.params["scale"])
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
        return 0.5 * erfc((i_star - mu) / math.sqrt(2.0 * s2))
    if f.family == "gamma":
        return float(gammaincc(f.params["shape"], i_star / f.params["scale"]))
    if f.family == "lognormal":
        if i_star <= 0:
            return 1.0
        lm, lv = f.params["log_mean"], f.params["log_variance"]
        return 0.5 * erfc((math.log(i_star) - lm) / math.sqrt(2.0 * lv))
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
