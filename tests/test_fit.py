import math
import subprocess
import sys

import numpy as np
import pytest

from miposterior import (
    CountsTable,
    FitError,
    FitResult,
    PriorSpec,
    ValidationError,
    apply_prior,
    central_to_raw,
    density,
    fit_poly_ansatz,
    fit_two_moment,
    summarize,
    survival,
)
from miposterior.fit import (
    _ansatz_raw,
    _tails,
    _poly_mul,
    _resultant,
    _shape_moments,
    survival_quad,
)


def cli_moments(rows):
    """The raw moments and support bound that `--prior jeffreys --fit ansatz`
    hands to the fit for a table."""
    post = apply_prior(CountsTable(np.array(rows, dtype=float)), PriorSpec("jeffreys"))
    s = summarize(post)
    var = s.var_o2 if math.isfinite(s.var_o2) and s.var_o2 > 0 else s.var_o1
    return central_to_raw(s.mean_exact, var, s.central3, s.central4), s.i_max * 1.05


def nonnegative(x, base, hi):
    b, c, mu, s2 = x
    grid = np.linspace(0.0, hi, 1024)
    g1, g2 = _ansatz_raw((0.0, 0.0, mu, s2), base, 2)
    return bool(np.all((1.0 + b * grid + c * grid * grid)
                       * np.sign(1.0 + b * g1 + c * g2) >= 0))


def roots_by_restarts(raw, base, starts=60):
    """Exact roots reached by MINPACK from seeded random starts (the fit's
    former method), as an independent reference for the algebraic solve."""
    from scipy.optimize import root

    m = np.array(raw)
    m1, var = raw[0], raw[1] - raw[0] ** 2

    def resid(x):
        mus = _ansatz_raw(x, base)
        return 1e3 + np.abs(x) if mus is None else np.asarray(mus) / m - 1.0

    rng = np.random.default_rng(20011215)
    found = []
    for _ in range(starts):
        x0 = [rng.normal(0.0, 2.0) / m1, rng.normal(0.0, 2.0) / (m1 * m1),
              m1 * rng.uniform(0.3, 3.0), var * math.exp(rng.uniform(-2.3, 2.3))]
        sol = root(resid, x0, method="hybr", options={"maxfev": 800})
        if np.max(np.abs(resid(sol.x))) <= 1e-8:
            found.append(sol.x)
    return found


class TestTwoMoment:
    def test_exponential(self):
        f = fit_two_moment(1.0, 1.0, "gamma")
        assert f.params["shape"] == pytest.approx(1.0)
        assert f.params["scale"] == pytest.approx(1.0)

    def test_all_ones_gamma(self):
        f = fit_two_moment(1.0 / 12.0, 1.0 / 60.0, "gamma")
        assert f.params["shape"] == pytest.approx(5.0 / 12.0, rel=1e-14)
        assert f.params["scale"] == pytest.approx(1.0 / 5.0, rel=1e-14)

    def test_lognormal_closed_form(self):
        f = fit_two_moment(0.2, 0.01, "lognormal")
        assert f.params["log_variance"] == pytest.approx(math.log(1.25), rel=1e-14)
        assert f.params["log_mean"] == pytest.approx(
            math.log(0.2) - math.log(1.25) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("family", ["normal", "gamma", "lognormal"])
    def test_moments_reproduced(self, family):
        rng = np.random.default_rng(19)
        for _ in range(100):
            mean = rng.uniform(0.01, 2.0)
            variance = mean**2 * rng.uniform(1e-4, 10.0)
            f = fit_two_moment(mean, variance, family)
            m1, m2 = f.moments_achieved[0], f.moments_achieved[1]
            assert m1 == pytest.approx(mean, rel=1e-12)
            assert m2 - m1**2 == pytest.approx(variance, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValidationError):
            fit_two_moment(1.0, 0.0, "gamma")
        with pytest.raises(ValidationError):
            fit_two_moment(-1.0, 1.0, "gamma")
        with pytest.raises(ValidationError):
            fit_two_moment(0.0, 1.0, "lognormal")
        with pytest.raises(ValidationError):
            fit_two_moment(1.0, 1.0, "weibull")


class TestPolyAnsatz:
    def test_fixed_point_gamma(self):
        base = fit_two_moment(0.3, 0.02, "gamma")
        f = fit_poly_ansatz(*base.moments_achieved, base="gamma")
        assert abs(f.params["b"]) < 1e-6
        assert abs(f.params["c"]) < 1e-6
        assert f.params["mu"] == pytest.approx(0.3, abs=1e-6)
        assert f.params["sigma2"] == pytest.approx(0.02, abs=1e-6)

    def test_gaussian_input_collapses(self):
        raw = _tails("normal", 0.5, 0.04, 4)[1:]
        f = fit_poly_ansatz(*raw, base="normal")
        assert abs(f.params["b"]) < 1e-6
        assert abs(f.params["c"]) < 1e-6

    def test_residual_contract(self):
        # moments in the style of a dependent table's posterior
        raw = central_to_raw(0.2165, 0.0129, 1.03e-3, 7.1e-4)
        for base in ("gamma", "normal"):
            f = fit_poly_ansatz(*raw, base=base)
            assert f.diagnostics["residual"] <= 1e-8
            for got, want in zip(f.moments_achieved, raw):
                assert got == pytest.approx(want, rel=1e-7)

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValidationError):
            fit_poly_ansatz(0.5, 0.2, 0.1, 0.05)  # m2 < m1^2

    @pytest.mark.parametrize("rows", [
        # Jeffreys tables on which the former 200-restart solve raised FitError
        [[36, 167, 20, 19, 18, 19], [119, 113, 31, 41, 3, 108],
         [29, 37, 14, 2, 29, 6], [14, 29, 20, 253, 65, 74],
         [47, 25, 86, 29, 98, 72], [165, 23, 14, 70, 58, 53]],
        [[163, 188, 97, 259, 39, 95], [219, 50, 88, 165, 160, 129],
         [375, 26, 95, 126, 117, 101], [179, 11, 202, 149, 14, 310],
         [131, 740, 259, 159, 103, 51]],
        [[222, 176, 132, 214], [129, 293, 224, 196], [64, 19, 72, 248],
         [227, 43, 218, 83]],
        # two exact roots whose gamma rates differ by 0.3%
        [[0, 3, 6], [0, 6, 0], [0, 1, 1], [0, 3, 2], [9, 7, 7]],
    ])
    def test_hard_tables_fit(self, rows):
        raw, hi = cli_moments(rows)
        f = fit_poly_ansatz(*raw, base="gamma", support_max=hi)
        assert f.diagnostics["residual"] <= 1e-8
        for got, want in zip(f.moments_achieved, raw):
            assert abs(got / want - 1.0) <= 1e-8

    @pytest.mark.parametrize("base", ["gamma", "normal"])
    def test_sweep_contract_and_root_rule(self, base):
        rng = np.random.default_rng(5)
        fitted = 0
        for _ in range(24):
            r, s = rng.integers(2, 6, size=2)
            per_cell = 5.0 * 32.0 ** rng.uniform()
            p = rng.dirichlet(np.ones(r * s))
            rows = rng.multinomial(round(per_cell * r * s), p).reshape(r, s)
            raw, hi = cli_moments(rows)
            try:
                f = fit_poly_ansatz(*raw, base=base, support_max=hi)
            except FitError:
                # Only a moment sequence no proper density has may go unmatched.
                hankel = np.array([[1.0, raw[0], raw[1]], [raw[0], raw[1], raw[2]],
                                   [raw[1], raw[2], raw[3]]])
                assert np.linalg.eigvalsh(hankel)[0] < 0
                continue
            fitted += 1
            assert f.diagnostics["residual"] <= 1e-8
            for got, want in zip(f.moments_achieved, raw):
                assert abs(got / want - 1.0) <= 1e-8
            assert f.diagnostics["roots_found"] >= 1
            if not f.diagnostics["density_nonnegative"]:
                assert not any(nonnegative(x, base, hi)
                               for x in roots_by_restarts(raw, base))
            if base == "gamma":
                for t in (0.5 * raw[0], raw[0], 2.0 * raw[0]):
                    assert survival(f, t) == pytest.approx(survival_quad(f, t), abs=1e-8)
        assert fitted >= 20

    def test_symmetric_moments_gamma_base(self):
        # The all-ones 2x2 table under Haldane: k3 = k4 = 0 leaves the
        # resultant's leading coefficient at rounding noise.
        raw = central_to_raw(1.0 / 12.0, 1.0 / 60.0, 0.0, 0.0)
        f = fit_poly_ansatz(*raw, base="gamma")
        assert f.diagnostics["residual"] <= 1e-8

    def test_resultant_is_sylvester_determinant(self):
        rng = np.random.default_rng(3)
        for c2, c3, c4 in rng.normal(0.0, 2.0, size=(50, 3)):
            f = [-1.0, -3.0, -(3.0 * c2 + 2.0), c3 - 3.0 * c2]
            g = [3.0 * c2, 6.0 * c2 - 3.0 * c3, c4 - 3.0 * c3 + 2.0 * c2]
            syl = np.array([f + [0.0], [0.0] + f,
                            g + [0.0, 0.0], [0.0] + g + [0.0], [0.0, 0.0] + g])
            want = np.linalg.det(syl)
            assert _resultant(c2, c3, c4) == pytest.approx(want, rel=1e-9,
                                                           abs=1e-9 * np.abs(syl).max() ** 5)

    def test_resultant_polynomial_in_the_rate(self):
        # The gamma base solves for the roots of the resultant's coefficients
        # in y = phi / phi0, after dropping the factor y^6.
        m1, var, k3, k4 = 0.2165, 0.0129, 1.03e-3, 7.1e-4
        phi0 = m1 / var
        phi_of_y = np.zeros(13)
        phi_of_y[1] = phi0
        coef = _resultant(*_shape_moments(phi_of_y, m1, var, k3, k4, _poly_mul)[1:],
                          _poly_mul)
        assert np.abs(coef[:6]).max() <= 1e-12 * np.abs(coef).max()
        for y in (0.3, 1.0, 2.5, 7.0):
            want = _resultant(*_shape_moments(phi0 * y, m1, var, k3, k4)[1:])
            got = np.polynomial.polynomial.polyval(y, coef)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * np.abs(coef).max())

    def test_indefinite_hankel_warned_not_rejected(self):
        # central moments (1/12, 1/60, 0, 0) cannot come from any proper
        # density (mu4 < mu2^2), but the signed modulated ansatz matches them
        raw = central_to_raw(1.0 / 12.0, 1.0 / 60.0, 0.0, 0.0)
        f = fit_poly_ansatz(*raw, base="normal")
        assert f.diagnostics["residual"] <= 1e-8
        assert any("Hankel" in w for w in f.diagnostics["warnings"])


class TestSurvival:
    def test_normal_base_tail_matches_quadrature_on_sweep(self):
        # The tables of test_sweep_contract_and_root_rule, normal base.
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(24):
            r, s = rng.integers(2, 6, size=2)
            per_cell = 5.0 * 32.0 ** rng.uniform()
            p = rng.dirichlet(np.ones(r * s))
            rows = rng.multinomial(round(per_cell * r * s), p).reshape(r, s)
            raw, hi = cli_moments(rows)
            try:
                f = fit_poly_ansatz(*raw, base="normal", support_max=hi)
            except FitError:
                continue
            checked += 1
            for t in (0.5 * raw[0], raw[0], 2.0 * raw[0]):
                assert survival(f, t) == pytest.approx(survival_quad(f, t), abs=1e-8)
        assert checked >= 20

    def test_normal_base_tail_loads_no_quadrature(self):
        code = (
            "import sys\n"
            "from miposterior import central_to_raw, fit_poly_ansatz, survival\n"
            "raw = central_to_raw(0.2165, 0.0129, 1.03e-3, 7.1e-4)\n"
            "f = fit_poly_ansatz(*raw, base='normal')\n"
            "p = [survival(f, t) for t in (0.0, 0.1, 0.2165, 0.5)]\n"
            "assert all(0.0 <= v <= 1.0 for v in p), p\n"
            "assert 'scipy.integrate' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_exponential_tail(self):
        f = fit_two_moment(1.0, 1.0, "gamma")
        assert survival(f, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_full_mass_at_zero(self):
        assert survival(fit_two_moment(0.4, 0.05, "gamma"), 0.0) == 1.0
        assert survival(fit_two_moment(0.4, 0.05, "lognormal"), 0.0) == 1.0

    def test_all_ones_gamma_median_below_mean(self):
        f = fit_two_moment(1.0 / 12.0, 1.0 / 60.0, "gamma")
        p = survival(f, 1.0 / 12.0)
        assert 0.0 < p < 0.5  # right-skewed: median < mean

    @pytest.mark.parametrize("family", ["normal", "gamma", "lognormal"])
    def test_monotone_and_vanishing(self, family):
        f = fit_two_moment(0.3, 0.02, family)
        xs = np.linspace(0.0, 3.0, 40)
        vals = [survival(f, x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert survival(f, 50.0) < 1e-12
        if family != "normal":
            assert 0.999 <= survival(f, 0.0) <= 1.0

    @pytest.mark.parametrize("family", ["normal", "gamma", "lognormal"])
    def test_quadrature_agrees_with_closed_form(self, family):
        f = fit_two_moment(0.3, 0.02, family)
        for x in (0.05, 0.2, 0.3, 0.6):
            assert survival(f, x) == pytest.approx(survival_quad(f, x), abs=1e-8)

    def test_poly_ansatz_closed_form_vs_quadrature(self):
        raw = central_to_raw(0.2165, 0.0129, 1.03e-3, 7.1e-4)
        f = fit_poly_ansatz(*raw, base="gamma")
        for x in (0.0, 0.1, 0.2165, 0.5):
            assert survival(f, x) == pytest.approx(survival_quad(f, x), abs=1e-8)
        assert survival(f, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            survival(fit_two_moment(1.0, 1.0, "gamma"), -0.1)

    def test_nan_threshold_rejected(self):
        raw = central_to_raw(0.2165, 0.0129, 1.03e-3, 7.1e-4)
        fits = [fit_two_moment(0.3, 0.02, fam) for fam in ("normal", "gamma", "lognormal")]
        fits += [fit_poly_ansatz(*raw, base=base) for base in ("gamma", "normal")]
        for f in fits:
            with pytest.raises(ValidationError, match="threshold must be >= 0"):
                survival(f, math.nan)

    @pytest.mark.parametrize("base", ["normal", "gamma"])
    def test_ansatz_tail_vanishes_far_out(self, base):
        # (t - mu) ** 2 overflows near t = 1e154; every tail is 0.0 beyond.
        raw = central_to_raw(0.2165, 0.0129, 1.03e-3, 7.1e-4)
        f = fit_poly_ansatz(*raw, base=base)
        for t in (1e160, 1e300, math.inf):
            assert survival(f, t) == 0.0

    @pytest.mark.parametrize("base", ["normal", "gamma"])
    def test_tails_at_zero_threshold_are_raw_moments(self, base):
        # With p0's mass on x > 0 (mu 12 sd above 0), T_k(0) = E0[x^k].
        mu, s2 = 0.3, 6.25e-4
        raw = _tails(base, mu, s2, 4)
        for got, want in zip(_tails(base, mu, s2, 4, 0.0), raw):
            assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("family", ["normal", "lognormal"])
    def test_erfc_tails_match_references(self, family):
        # The tail is 0.5 erfc(z): within 5 ulp of a 40-digit reference
        # (math.erfc was seen at most 3 off), and within 2 ulp of scipy's
        # erfc for z <= 0. For z > 0 scipy's erfc is itself up to about
        # 40 ulp off at z = 8, so there only mpmath is the reference.
        mpmath = pytest.importorskip("mpmath")
        from scipy.special import erfc as scipy_erfc

        mean, var = 0.3, 4e-4
        f = fit_two_moment(mean, var, family)
        for z_target in np.linspace(-6.0, 20.0, 261):
            if family == "normal":
                t = mean + z_target * math.sqrt(var)
                z = (t - mean) / math.sqrt(2.0 * var)
            else:
                lm, lv = f.params["log_mean"], f.params["log_variance"]
                t = math.exp(lm + z_target * math.sqrt(lv))
                z = (math.log(t) - lm) / math.sqrt(2.0 * lv)
            p = survival(f, t)
            with mpmath.workdps(40):
                ref = float(0.5 * mpmath.erfc(z))
            assert abs(p - ref) <= 5 * math.ulp(ref)
            if z <= 0.0:
                old = 0.5 * float(scipy_erfc(z))
                assert abs(p - old) <= 2 * math.ulp(old)


@pytest.mark.parametrize("shape", [0.5, 0.9, 1.0, 2.5, 10.0, 77.7, 1e3])
def test_gamma_density_matches_scipy(shape):
    from scipy.stats import gamma

    scale = 0.013
    f = FitResult("gamma", {"shape": shape, "scale": scale}, ())
    sd = math.sqrt(shape) * scale
    x = np.linspace(shape * scale - 8.0 * sd, shape * scale + 12.0 * sd, 801)
    x = x[x > 0]
    ref = gamma.pdf(x, shape, scale=scale)
    keep = ref > 1e-300
    assert np.all(np.abs(density(f, x)[keep] / ref[keep] - 1.0) <= 1e-12)
    assert np.array_equal(density(f, np.array([-1.0, 0.0])), [0.0, 0.0])
