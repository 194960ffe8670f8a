import math

import numpy as np
import pytest

from miposterior import EULER_GAMMA, digamma, digamma_half_integer, digamma_integer, psi
from miposterior import special

LOG2 = math.log(2.0)


def test_psi_of_one_is_minus_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert digamma_integer(1) == -EULER_GAMMA


def test_psi_of_two():
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)


def test_psi_of_half():
    # Fixed by the recurrence anchored at psi(1) = -gamma: psi(1/2) = psi(3/2) - 2,
    # and psi(3/2) is reachable from the asymptotic path via lifts.
    assert digamma(0.5) == pytest.approx(digamma(1.5) - 2.0, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * LOG2, abs=1e-13)
    assert digamma(0.5) == pytest.approx(-1.96351002602, abs=1e-11)


def test_half_integer_sign_convention():
    # The harmonic closed form for psi(m + 1/2) is sometimes printed with
    # +2 log 2; consistency with psi(1) = -gamma and the recurrence forces
    # the -2 log 2 sign used here.
    assert digamma_half_integer(0) == pytest.approx(-EULER_GAMMA - 2.0 * LOG2, abs=1e-15)
    assert digamma_half_integer(0) == pytest.approx(-1.96351002602, abs=1e-11)
    assert digamma_half_integer(1) == pytest.approx(digamma_half_integer(0) + 2.0, abs=1e-15)
    assert digamma_half_integer(2) == pytest.approx(digamma_half_integer(1) + 2.0 / 3.0,
                                                    abs=1e-15)


def test_integer_examples():
    # hand-summed harmonic series minus gamma
    assert digamma_integer(5) == pytest.approx(
        1.0 + 0.5 + 1.0 / 3.0 + 0.25 - EULER_GAMMA, abs=1e-15)
    assert digamma_integer(5) == pytest.approx(1.50611766843, abs=1e-11)
    assert digamma_integer(2) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-15)


def test_recurrence_grid():
    rng = np.random.default_rng(42)
    xs = [1e-3, 0.1, 0.5, 1.0, 3.7, 10.0, 1e4]
    xs += list(rng.uniform(1e-6, 1e6, size=1000))
    for x in xs:
        lhs = digamma(x + 1.0) - digamma(x)
        assert abs(lhs - 1.0 / x) <= 1e-10 * max(1.0, abs(digamma(x)))


def test_monotonic():
    grid = np.concatenate([np.geomspace(1e-4, 1.0, 200), np.linspace(1.01, 1e4, 200)])
    vals = [digamma(x) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fast_paths_agree_with_general_path():
    for m in range(1, 201):
        assert digamma_integer(m) == pytest.approx(digamma(float(m)), abs=1e-12)
        assert digamma_half_integer(m) == pytest.approx(digamma(m + 0.5), abs=1e-12)
    assert digamma_half_integer(0) == pytest.approx(digamma(0.5), abs=1e-12)


def test_asymptotic_remainder_order():
    # beyond x ~ 1e3 the 1/x^4 bound drops below double rounding noise
    for x in [10.0, 20.0, 50.0, 100.0, 1e3]:
        rem = digamma(x + 1.0) - math.log(x) - 0.5 / x + 1.0 / (12.0 * x * x)
        assert abs(rem) <= 1.0 / x**4


def test_against_scipy():
    from scipy.special import digamma as scipy_digamma

    rng = np.random.default_rng(5)
    for x in rng.uniform(1e-4, 1e5, size=200):
        assert digamma(x) == pytest.approx(float(scipy_digamma(x)), abs=1e-12, rel=1e-12)


def test_psi_dispatch():
    # integer and half-integer arguments route to the exact closed forms
    assert psi(7.0) == digamma_integer(7)
    assert psi(7.5) == digamma_half_integer(7)
    assert psi(3.25) == digamma(3.25)
    assert psi(1000.25) == digamma(1000.25)


def test_domain_errors():
    with pytest.raises(ValueError):
        digamma(0.0)
    with pytest.raises(ValueError):
        digamma(-1.0)
    with pytest.raises(ValueError):
        digamma_integer(0)
    with pytest.raises(ValueError):
        digamma_half_integer(-1)


def test_tables_match_sequential_sums():
    # The lookup tables, summed one term at a time from psi(1) and psi(1/2).
    top = special._TABLE_MAX
    ints = np.empty(top + 1)
    ints[0] = np.nan
    acc = -EULER_GAMMA
    ints[1] = acc
    for k in range(1, top):
        acc += 1.0 / k
        ints[k + 1] = acc
    halves = np.empty(top + 1)
    acc = -EULER_GAMMA - 2.0 * LOG2
    halves[0] = acc
    for k in range(1, top + 1):
        acc += 2.0 / (2 * k - 1)
        halves[k] = acc
    for got, want in ((special._INT_TABLE, ints), (special._HALF_TABLE, halves)):
        assert got.shape == (top + 1,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not got.flags.writeable
    assert [digamma_integer(m) for m in range(1, top + 1)] == ints[1:].tolist()
    assert [digamma_half_integer(m) for m in range(top + 1)] == halves.tolist()
