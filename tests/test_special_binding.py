"""The package's one psi and one Q(a, x): special.py binds scipy.special's
ufuncs on first use, and every module calls them through that binding."""

import sys

import numpy as np
import pytest
import scipy.special

import miposterior as mp
from miposterior import special


def test_digamma_is_scipys_bit_for_bit():
    def want(x):
        return float(scipy.special.digamma(x)).hex()

    # acceptance criterion 8's grid
    rng = np.random.default_rng(42)
    xs = [1e-3, 0.1, 0.5, 1.0, 3.7, 10.0, 1e4] + list(rng.uniform(1e-6, 1e6, size=1000))
    for x in xs:
        assert special.digamma(x).hex() == want(x), x
    for m in (513, 1000, 10**6):  # off the tables
        assert special.digamma_integer(m).hex() == want(float(m))
        assert special.digamma_half_integer(m).hex() == want(m + 0.5)
        assert special.psi(m + 0.25).hex() == want(m + 0.25)


def test_binding_is_the_bare_ufunc():
    assert special.digamma_ufunc is scipy.special.digamma
    assert special.gammaincc is scipy.special.gammaincc
    with pytest.raises(AttributeError):
        special.erfc


def _exact_mean_and_gamma_tail():
    post = mp.apply_prior(mp.CountsTable([[8.0, 2.0], [2.0, 8.0]]), mp.PriorSpec("jeffreys"))
    mp.summarize(post)
    mp.survival(mp.fit_two_moment(0.3, 0.02, "gamma"), 0.4)


def test_no_module_keeps_a_private_binding():
    _exact_mean_and_gamma_tail()
    ufuncs = (scipy.special.digamma, scipy.special.gammaincc)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "miposterior" and mod is not special:
            assert not any(v in ufuncs for v in vars(mod).values()
                           if isinstance(v, np.ufunc)), name


def test_every_caller_goes_through_the_binding(monkeypatch):
    calls = {"digamma_ufunc": 0, "gammaincc": 0}

    def counting(name):
        ufunc = getattr(special, name)

        def wrapper(*args):
            calls[name] += 1
            return ufunc(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(special, name, counting(name))

    _exact_mean_and_gamma_tail()
    # the exact mean's cells, margins and total, and one gamma tail
    assert calls == {"digamma_ufunc": 3, "gammaincc": 1}
    special.digamma(3.25)
    assert calls == {"digamma_ufunc": 4, "gammaincc": 1}
