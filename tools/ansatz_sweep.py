"""Cases for tools/ab.py: the four-moment fit with both bases on a seeded
sweep of 22,621 moment sets (45,242 fits).

    python3 tools/ab.py PARENT/src src tools/ansatz_sweep.py --rounds 4 --seconds 0

The sets are the moments `--fit ansatz` forms from seeded random 2x2 to 6x6
tables (half with cell probabilities drawn at random, half near
independence) under the four named priors and both variance orders, and
1,000 synthetic sets. Each copy forms them with its own `summarize`, so a
changed moment shows as changed fits. `fits` returns each fit, or the
FitError or ValidationError it raised.
"""

import math

import numpy as np


def moment_sets(mp):
    """(raw moments, support_max) of the sweep."""
    rng = np.random.default_rng(1812)
    for k in range(3000):
        r, s = rng.integers(2, 7, size=2)
        if k % 2:
            p = np.outer(rng.dirichlet(5.0 * np.ones(r)), rng.dirichlet(5.0 * np.ones(s)))
        else:
            p = rng.dirichlet(np.ones(r * s))
        n = round(2.0 * 64.0 ** rng.uniform() * r * s)
        rows = rng.multinomial(n, p.ravel()).reshape(r, s)
        for prior in ("haldane", "perks", "jeffreys", "uniform"):
            post = mp.apply_prior(mp.CountsTable(rows.astype(float)), mp.PriorSpec(prior))
            if not post.all_positive:
                continue
            su = mp.summarize(post)
            for var in (su.var_o1, su.var_o2):
                if math.isfinite(var) and var > 0:
                    yield (mp.central_to_raw(su.mean_exact, var, su.central3, su.central4),
                           su.i_max * 1.05)
    for _ in range(1000):
        m1 = 0.01 + 0.5 * rng.uniform()
        var = (m1 * rng.uniform(0.05, 1.0)) ** 2
        mu3 = rng.uniform(-1.0, 3.0) * var ** 1.5
        mu4 = (3.0 + rng.uniform(-1.5, 12.0)) * var * var
        yield mp.central_to_raw(m1, var, mu3, mu4), None


def make(mp):
    sets = list(moment_sets(mp))

    def fit(raw, base, hi):
        try:
            return mp.fit_poly_ansatz(*raw, base=base, support_max=hi)
        except (mp.FitError, mp.ValidationError) as exc:
            return exc

    return {"fits": lambda: [fit(raw, base, hi) for raw, hi in sets
                             for base in ("gamma", "normal")]}
