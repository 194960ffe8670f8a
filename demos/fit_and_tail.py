"""Fitting closed-form densities to the posterior of I and reading tails.

Two-moment fits (normal, gamma, lognormal) come from closed-form moment
matching. The four-moment fit modulates a gamma base density with a
quadratic polynomial and matches all four raw moments by an algebraic
solve: the real roots of a degree-6 resultant in the base's rate, then a
2x2 linear system for the polynomial's coefficients.
Tail probabilities p(I > i*) from the fits are cross-checked against direct
numerical integration of the fitted density.
"""

import numpy as np

from miposterior import (
    CountsTable,
    PriorSpec,
    apply_prior,
    central3,
    central4,
    central_to_raw,
    density,
    fit_poly_ansatz,
    fit_two_moment,
    i_max,
    mean_exact,
    survival,
    survival_quad,
    var_o2,
)

counts = np.array([
    [20.0, 6.0],
    [5.0, 14.0],
])
post = apply_prior(CountsTable(counts), PriorSpec("perks"))

mean = mean_exact(post)
var = var_o2(post)
mu3 = central3(post)
mu4 = central4(post)
print("posterior moments: mean %.6f, var %.6f, mu3 %.3e, mu4 %.3e" % (
    mean, var, mu3, mu4))
print()

fits = {name: fit_two_moment(mean, var, name)
        for name in ("normal", "gamma", "lognormal")}

m1, m2, m3, m4 = central_to_raw(mean, var, mu3, mu4)
fits["poly_ansatz"] = fit_poly_ansatz(
    m1, m2, m3, m4, base="gamma", support_max=1.05 * i_max(post))

i_star = mean + 2.0 * np.sqrt(var)
print("tail p(I > %.4f), closed form vs quadrature:" % i_star)
for name, f in fits.items():
    closed = survival(f, i_star)
    quad = survival_quad(f, i_star)
    print("  %-12s %.6f  %.6f" % (name, closed, quad))

print()
grid = np.linspace(max(mean - 4 * np.sqrt(var), 0.0),
                   mean + 4 * np.sqrt(var), 9)
print("densities on a grid around the mean:")
print("  I        " + "".join("%-12s" % n for n in fits))
for x in grid:
    row = [density(f, np.array([x]))[0] for f in fits.values()]
    print("  %.4f   " % x + "".join("%-12.5f" % v for v in row))
