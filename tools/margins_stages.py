"""Cases for tools/ab.py: one chunk of the Monte Carlo kernel,
`mc._mi_of_samples`, on square tables of 20x20 to 31x31, about the shapes
where `mc._margins` switches from the margins matrix product to reshape
sums.

    python3 tools/ab.py PARENT/src src tools/margins_stages.py

The product goes through BLAS, so time it both with the default BLAS threads
and with OPENBLAS_NUM_THREADS=1; the switch belongs where both agree.

Each callable reduces one chunk of seed-0 gamma draws (_CHUNK_CELLS // rs
rows) with the margins that the loaded tree's `_margins` chooses for that
shape, so B/A on a shape is the cost of one route against the other where
the two trees choose differently.
"""

import numpy as np

SIDES = (20, 23, 25, 26, 27, 28, 30, 31)


def make(mp):
    mc = mp.mc
    cases = {}
    for n in SIDES:
        counts = np.random.default_rng(n).poisson(3.0, (n, n)) + 0.5
        rows = mc._CHUNK_CELLS // counts.size
        x = np.random.default_rng(0).standard_gamma(counts.reshape(-1),
                                                    size=(rows, counts.size))
        margins = mc._margins(n, n)
        cases["chunk_%dx%d" % (n, n)] = (
            lambda x=x, n=n, margins=margins: mc._mi_of_samples(x, n, n, margins))
    return cases
