"""Cases for tools/ab.py: tables with zero posterior cells, and the
all-positive tables drawn beside them.

    python3 tools/ab.py PARENT/src src tools/zero_cell_cases.py --rounds 4 --seconds 0

240 seeded 2x2 to 6x6 tables of Poisson counts (means 0.3 to 8) go under
Haldane, Jeffreys and a custom prior whose entries are 0 in about a third
of the cells. A posterior with a zero cell (a zero count under a zero
pseudo-count) joins the zero-cell deck, the others the all-positive deck.
Each deck has its own callables, so the same-bits table shows which
outputs a change to the zero-cell convention moved: `*_positive` must read
same bits. `mc_*` runs `mc_estimate` with 2,000 draws on the first 24
tables of a deck. A callable returns each table's output, or the
NumericPreconditionError it raised.
"""

import numpy as np

TABLES = 240
MC_TABLES = 24
MC_DRAWS = 2000


def decks(mp):
    """(all-positive posteriors, zero-cell posteriors)."""
    rng = np.random.default_rng(2027)
    positive, zero = [], []
    for _ in range(TABLES):
        r, s = (int(v) for v in rng.integers(2, 7, size=2))
        counts = rng.poisson(0.3 * 27.0 ** rng.uniform(), size=(r, s)).astype(float)
        if not counts.any():
            counts[0, 0] = 1.0
        table = mp.CountsTable(counts)
        matrix = rng.uniform(0.0, 1.0, (r, s)) * (rng.random((r, s)) < 0.67)
        for prior in (mp.PriorSpec("haldane"), mp.PriorSpec("jeffreys"),
                      mp.PriorSpec("custom", matrix)):
            post = mp.apply_prior(table, prior)
            (positive if post.all_positive else zero).append(post)
    return positive, zero


def make(mp):
    positive, zero = decks(mp)

    def each(fn, posts):
        out = []
        for k, c in enumerate(posts):
            try:
                out.append(fn(k, c))
            except mp.NumericPreconditionError as exc:
                out.append(exc)
        return out

    def point_stats(k, c):
        return mp.point_stats(c)

    def summarize(k, c):
        return mp.summarize(c)

    def mc(k, c):
        return mp.mc_estimate(c, MC_DRAWS, seed=k)

    return {
        "point_stats_positive": lambda: each(point_stats, positive),
        "point_stats_zero": lambda: each(point_stats, zero),
        "summarize_positive": lambda: each(summarize, positive),
        "summarize_zero": lambda: each(summarize, zero),
        "mc_positive": lambda: each(mc, positive[:MC_TABLES]),
        "mc_zero": lambda: each(mc, zero[:MC_TABLES]),
    }
