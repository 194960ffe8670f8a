"""Cases for tools/ab.py: the stages of the Monte Carlo estimate on the
mc_oracle deck (seed 1, 15 tables of 2x2 to 5x5 under Jeffreys, 98,304
draws each).

    python3 tools/ab.py PARENT/src src tools/mc_stages.py

Each callable runs its stage once over the whole deck, so its time per call
divided by 15 is the cost per table, and each stage's share of
`mc_estimate` is its time over that callable's. `gamma_draws` makes every
chunk's variates as `mc_estimate` does, by the (seed, block) contract, and
discards them. `kernel` reduces each table's chunks with `mc._mi_of_samples`,
all from one stored chunk of that table, since its cost does not depend on
the values. `moments` is `mc._moments` on all values and on the 32 batches;
`histogram` reads the tails and bins the clipped values. These two write out
`mc_estimate`'s code, so they time the numpy it calls; `kernel` and
`mc_estimate` time the loaded tree.
"""

import numpy as np

from bench.workloads import MC_DRAWS, _mc_build

DECK = _mc_build(1)


def make(mp):
    mc = mp.mc

    def chunks(post, seed, bounds):
        """(lo, hi, variates) of each chunk, drawn as mc_estimate draws them."""
        shapes = post.counts.reshape(-1)
        for k, lo, hi in bounds:
            if lo == k * mc._BLOCK:
                rng = np.random.default_rng([seed, k])
            yield lo, hi, rng.standard_gamma(shapes, size=(hi - lo, shapes.size))

    tables = []  # (post, seed, thresholds, chunk bounds, first chunk, values)
    for case in DECK:
        post = mp.apply_prior(mp.CountsTable(case.counts - 0.5), mp.PriorSpec("jeffreys"))
        rows = max(1, mc._CHUNK_CELLS // post.counts.size)
        bounds = [(k, lo, min(lo + rows, start + mc._BLOCK, MC_DRAWS))
                  for k, start in enumerate(range(0, MC_DRAWS, mc._BLOCK))
                  for lo in range(start, min(start + mc._BLOCK, MC_DRAWS), rows)]
        values = np.empty(MC_DRAWS)
        margins = mc._margins(post.r, post.s)
        for lo, hi, x in chunks(post, case.mc_seed, bounds):
            values[lo:hi] = mc._mi_of_samples(x, post.r, post.s, margins)
        first = next(chunks(post, case.mc_seed, bounds))[2]
        tables.append((post, case.mc_seed, case.thresholds, bounds, first, values))
    clipped = np.empty(MC_DRAWS)

    def gamma_draws():
        for post, seed, _, bounds, _, _ in tables:
            for _ in chunks(post, seed, bounds):
                pass

    def kernel():
        for post, _, _, bounds, first, _ in tables:
            margins = mc._margins(post.r, post.s)
            for _, lo, hi in bounds:
                mc._mi_of_samples(first[:hi - lo], post.r, post.s, margins)

    def moments():
        for *_, values in tables:
            mc._moments(values)
            per_batch = MC_DRAWS // mc._N_BATCHES
            np.array([mc._moments(values[b * per_batch:(b + 1) * per_batch])
                      for b in range(mc._N_BATCHES)]).std(axis=0, ddof=1)

    def histogram():
        for post, _, thresholds, *_, values in tables:
            hi = mp.i_max(post)
            [float(np.mean(values > t)) for t in thresholds]
            np.histogram(np.clip(values, 0.0, hi, out=clipped), bins=mc._N_BINS,
                         range=(0.0, hi))

    def mc_estimate():
        return [mp.mc_estimate(post, MC_DRAWS, seed=seed, thresholds=thresholds)
                for post, seed, thresholds, *_ in tables]

    return {"gamma_draws": gamma_draws, "kernel": kernel, "moments": moments,
            "histogram": histogram, "mc_estimate": mc_estimate}
