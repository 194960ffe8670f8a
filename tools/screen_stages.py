"""Cases for tools/ab.py: the stages of the analytic path on the screen_small
deck (seed 1, 1,079 tables of 2x2 to 8x8 under Jeffreys and Haldane).

    python3 tools/ab.py PARENT/src src tools/screen_stages.py

Each callable runs its stage once over the whole deck, so its time per call
divided by 1,079 is the cost per table. Every stage but `chain` starts from
the previous stage's outputs, built once here; `summarize` and `fit_tails`
see posteriors whose point statistics are already cached.
"""

from bench.workloads import SCREEN_THRESHOLDS, _screen_build

DECK = [(ds.prior, counts) for ds in _screen_build(1) for _, _, counts in ds.pairs]


def make(mp):
    priors = {kind: mp.PriorSpec(kind) for kind in ("jeffreys", "haldane")}
    tables = [(priors[kind], mp.CountsTable(counts)) for kind, counts in DECK]
    posts = [mp.apply_prior(t, p) for p, t in tables]
    summaries = [mp.summarize(c) for c in posts]

    def fit_tails():
        out = []
        for s in summaries:
            var = s.var_o2 if s.var_o2 > 0 else s.var_o1
            if var > 0 and s.mean_exact > 0:
                fit = mp.fit_two_moment(s.mean_exact, var, "gamma")
                out.append((fit, [mp.survival(fit, t) for t in SCREEN_THRESHOLDS]))
        return out

    def chain():
        return [mp.summarize(mp.apply_prior(mp.CountsTable(counts), priors[kind]))
                for kind, counts in DECK]

    return {
        "CountsTable": lambda: [mp.CountsTable(counts) for _, counts in DECK],
        "apply_prior": lambda: [mp.apply_prior(t, p) for p, t in tables],
        "point_stats": lambda: [mp.point_stats(c) for c in posts],
        "mean_exact": lambda: [mp.mean_exact(c) for c in posts],
        "summarize": lambda: [mp.summarize(c) for c in posts],
        "fit_tails": fit_tails,
        "chain": chain,
    }
