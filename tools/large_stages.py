"""Cases for tools/ab.py: the stages of the analytic path on the
summarize_large deck (seed 1, 15 tables from 100x100 to 300x300, Jeffreys).

    python3 tools/ab.py PARENT/src src tools/large_stages.py

Each callable but `median_op` runs its stage once over the whole deck, so its
time per call divided by 15 is the cost per table. The deck's texts hold
integer counts, which `parse_table` reads with numpy's unsigned-integer
reader; `parse_fractional` parses the same deck written as its Jeffreys
posterior counts (each count + 0.5, "%.17g"), which take the float reader.
`median_op` runs the whole op on the deck's three median sizes (186x186,
200x200 and 214x214) alone.
Every stage but the ops starts from the previous stage's outputs, built once
here; `summarize` sees posteriors whose point statistics are already cached.
The op is the benchmark's: parse, Jeffreys prior, summarize, gamma fit and
three tails.
"""

from bench.workloads import _large_build

DECK = _large_build(1)
MEDIAN = [item for item in DECK if item.counts.shape[0] in (186, 200, 214)]
FRACTIONAL = ["\n".join(",".join("%.17g" % v for v in row) for row in item.counts + 0.5)
              + "\n" for item in DECK]


def make(mp):
    prior = mp.PriorSpec("jeffreys")
    tables = [mp.parse_table(item.text) for item in DECK]
    posts = [mp.apply_prior(t, prior) for t in tables]
    for c in posts:
        mp.summarize(c)

    def op(items):
        out = []  # (summary, fit, tails) of each table
        for item in items:
            s = mp.summarize(mp.apply_prior(mp.parse_table(item.text), prior))
            var = s.var_o2 if s.var_o2 > 0 else s.var_o1
            fit = mp.fit_two_moment(s.mean_exact, var, "gamma")
            out.append((s, fit, [mp.survival(fit, t) for t in item.thresholds]))
        return out

    return {
        "parse_table": lambda: [mp.parse_table(item.text) for item in DECK],
        "parse_fractional": lambda: [mp.parse_table(text) for text in FRACTIONAL],
        "apply_prior": lambda: [mp.apply_prior(t, prior) for t in tables],
        "point_stats": lambda: [mp.point_stats(c) for c in posts],
        "mean_exact": lambda: [mp.mean_exact(c) for c in posts],
        "summarize": lambda: [mp.summarize(c) for c in posts],
        "op": lambda: op(DECK),
        "median_op": lambda: op(MEDIAN),
    }
