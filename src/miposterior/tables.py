"""Contingency tables, Dirichlet pseudo-count priors, and posterior counts.

Counts are stored as floats throughout: fractional pseudo-counts (Jeffreys,
Perks) produce fractional posterior parameters, so one numeric type is used
end to end.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import moments
from .errors import NumericPreconditionError, ValidationError, ZeroCellError

#: pseudo-count per cell for the named non-informative priors; perks is 1/(r*s)
NAMED_PRIORS = ("haldane", "perks", "jeffreys", "uniform")

_FMT = "%.17g"


def _read_only(a) -> np.ndarray:
    """a as a read-only float array; a writable one (the caller's) is copied."""
    a = np.asarray(a, dtype=float)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _valid_grid(a, what: str = "table", entry: str = "entry") -> tuple[np.ndarray, float]:
    """a as a read-only float array (see _read_only), checked to be a non-empty
    2-d grid of finite, non-negative entries, and its maximum; the messages
    name the first bad cell, calling the grid `what` and a cell `entry`."""
    a = _read_only(a)
    if a.ndim != 2 or a.size == 0:
        raise ValidationError("%s must be a non-empty 2-d grid" % what)
    top = np.maximum.reduce(a, axis=None)
    # NaN fails both tests, -inf and +inf one each; only a failing grid is searched.
    if not (np.minimum.reduce(a, axis=None) >= 0 and top < math.inf):
        moments.require_finite(a, entry)
        bad = np.argwhere(a < 0)[0]
        raise ValidationError("negative %s at cell (%d, %d)" % ((entry,) + tuple(bad)))
    return a, top


@dataclass(frozen=True)
class CountsTable:
    """An r x s grid of observed co-occurrence counts."""

    counts: np.ndarray  # shape (r, s), non-negative floats

    def __post_init__(self):
        a, top = _valid_grid(self.counts)
        object.__setattr__(self, "counts", a)
        if not top > 0:
            raise ValidationError("all-zero table: at least one count must be positive")

    @property
    def r(self) -> int:
        return self.counts.shape[0]

    @property
    def s(self) -> int:
        return self.counts.shape[1]


@dataclass(frozen=True)
class PriorSpec:
    """Dirichlet prior as per-cell pseudo-counts.

    Named kinds: haldane -> 0, perks -> 1/(r*s), jeffreys -> 1/2, uniform -> 1.
    ``custom`` carries an explicit matrix matching the table shape.
    """

    kind: str
    matrix: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind == "custom":
            if self.matrix is None:
                raise ValidationError("custom prior requires a pseudo-count matrix")
            m, _ = _valid_grid(self.matrix, "custom prior matrix", "custom prior entry")
            object.__setattr__(self, "matrix", m)
        elif self.kind not in NAMED_PRIORS:
            raise ValidationError(
                "unknown prior %r; expected one of %s or custom"
                % (self.kind, ", ".join(NAMED_PRIORS))
            )
        elif self.matrix is not None:
            raise ValidationError("named prior %r takes no matrix" % self.kind)

    def pseudo_counts(self, r: int, s: int) -> np.ndarray:
        """Pseudo-count matrix for an r x s table."""
        if self.kind == "custom":
            if self.matrix.shape != (r, s):
                raise ValidationError(
                    "custom prior shape %s does not match table shape (%d, %d)"
                    % (self.matrix.shape, r, s)
                )
            return self.matrix
        return np.full((r, s), self._per_cell(r, s))

    def _per_cell(self, r: int, s: int) -> float:
        """The pseudo-count of every cell under a named prior."""
        return {"haldane": 0.0, "perks": 1.0 / (r * s), "jeffreys": 0.5,
                "uniform": 1.0}[self.kind]


@dataclass(frozen=True)
class PosteriorCounts:
    """Dirichlet posterior parameters n_ij with their marginals, total and
    cached point statistics.

    Built from the counts alone: the marginals, the total and all_positive
    are derived here, and a total that overflows, is subnormal or is not
    positive is rejected. The counts are kept read-only (see _read_only), so
    the cached statistics cannot go stale.
    """

    counts: np.ndarray
    row_sums: np.ndarray = field(init=False)
    col_sums: np.ndarray = field(init=False)
    total: float = field(init=False)
    all_positive: bool = field(init=False)

    def __post_init__(self):
        n = _read_only(self.counts)
        # Every cell and margin is at most the total, so testing the total
        # covers all overflow; numpy's overflow warnings would only repeat it.
        with np.errstate(over="ignore"):
            total = float(np.add.reduce(n, axis=None))
            row_sums = np.add.reduce(n, axis=1)
            col_sums = np.add.reduce(n, axis=0)
        if not math.isfinite(total):
            raise NumericPreconditionError(
                "the posterior total overflows double precision; the counts are "
                "too extreme in magnitude (rescale them)"
            )
        if total <= 0:
            raise ValidationError("posterior total must be positive")
        if total < sys.float_info.min:
            # Subnormal: the statistics divide by the total and overflow.
            raise NumericPreconditionError(
                "the posterior total %r is subnormal in double precision; the "
                "counts are too extreme in magnitude (rescale them)" % total
            )
        row_sums.setflags(write=False)
        col_sums.setflags(write=False)
        for name, value in (("counts", n), ("row_sums", row_sums),
                            ("col_sums", col_sums), ("total", total),
                            ("all_positive", bool(np.minimum.reduce(n, axis=None) > 0))):
            object.__setattr__(self, name, value)

    @property
    def r(self) -> int:
        return self.counts.shape[0]

    @property
    def s(self) -> int:
        return self.counts.shape[1]

    @property
    def stats(self) -> moments.PointStats:
        """moments.point_stats(self), computed on first use and kept."""
        # Not functools.cached_property: it writes the instance __dict__, which
        # on CPython 3.11 slows every later attribute read (about 3 us per
        # summarize of a small table).
        st = getattr(self, "_stats", None)
        if st is None:
            st = moments.point_stats(self)
            object.__setattr__(self, "_stats", st)
        return st

    def zero_cells(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(self.counts == 0)
        return list(zip(i.tolist(), j.tolist()))

    def require_all_positive(self, what: str) -> None:
        """Raise ZeroCellError naming the zero cells, if there are any; `what`
        names the computation that needs every cell positive."""
        if not self.all_positive:
            raise ZeroCellError(self.zero_cells(), what)


def apply_prior(table: CountsTable, prior: PriorSpec) -> PosteriorCounts:
    """The posterior of a table under a prior: its counts plus the prior's
    pseudo-counts. The haldane prior (0 per cell) passes the table's
    read-only counts on without a copy."""
    if prior.kind == "haldane":
        return PosteriorCounts(table.counts)
    if prior.kind == "custom":
        with np.errstate(over="ignore"):  # PosteriorCounts names the overflow
            n = table.counts + prior.pseudo_counts(table.r, table.s)
    else:  # a finite count plus at most 1 cannot overflow
        n = table.counts + prior._per_cell(table.r, table.s)
    n.setflags(write=False)
    return PosteriorCounts(n)


def parse_table(text: str, fmt: str = "csv") -> CountsTable:
    """Parse a contingency table from csv, tsv, or json text."""
    return CountsTable(parse_grid(text, fmt))


def parse_grid(text: str, fmt: str = "csv") -> np.ndarray:
    """Parse a read-only float grid from csv, tsv, or json text; all-zero grids pass."""
    if fmt in ("csv", "tsv"):
        grid = _delimited_grid(text, "," if fmt == "csv" else "\t")
    elif fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError("malformed json: %s" % exc) from None
        if not isinstance(data, list) or not data:
            raise ValidationError("json table must be a non-empty array of arrays")
        widths = {len(row) if isinstance(row, list) else -1 for row in data}
        if -1 in widths or len(widths) != 1:
            raise ValidationError("json table rows must be equal-length arrays")
        _check_json_entries(data)
        grid = np.array(data, dtype=float)
    else:
        raise ValidationError("unknown format %r; expected csv, tsv, or json" % fmt)
    grid.setflags(write=False)  # the callers keep it without a copy
    return grid


def _delimited_grid(text: str, sep: str) -> np.ndarray:
    """The grid of a csv or tsv table; blank lines are skipped."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValidationError("empty table")
    # numpy's C tokenizer parses each cell as float() does, but strips "\x1f"
    # as whitespace where float() rejects it. Its unsigned-integer reader
    # reads counts in about 0.55 of the float reader's time; it rejects every
    # "-" (so -0 keeps its sign), ".", exponent, nan/inf and value of 2**64
    # or more, and its cast to float64 rounds to nearest as float() does.
    # Text it rejects takes the float reader: an integer table whose last
    # cell is not an integer is read twice, about 1.45 times the float
    # reader's cost at 300x300. Text both reject (a ragged row, a bad cell,
    # or a literal only float() reads, such as 1_000) takes the per-cell
    # Python path, which names the first bad cell.
    if "\x1f" not in text:
        try:
            counts = np.loadtxt(lines, delimiter=sep, comments=None, ndmin=2,
                                dtype=np.uint64)
        except ValueError:
            pass
        else:
            # Through flat views: a 2-d copyto into an overlapping array
            # copies its source first, doubling the peak memory.
            grid = counts.view(np.float64)
            np.copyto(grid.reshape(-1), counts.reshape(-1), casting="unsafe")
            counts.setflags(write=False)  # grid.base: no writable alias
            return grid
        try:
            return np.loadtxt(lines, delimiter=sep, comments=None, ndmin=2)
        except ValueError:
            pass
    rows = [line.split(sep) for line in lines]
    try:
        return np.array(rows, dtype=float)
    except ValueError:
        _raise_bad_cell(rows)
        raise


def _check_json_entries(data: list[list]) -> None:
    """Raise a ValidationError naming the first entry that is not a json
    number (true, "3", null, an array) or is an integer beyond double range."""
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            if type(v) is float:
                continue
            if type(v) is not int:  # bool is a subclass of int
                raise ValidationError(
                    "json table entries must be numbers; got %s at cell (%d, %d)"
                    % (json.dumps(v), i, j)
                )
            try:
                float(v)
            except OverflowError:
                raise ValidationError(
                    "non-finite entry at cell (%d, %d)" % (i, j)
                ) from None


def _raise_bad_cell(rows: list[list[str]]) -> None:
    """Raise a ValidationError naming the first ragged row or non-numeric cell."""
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValidationError(
                "ragged row %d: expected %d fields, got %d" % (i, width, len(row))
            )
        for j, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                raise ValidationError(
                    "non-numeric entry %r at cell (%d, %d)" % (cell.strip(), i, j)
                ) from None


def serialize_table(table: CountsTable, fmt: str = "csv") -> str:
    """Serialize at full precision so parse -> serialize -> parse round-trips."""
    if fmt in ("csv", "tsv"):
        sep = "," if fmt == "csv" else "\t"
        return "\n".join(
            sep.join(_FMT % v for v in row) for row in table.counts
        ) + "\n"
    if fmt == "json":
        return (
            "["
            + ", ".join(
                "[" + ", ".join(_FMT % v for v in row) + "]" for row in table.counts
            )
            + "]"
        )
    raise ValidationError("unknown format %r; expected csv, tsv, or json" % fmt)
