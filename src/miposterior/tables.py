"""Contingency tables, Dirichlet pseudo-count priors, and posterior counts.

Counts are stored as floats throughout: fractional pseudo-counts (Jeffreys,
Perks) produce fractional posterior parameters, so one numeric type is used
end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericPreconditionError, ValidationError

#: pseudo-count per cell for the named non-informative priors; perks is 1/(r*s)
NAMED_PRIORS = ("haldane", "perks", "jeffreys", "uniform")

_FMT = "%.17g"


@dataclass(frozen=True)
class CountsTable:
    """An r x s grid of observed co-occurrence counts."""

    counts: np.ndarray  # shape (r, s), non-negative floats

    def __post_init__(self):
        a = np.asarray(self.counts, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ValidationError("table must be a non-empty 2-d grid")
        if not np.all(np.isfinite(a)):
            bad = np.argwhere(~np.isfinite(a))[0]
            raise ValidationError("non-finite entry at cell (%d, %d)" % tuple(bad))
        if np.any(a < 0):
            bad = np.argwhere(a < 0)[0]
            raise ValidationError("negative entry at cell (%d, %d)" % tuple(bad))
        if not np.any(a > 0):
            raise ValidationError("all-zero table: at least one count must be positive")
        a.setflags(write=False)
        object.__setattr__(self, "counts", a)

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
            m = np.asarray(self.matrix, dtype=float)
            if m.ndim != 2:
                raise ValidationError("custom prior matrix must be 2-d")
            if np.any(~np.isfinite(m)) or np.any(m < 0):
                raise ValidationError("custom prior entries must be finite and >= 0")
            m.setflags(write=False)
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
        per_cell = {
            "haldane": 0.0,
            "perks": 1.0 / (r * s),
            "jeffreys": 0.5,
            "uniform": 1.0,
        }[self.kind]
        return np.full((r, s), per_cell)


@dataclass(frozen=True)
class PosteriorCounts:
    """Dirichlet posterior parameters n_ij with cached marginals and total."""

    counts: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    total: float
    all_positive: bool

    @property
    def r(self) -> int:
        return self.counts.shape[0]

    @property
    def s(self) -> int:
        return self.counts.shape[1]

    def zero_cells(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.counts == 0)]


def apply_prior(table: CountsTable, prior: PriorSpec) -> PosteriorCounts:
    """Add prior pseudo-counts to observed counts and cache marginals.

    The haldane prior (0 per cell) leaves every entry bit-identical.
    """
    pseudo = prior.pseudo_counts(table.r, table.s)
    # Every cell and margin is at most the total, so testing the total covers
    # all overflow; numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore"):
        n = table.counts if prior.kind == "haldane" else table.counts + pseudo
        n = np.asarray(n, dtype=float)
        n.setflags(write=False)
        total = float(n.sum())
        row_sums = n.sum(axis=1)
        col_sums = n.sum(axis=0)
    if not math.isfinite(total):
        raise NumericPreconditionError(
            "the posterior total overflows double precision; the counts are "
            "too extreme in magnitude (rescale them)"
        )
    if total <= 0:
        raise ValidationError("posterior total must be positive")
    return PosteriorCounts(
        counts=n,
        row_sums=row_sums,
        col_sums=col_sums,
        total=total,
        all_positive=bool(np.all(n > 0)),
    )


def parse_table(text: str, fmt: str = "csv") -> CountsTable:
    """Parse a contingency table from csv, tsv, or json text."""
    if fmt in ("csv", "tsv"):
        sep = "," if fmt == "csv" else "\t"
        rows = [line.split(sep) for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValidationError("empty table")
        try:
            grid = np.array(rows, dtype=float)
        except ValueError:
            _raise_bad_cell(rows)
            raise
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
        try:
            grid = np.array(data, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("json table entries must be numbers") from None
    else:
        raise ValidationError("unknown format %r; expected csv, tsv, or json" % fmt)
    return CountsTable(grid)


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
