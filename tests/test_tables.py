import math
import random
import warnings

import numpy as np
import pytest

from miposterior import (
    CountsTable,
    NumericPreconditionError,
    PosteriorCounts,
    PriorSpec,
    ValidationError,
    apply_prior,
    parse_grid,
    parse_table,
    point_stats,
    serialize_table,
)
from miposterior import tables
from miposterior.tables import _raise_bad_cell


def test_parse_csv():
    t = parse_table("1,2\n3,4", "csv")
    assert t.r == 2 and t.s == 2
    assert np.array_equal(t.counts, [[1, 2], [3, 4]])


def test_parse_tsv_all_zero_rejected():
    with pytest.raises(ValidationError, match="all-zero"):
        parse_table("0\t0\n0\t0", "tsv")


def test_parse_json_zero_cells_legal():
    t = parse_table("[[5,0],[0,5]]", "json")
    assert np.array_equal(t.counts, [[5, 0], [0, 5]])


def test_parse_ragged_row():
    with pytest.raises(ValidationError, match="ragged"):
        parse_table("1,2\n3", "csv")


def test_parse_negative_entry_names_cell():
    with pytest.raises(ValidationError, match=r"\(1, 0\)"):
        parse_table("1,2\n-3,4", "csv")


def test_parse_non_numeric_names_cell():
    with pytest.raises(ValidationError, match=r"\(0, 1\)"):
        parse_table("1,x\n3,4", "csv")


@pytest.mark.parametrize("text, message", [
    ("1,2\n3\n", "ragged row 1: expected 2 fields, got 1"),
    ("1,2\n3,4,5\n6,y\n", "ragged row 1: expected 2 fields, got 3"),
    ("1,x\n3\n", "non-numeric entry 'x' at cell (0, 1)"),
    (" 1 , 2 \n 3 ,  x \n", "non-numeric entry 'x' at cell (1, 1)"),
    ("1,2\n\n3,\n", "non-numeric entry '' at cell (1, 1)"),
])
def test_parse_error_names_first_bad_cell(text, message):
    with pytest.raises(ValidationError) as ei:
        parse_table(text, "csv")
    assert str(ei.value) == message


def test_parse_tolerates_surrounding_whitespace():
    t = parse_table(" 1 ,\t2\n3 , 4 \r\n", "csv")
    assert np.array_equal(t.counts, [[1, 2], [3, 4]])


def test_parse_empty():
    with pytest.raises(ValidationError):
        parse_table("", "csv")


def test_parse_unknown_format():
    with pytest.raises(ValidationError):
        parse_table("1,2", "xml")


@pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
def test_roundtrip_exact(fmt):
    rng = np.random.default_rng(3)
    for _ in range(20):
        counts = rng.uniform(0.0, 50.0, size=(rng.integers(1, 5), rng.integers(1, 5)))
        counts.flat[0] = 1.0  # keep at least one positive entry
        t = CountsTable(counts)
        back = parse_table(serialize_table(t, fmt), fmt)
        assert np.array_equal(back.counts, t.counts)


def test_apply_uniform_prior():
    t = parse_table("1,2\n3,4")
    c = apply_prior(t, PriorSpec("uniform"))
    assert np.array_equal(c.counts, [[2, 3], [4, 5]])
    assert c.total == 14


def test_apply_haldane_is_bit_identical():
    t = parse_table("1,2\n3,4")
    c = apply_prior(t, PriorSpec("haldane"))
    assert c.counts is t.counts
    assert c.total == 10


def test_apply_jeffreys_makes_all_positive():
    t = parse_table("[[5,0],[0,5]]", "json")
    c = apply_prior(t, PriorSpec("jeffreys"))
    assert np.array_equal(c.counts, [[5.5, 0.5], [0.5, 5.5]])
    assert c.all_positive


def test_zero_cells_reported():
    c = apply_prior(parse_table("[[5,0],[0,5]]", "json"), PriorSpec("haldane"))
    assert not c.all_positive
    assert c.zero_cells() == [(0, 1), (1, 0)]


def test_marginals_and_total_consistency():
    rng = np.random.default_rng(11)
    for kind in ("haldane", "perks", "jeffreys", "uniform"):
        for _ in range(10):
            r, s = rng.integers(1, 6), rng.integers(1, 6)
            counts = rng.uniform(0.0, 30.0, size=(r, s))
            counts.flat[0] = 2.0
            t = CountsTable(counts)
            c = apply_prior(t, PriorSpec(kind))
            per_cell = {"haldane": 0.0, "perks": 1.0 / (r * s),
                        "jeffreys": 0.5, "uniform": 1.0}[kind]
            expected = counts.sum() + r * s * per_cell
            assert c.total == pytest.approx(expected, rel=1e-12)
            assert c.row_sums == pytest.approx(c.counts.sum(axis=1), rel=1e-12)
            assert c.col_sums == pytest.approx(c.counts.sum(axis=0), rel=1e-12)


def test_custom_prior():
    t = parse_table("1,2\n3,4")
    c = apply_prior(t, PriorSpec("custom", np.array([[0.1, 0.2], [0.3, 0.4]])))
    assert np.allclose(c.counts, [[1.1, 2.2], [3.3, 4.4]])


def test_custom_prior_wrong_shape():
    t = parse_table("1,2\n3,4")
    with pytest.raises(ValidationError):
        apply_prior(t, PriorSpec("custom", np.ones((3, 2))))


def test_custom_prior_negative():
    with pytest.raises(ValidationError):
        PriorSpec("custom", np.array([[-0.1, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("matrix, message", [
    ([[-1.0, 0.0], [0.0, 0.0]], "negative custom prior entry at cell (0, 0)"),
    ([[0.5, 0.5], [0.5, math.nan]], "non-finite custom prior entry at cell (1, 1)"),
    ([[0.5, math.inf], [0.5, 0.5]], "non-finite custom prior entry at cell (0, 1)"),
    (np.zeros((0, 2)), "custom prior matrix must be a non-empty 2-d grid"),
    ([0.5, 0.5], "custom prior matrix must be a non-empty 2-d grid"),
], ids=["negative", "nan", "inf", "empty", "1-d"])
def test_custom_prior_bad_matrix_names_cell(matrix, message):
    with pytest.raises(ValidationError) as ei:
        PriorSpec("custom", np.array(matrix, dtype=float))
    assert str(ei.value) == message


def test_unknown_prior_kind():
    with pytest.raises(ValidationError):
        PriorSpec("flat")


def test_tables_are_immutable():
    t = parse_table("1,2\n3,4")
    with pytest.raises(ValueError):
        t.counts[0, 0] = 9.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prior", [
    PriorSpec("haldane"),  # the total overflows
    PriorSpec("custom", np.full((2, 2), 1.7e308)),  # the cells overflow
])
def test_overflowing_total_rejected(prior):
    t = CountsTable(np.full((2, 2), 1e308))
    with pytest.raises(NumericPreconditionError, match="total overflows"):
        apply_prior(t, prior)


def test_posterior_arrays_are_read_only():
    # The point statistics are cached on the posterior, so none of the arrays
    # they are computed from may change afterwards.
    c = apply_prior(parse_table("1,2\n3,4"), PriorSpec("jeffreys"))
    for arr in (c.counts, c.row_sums, c.col_sums):
        with pytest.raises(ValueError):
            arr[0] = 9.0


def test_require_all_positive_names_cells():
    from miposterior import ZeroCellError

    apply_prior(parse_table("5,1\n1,5"), PriorSpec("haldane")).require_all_positive("x")
    c = apply_prior(parse_table("5,0\n0,5"), PriorSpec("haldane"))
    with pytest.raises(ZeroCellError, match=r"^x requires .*\(0, 1\), \(1, 0\)") as ei:
        c.require_all_positive("x")
    assert ei.value.cells == [(0, 1), (1, 0)]


def test_posterior_counts_keeps_no_writable_caller_array():
    # Built with its own constructor, the posterior must not share a writable
    # array with the caller, or its cached statistics go stale.
    n = np.array([[8.0, 2.0], [2.0, 8.0]])
    c = PosteriorCounts(n)
    j = c.stats.j
    n[0, 1] = 8.0
    assert c.stats.j == j == point_stats(c).j
    for arr in (c.counts, c.row_sums, c.col_sums):
        assert not arr.flags.writeable


def test_posterior_counts_keeps_read_only_arrays_as_given():
    c = apply_prior(parse_table("1,2\n3,4"), PriorSpec("jeffreys"))
    again = PosteriorCounts(c.counts)
    assert again.counts is c.counts


def test_counts_table_leaves_caller_array_writable():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = CountsTable(a)
    a[0, 0] = 5.0
    assert t.counts[0, 0] == 1.0
    assert not t.counts.flags.writeable


def test_custom_prior_leaves_caller_array_writable():
    m = np.array([[0.1, 0.2], [0.3, 0.4]])
    prior = PriorSpec("custom", m)
    m[0, 0] = 5.0
    assert prior.matrix[0, 0] == 0.1
    assert not prior.matrix.flags.writeable


def test_parsed_grid_is_kept_without_a_copy():
    grid = parse_grid("1,2\n3,4")
    assert not grid.flags.writeable
    assert CountsTable(grid).counts is grid
    assert PriorSpec("custom", grid).matrix is grid


@pytest.mark.parametrize("fmt, text", [("csv", "0,0\n0,0"), ("json", "[[0, 0], [0, 0]]")])
def test_parse_grid_accepts_all_zero(fmt, text):
    assert np.array_equal(parse_grid(text, fmt), np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="all-zero"):
        parse_table(text, fmt)


@pytest.mark.parametrize("text, message", [
    ("[[true, 1], [2, 3]]", "json table entries must be numbers; got true at cell (0, 0)"),
    ('[[1, 2], [3, "4"]]', 'json table entries must be numbers; got "4" at cell (1, 1)'),
    ('[["3", "4"], [1, 2]]', 'json table entries must be numbers; got "3" at cell (0, 0)'),
    ("[[1, null], [2, 3]]", "json table entries must be numbers; got null at cell (0, 1)"),
    ("[[1, [2]], [3, 4]]", "json table entries must be numbers; got [2] at cell (0, 1)"),
    ("[[1, 1e999], [2, 3]]", "non-finite entry at cell (0, 1)"),
    ("[[1, 2], [1%s, 3]]" % ("0" * 400), "non-finite entry at cell (1, 0)"),
], ids=["bool", "string", "strings", "null", "array", "inf", "huge_int"])
def test_parse_json_rejects_non_numbers(text, message):
    with pytest.raises(ValidationError) as ei:
        parse_table(text, "json")
    assert str(ei.value) == message


def _reference_parse(text: str, fmt: str) -> CountsTable:
    """The csv/tsv parser before the C tokenizer: float() on every cell."""
    sep = "," if fmt == "csv" else "\t"
    rows = [line.split(sep) for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValidationError("empty table")
    try:
        grid = np.array(rows, dtype=float)
    except ValueError:
        _raise_bad_cell(rows)
        raise
    return CountsTable(grid)


def _parse_outcome(parse, text, fmt):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = parse(text, fmt).counts
    except ValidationError as exc:
        return "error", str(exc)
    return "grid", grid.shape, grid.tobytes()


class TestParseParity:
    """parse_table reads csv and tsv through numpy's C tokenizer; it must
    return the grid, bit for bit, or the error message of the per-cell
    float() parser it replaced."""

    @pytest.fixture(autouse=True)
    def _tokenize_short_text(self, monkeypatch):
        # Short text is parsed cell by cell; send every text through the
        # tokenizer, however short, so these cases test it.
        monkeypatch.setattr(tables, "_LOADTXT_MIN_CHARS", 0)

    # Cell fragments for the token soup: separators, line ends (CRLF, \x0c
    # and \x1c split lines), literals only float() reads (1_000, full-width
    # and Arabic-Indic digits), literals neither reads (0x10, 1e, quotes,
    # comments), non-finite literals, and whitespace that float() strips
    # (\xa0) or rejects (\x1f).
    ATOMS = (
        "0", "1", "-0", "7", "12", "+3", "-1", "1.5", ".5", "5.", "1e5",
        "1e308", "1e400", "1e-400", "%.17g" % 0.1, "1_000", "nan", "inf",
        "-inf", "Infinity", "0x10", "1e", "e", ".", "_", "a", "-", "+",
        "#", "#1", '"1"', "'2'", " ", "  ", "\t", "\r", "\n", "\r\n",
        "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000", "\x00",
        "\u0661", "\uff11", ",", ",", ",", "\t", "\t", "\n", "\n",
    )

    def _assert_same(self, text, fmt):
        got = _parse_outcome(parse_table, text, fmt)
        want = _parse_outcome(_reference_parse, text, fmt)
        assert got == want, (text, fmt)

    def test_tables(self):
        rng = random.Random(2001)
        for _ in range(400):
            r, s = rng.choice((1, rng.randint(1, 7))), rng.choice((1, rng.randint(1, 7)))
            cells = [[rng.choice(("%d" % rng.randint(0, 10 ** rng.randint(0, 18)),
                                  "%.17g" % (rng.random() * 10.0 ** rng.randint(-8, 30))))
                      for _ in range(s)] for _ in range(r)]
            for fmt, sep in (("csv", ","), ("tsv", "\t")):
                pad = (" ", "  ", "\xa0") if fmt == "tsv" else (" ", "\t", "\xa0")
                lines = []
                for row in cells:
                    lines.append(sep.join(
                        rng.choice(("",) * 4 + pad) + c + rng.choice(("",) * 4 + pad)
                        for c in row))
                    if rng.random() < 0.2:
                        lines.append(rng.choice(("", " ", "\t", "\x0c")))
                    if rng.random() < 0.05:
                        lines[-1] += rng.choice((sep, "#", "\x0c", "\x1f", "\x85"))
                text = rng.choice(("\n", "\r\n")).join(lines)
                self._assert_same(text + rng.choice(("", "\n", "\r\n")), fmt)

    def test_token_soup(self):
        rng = random.Random(2002)
        for _ in range(4000):
            text = "".join(rng.choice(self.ATOMS) for _ in range(rng.randint(1, 14)))
            for fmt in ("csv", "tsv"):
                self._assert_same(text, fmt)

    @pytest.mark.parametrize("text", [
        "1,2\n3,4", "5", "1,2,3", "1\n2\n3", "1,2,\n3,4,", "#1,2\n3,4",
        '"1",2\n3,4', "1_000,2\n3,4", "nan,1\n2,3", " 1 , 2 \r\n\r\n 3 , 4 \r\n",
        "1,2\x0c3,4", "1\x1f,2\n3,4", "\x1f1,2\n3,4", "1\t2\n3\t4",
    ])
    def test_named_cases(self, text):
        for fmt in ("csv", "tsv"):
            self._assert_same(text, fmt)

    def test_large_tables_at_default_threshold(self, monkeypatch):
        monkeypatch.undo()
        assert tables._LOADTXT_MIN_CHARS > 0
        rng = np.random.default_rng(2003)
        grid = rng.poisson(50.0, size=(30, 30)).astype(float)
        grid[::3] *= rng.uniform(0.5, 2.0, size=(10, 30))
        cells = [["%.17g" % v for v in row] for row in grid]
        for edit in (None, (4, 7, "1_000"), (29, 0, " nan"), (12, 3, "#1")):
            rows = [list(row) for row in cells]
            if edit:
                rows[edit[0]][edit[1]] = edit[2]
            for fmt, sep in (("csv", ","), ("tsv", "\t")):
                text = "\n".join(sep.join(row) for row in rows) + "\n\n"
                assert len(text) >= tables._LOADTXT_MIN_CHARS
                self._assert_same(text, fmt)


def test_posterior_counts_derives_its_state_from_the_counts():
    n = np.array([[8.0, 2.0, 0.0], [2.0, 8.0, 1.5]])
    c = PosteriorCounts(n)
    assert c.row_sums.tolist() == [10.0, 11.5]
    assert c.col_sums.tolist() == [10.0, 10.0, 1.5]
    assert c.total == 21.5 and c.all_positive is False
    assert PosteriorCounts(n + 1.0).all_positive is True
    for arr in (c.row_sums, c.col_sums):
        assert not arr.flags.writeable


def test_posterior_counts_checks_its_total():
    with pytest.raises(NumericPreconditionError, match="total overflows"):
        PosteriorCounts(np.full((2, 2), 1e308))
    with pytest.raises(ValidationError, match="total must be positive"):
        PosteriorCounts(np.zeros((2, 2)))
