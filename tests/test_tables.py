import numpy as np
import pytest

from miposterior import (
    CountsTable,
    NumericPreconditionError,
    PriorSpec,
    ValidationError,
    apply_prior,
    parse_table,
    serialize_table,
)


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
