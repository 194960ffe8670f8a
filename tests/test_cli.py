import json
import math
import subprocess
import sys
import warnings

import pytest

import miposterior
from miposterior.cli import main


@pytest.fixture
def table_csv(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("8,2\n2,8\n")
    return str(p)


@pytest.fixture
def zero_cell_csv(tmp_path):
    p = tmp_path / "z.csv"
    p.write_text("5,0\n0,5\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basic_report(capsys, table_csv):
    code, out, _ = run(capsys, ["--input", table_csv, "--prior", "jeffreys",
                                "--fit", "gamma", "--quantile", "0.1"])
    assert code == 0
    report = json.loads(out)
    assert report["input"]["r"] == 2
    assert report["input"]["prior"] == "jeffreys"
    assert report["moments"]["mean_exact"] > 0
    assert report["var_order_used"] == 2
    assert report["fit"]["family"] == "gamma"
    assert len(report["quantiles"]) == 1
    assert 0.0 < report["quantiles"][0]["p_exceed"] < 1.0


def test_report_matches_library(capsys, table_csv):
    code, out, _ = run(capsys, ["--input", table_csv, "--prior", "haldane",
                                "--fit", "none"])
    assert code == 0
    report = json.loads(out)
    c = miposterior.apply_prior(
        miposterior.parse_table("8,2\n2,8\n"), miposterior.PriorSpec("haldane"))
    assert report["moments"]["mean_exact"] == miposterior.mean_exact(c)
    assert report["moments"]["var_o2"] == miposterior.var_o2(c)
    assert report["point_stats"]["j"] == miposterior.point_stats(c).j


def test_zero_cell_var_order_2_exit_3(capsys, zero_cell_csv):
    code, _, err = run(capsys, ["--input", zero_cell_csv, "--prior", "haldane",
                                "--var-order", "2", "--fit", "none"])
    assert code == 3
    assert "(0, 1)" in err


def test_zero_cell_auto_falls_back_to_order_1(capsys, zero_cell_csv):
    code, out, _ = run(capsys, ["--input", zero_cell_csv, "--prior", "haldane",
                                "--fit", "none"])
    assert code == 0
    report = json.loads(out)
    assert report["var_order_used"] == 1
    assert report["moments"]["var_o2"] is None
    assert report["moments"]["flags"]["zero_cells"] == [[0, 1], [1, 0]]


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["--input", str(tmp_path / "nope.csv")])
    assert code == 2


def test_bad_table_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3\n")
    code, _, err = run(capsys, ["--input", str(p)])
    assert code == 2
    assert "ragged" in err


@pytest.mark.parametrize("text, message", [
    ("[[true, 1], [2, 3]]", "got true at cell (0, 0)"),
    ("[[1, 2], [3, 1%s]]" % ("0" * 400), "non-finite entry at cell (1, 1)"),
], ids=["bool", "huge_int"])
def test_bad_json_entry_exit_2(capsys, tmp_path, text, message):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run(capsys, ["--input", str(p), "--input-format", "json"])
    assert code == 2 and out == ""
    assert message in err


def test_unknown_flag_exit_64(capsys, table_csv):
    with pytest.raises(SystemExit) as ei:
        main(["--input", table_csv, "--frobnicate"])
    assert ei.value.code == 64


def test_quantile_without_fit_exit_2(capsys, table_csv):
    code, _, err = run(capsys, ["--input", table_csv, "--fit", "none",
                                "--quantile", "0.1"])
    assert code == 2


def test_mc_block_deterministic(capsys, table_csv):
    argv = ["--input", table_csv, "--mc", "2000", "--mc-seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["mc"]["sample_count"] == 2000
    assert report["mc"]["seed"] == 7


def test_custom_prior(capsys, table_csv, tmp_path):
    pm = tmp_path / "prior.csv"
    pm.write_text("0.5,0.5\n0.5,0.5\n")
    code, out, _ = run(capsys, ["--input", table_csv, "--prior", "custom",
                                "--prior-matrix", str(pm), "--fit", "none"])
    assert code == 0
    report = json.loads(out)
    assert report["input"]["n"] == 22.0


def test_all_zero_custom_prior_is_haldane(capsys, table_csv, tmp_path):
    pm = tmp_path / "prior.csv"
    pm.write_text("0,0\n0,0\n")
    code, out, _ = run(capsys, ["--input", table_csv, "--prior", "custom",
                                "--prior-matrix", str(pm)])
    assert code == 0
    code, ref, _ = run(capsys, ["--input", table_csv, "--prior", "haldane"])
    assert code == 0
    assert json.loads(out)["moments"] == json.loads(ref)["moments"]


def test_negative_prior_matrix_names_cell(capsys, table_csv, tmp_path):
    pm = tmp_path / "prior.csv"
    pm.write_text("-1,0\n0,0\n")
    code, out, err = run(capsys, ["--input", table_csv, "--prior", "custom",
                                  "--prior-matrix", str(pm)])
    assert code == 2 and out == ""
    assert "negative custom prior entry at cell (0, 0)" in err


def test_prior_matrix_with_named_prior_exit_2(capsys, table_csv, tmp_path):
    pm = tmp_path / "prior.csv"
    pm.write_text("0.5,0.5\n0.5,0.5\n")
    code, out, err = run(capsys, ["--input", table_csv, "--prior", "jeffreys",
                                  "--prior-matrix", str(pm)])
    assert code == 2 and out == ""
    assert err == "error: --prior-matrix requires --prior custom, not --prior jeffreys\n"


@pytest.mark.parametrize("which", ["--input", "--prior-matrix"])
def test_non_utf8_file_exit_2(capsys, table_csv, tmp_path, which):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe1,2\n3,4\n")
    argv = {"--input": ["--input", str(bad)],
            "--prior-matrix": ["--input", table_csv, "--prior", "custom",
                               "--prior-matrix", str(bad)]}[which]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "is not UTF-8 text" in err


@pytest.mark.parametrize("fmt, text", [
    ("csv", "8,2\n2,8\n"), ("tsv", "8\t2\n2\t8\n"), ("json", "[[8, 2], [2, 8]]"),
])
def test_byte_order_mark_is_skipped(capsys, tmp_path, fmt, text):
    # Excel starts a UTF-8 file with a byte-order mark
    plain, marked = tmp_path / ("plain." + fmt), tmp_path / ("marked." + fmt)
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    reports = []
    for p in (plain, marked):
        code, out, err = run(capsys, ["--input", str(p), "--input-format", fmt])
        assert code == 0 and err == ""
        reports.append(out)
    assert reports[1].replace("marked", "plain") == reports[0]


def test_byte_order_mark_in_prior_matrix_is_skipped(capsys, table_csv, tmp_path):
    pm = tmp_path / "prior.csv"
    pm.write_text("0.5,0.5\n0.5,0.5\n", encoding="utf-8-sig")
    code, out, err = run(capsys, ["--input", table_csv, "--prior", "custom",
                                  "--prior-matrix", str(pm), "--fit", "none"])
    assert code == 0 and err == ""
    assert json.loads(out)["input"]["n"] == 22.0


def test_mc_count_too_large_to_hold_exit_2(capsys, table_csv):
    # 10**20 draws exceed what numpy can address, so nothing is allocated.
    code, out, err = run(capsys, ["--input", table_csv, "--mc", str(10**20)])
    assert code == 2
    assert out == ""
    assert err == "error: mc_estimate cannot hold %d samples\n" % 10**20


def test_negative_mc_seed_exit_2(capsys, table_csv):
    for mc in (["--mc", "1000"], []):  # rejected with or without a Monte Carlo block
        code, out, err = run(capsys, ["--input", table_csv, *mc, "--mc-seed", "-1"])
        assert code == 2 and out == "", mc
        assert "seed >= 0" in err, mc


def test_nan_quantile_exit_2(capsys, table_csv):
    code, out, err = run(capsys, ["--input", table_csv, "--quantile", "nan"])
    assert code == 2 and out == ""
    assert "threshold must be >= 0" in err


@pytest.mark.parametrize("fit", ["ansatz", "gamma"])
def test_constant_variable_fit_exit_3(capsys, tmp_path, fit):
    p = tmp_path / "const.csv"
    for text in ("5,3\n", "5\n", "3,4,5\n", "3\n4\n"):  # 1x2, 1x1, 1x3, 2x1
        p.write_text(text)
        code, out, err = run(capsys, ["--input", str(p), "--fit", fit])
        assert code == 3 and out == "", text
        assert ("fit requires positive variance; the table has one row or one "
                "column, so I is identically 0") in err, text


def test_ansatz_fit(capsys, table_csv):
    code, out, _ = run(capsys, ["--input", table_csv, "--prior", "haldane",
                                "--fit", "ansatz", "--quantile", "0.2"])
    assert code == 0
    report = json.loads(out)
    assert report["fit"]["family"] == "poly_ansatz"
    assert report["fit"]["diagnostics"]["residual"] <= 1e-8


def test_ansatz_without_root_exits_3(capsys, table_csv, monkeypatch):
    from miposterior import FitError, cli

    bases = []

    def no_root(*raw, base, support_max):
        bases.append(base)
        raise FitError("four-moment fit (%s base): no root ... (best residual 0.5)"
                       % base, residual=0.5)

    monkeypatch.setattr(cli, "fit_poly_ansatz", no_root)
    code, out, err = run(capsys, ["--input", table_csv, "--fit", "ansatz"])
    assert code == 3
    assert out == ""
    assert bases == ["gamma", "normal"]
    assert "normal base" in err and "best residual" in err
    assert "Traceback" not in err


def test_ansatz_falls_back_to_normal_base(capsys, tmp_path):
    # Its series kurtosis is below skewness^2 + 1: no gamma-base ansatz
    # has these four moments, but a normal-base one does.
    p = tmp_path / "t.csv"
    p.write_text("8,3\n5,4\n")
    code, out, err = run(capsys, ["--input", str(p), "--prior", "jeffreys",
                                  "--fit", "ansatz", "--quantile", "0.05"])
    assert code == 0 and err == ""
    fit = json.loads(out)["fit"]
    assert fit["params"]["base"] == "normal"
    assert fit["diagnostics"]["residual"] <= 1e-8


def test_ansatz_narrow_dip_reported(capsys, tmp_path):
    # The fitted quadratic's negative dip is narrower than 1/1023 of the
    # checked interval, so a 1024-point grid can step over it.
    import numpy as np
    from miposterior import FitResult, density

    p = tmp_path / "t.csv"
    p.write_text("17,10,19\n22,21,17\n10,8,2\n")
    code, out, err = run(capsys, ["--input", str(p), "--fit", "ansatz"])
    assert code == 0 and err == ""
    fit = json.loads(out)["fit"]
    b, c = fit["params"]["b"], fit["params"]["c"]
    hi = fit["diagnostics"]["nonnegativity_grid_max"]
    ts = [0.0, hi] + ([-b / (2.0 * c)] if c > 0 and 0.0 < -b / (2.0 * c) < hi else [])
    f = FitResult(fit["family"], fit["params"], tuple(fit["moments_achieved"]))
    values = density(f, np.array(ts))
    assert fit["diagnostics"]["density_nonnegative"] == bool(np.all(values >= 0))
    assert not fit["diagnostics"]["density_nonnegative"]
    assert fit["diagnostics"]["warnings"] == ["fitted density dips negative on [0, %.6g]" % hi]


def test_one_point_stats_pass_per_report(capsys, table_csv, monkeypatch):
    from miposterior import cli, moments

    calls = []
    original = moments.point_stats

    def counted(c):
        calls.append(c)
        return original(c)

    for mod in (moments, cli):
        if getattr(mod, "point_stats", None) is original:
            monkeypatch.setattr(mod, "point_stats", counted)
    code, out, _ = run(capsys, ["--input", table_csv])
    assert code == 0
    assert len(calls) == 1
    report = json.loads(out)
    assert report["point_stats"]["j"] == original(calls[0]).j


def test_text_format(capsys, table_csv):
    code, out, _ = run(capsys, ["--input", table_csv, "--format", "text"])
    assert code == 0
    assert "mean_exact" in out
    assert "fit (gamma)" in out


def test_tsv_and_json_inputs(capsys, tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("1\t2\n3\t4\n")
    code, out, _ = run(capsys, ["--input", str(p), "--input-format", "tsv",
                                "--fit", "none"])
    assert code == 0
    assert json.loads(out)["input"]["table"] == [[1.0, 2.0], [3.0, 4.0]]
    q = tmp_path / "t.json"
    q.write_text("[[1,2],[3,4]]")
    code, out, _ = run(capsys, ["--input", str(q), "--input-format", "json",
                                "--fit", "none"])
    assert code == 0


def test_degenerate_table_reported_not_crashed(capsys, tmp_path):
    p = tmp_path / "row.csv"
    p.write_text("1,2,3\n")
    code, out, _ = run(capsys, ["--input", str(p), "--fit", "none"])
    assert code == 0
    report = json.loads(out)
    assert report["moments"]["i_max"] == 0.0
    assert report["moments"]["mean_exact"] == 0.0


def test_dependent_zero_variance_message(capsys, zero_cell_csv):
    code, _, err = run(capsys, ["--input", zero_cell_csv, "--prior", "haldane"])
    assert code == 3
    assert "zero leading-order variance" in err
    assert "independence" not in err


@pytest.mark.parametrize("text", [
    "1e200,1\n1,1e200\n",  # products of counts overflow
    "3e170,1e170\n1e170,2e170\n",  # the variance squared underflows
    "1e-200,1e-200\n1e-200,2e-200\n",  # n^2 underflows to 0
    "1e308,1e308\n1e308,1e308\n",  # the total overflows
])
def test_extreme_magnitudes_exit_cleanly(capsys, tmp_path, text):
    p = tmp_path / "big.csv"
    p.write_text(text)
    code, out, err = run(capsys, ["--input", str(p), "--prior", "haldane"])
    assert code in (0, 3)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)


def test_import_leaves_integrate_and_optimize_unloaded():
    code = ("import sys, miposterior.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_total_exits_3_naming_it(capsys, tmp_path):
    p = tmp_path / "big.csv"
    p.write_text("1e308,1e308\n1e308,1e308\n")
    code, _, err = run(capsys, ["--input", str(p), "--prior", "haldane"])
    assert code == 3
    assert "posterior total overflows" in err


@pytest.mark.parametrize("code", [
    "import miposterior.cli",
    "import miposterior as mp\n"
    "post = mp.apply_prior(mp.CountsTable([[8.0, 2.0], [2.0, 8.0]]), "
    "mp.PriorSpec('jeffreys'))\n"
    "mp.mc_estimate(post, 10000, seed=1, thresholds=(0.1,))",
    "import miposterior as mp\n"
    "mp.survival(mp.fit_two_moment(0.3, 0.02, 'normal'), 0.4)",
    "import miposterior as mp\n"
    "mp.survival(mp.fit_two_moment(0.3, 0.02, 'lognormal'), 0.4)",
    "import miposterior as mp\n"
    "mp.digamma_integer(7), mp.digamma_half_integer(3), mp.psi(7.0), mp.psi(7.5)",
], ids=["import_cli", "mc_estimate", "normal_tail", "lognormal_tail", "psi_tables"])
def test_scipy_free_paths_load_no_scipy(code):
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_ansatz_report_leaves_optimize_unloaded(table_csv):
    code = ("import contextlib, io, sys\n"
            "from miposterior.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['--input', %r, '--fit', 'ansatz', '--quantile', '0.2'])\n"
            "print(code, 'scipy.optimize' in sys.modules)" % table_csv)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "False"]


@pytest.mark.parametrize("extra", [
    ["--fit", "ansatz"],
    ["--fit", "none", "--mc", "1000"],
])
def test_zero_cell_ansatz_and_mc_exit_3(capsys, zero_cell_csv, extra):
    code, out, err = run(capsys, ["--input", zero_cell_csv, "--prior", "haldane",
                                  *extra])
    assert code == 3
    assert out == ""
    assert "(0, 1)" in err
    assert "Traceback" not in err


def test_inf_quantile_exit_2(capsys, table_csv):
    code, out, err = run(capsys, ["--input", table_csv, "--quantile", "inf"])
    assert code == 2 and out == ""
    assert "--quantile must be finite" in err


@pytest.mark.parametrize("fit", ["gamma", "lognormal", "ansatz"])
def test_fit_rejecting_the_summary_exits_3(capsys, table_csv, monkeypatch, fit):
    # A summary whose exact mean is not positive: the fit's inputs come from
    # the summary, so the failure is a numeric precondition, not bad input.
    import dataclasses

    from miposterior import cli, moments

    def zero_mean(post):
        return dataclasses.replace(moments.summarize(post), mean_exact=0.0)

    monkeypatch.setattr(cli, "summarize", zero_mean)
    code, out, err = run(capsys, ["--input", table_csv, "--fit", fit])
    assert code == 3 and out == ""
    assert "requires m" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fit", ["gamma", "lognormal"])
def test_fit_of_tiny_counts_takes_their_positive_mean(capsys, tmp_path, fit):
    # mean_exact takes psi(1 + x) - psi(1) from its series below a total of
    # 1e-2, so the mean of these counts is 3.29e-20, not 0.
    p = tmp_path / "t.csv"
    p.write_text("1e-20,3e-20\n2e-20,1e-20\n")
    code, out, _ = run(capsys, ["--input", str(p), "--prior", "haldane",
                                "--fit", fit])
    assert code == 0
    report = json.loads(out)
    assert report["moments"]["mean_exact"] == pytest.approx(3.2898681336964e-20,
                                                            rel=1e-12, abs=0.0)
    assert report["fit"]["family"] == fit


def test_subnormal_total_exits_3_without_a_warning(capsys, tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("4.42196e-318,0,1.55917e-318\n9.186973e-318,0,0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["--input", str(p), "--prior", "haldane",
                                      "--fit", "lognormal"])
    assert code == 3 and out == ""
    assert "too extreme in magnitude (rescale them)" in err
    assert not caught, [str(w.message) for w in caught]


def test_mc_draw_underflow_exit_3(capsys, tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1e-3,2e-3\n3e-3,1e-3\n")
    code, out, err = run(capsys, ["--input", str(p), "--prior", "haldane",
                                  "--fit", "none", "--mc", "200"])
    assert code == 3 and out == ""
    assert "underflows to 0 in every cell" in err
