"""tools/ab.py loads two source trees side by side, times them and compares
their outputs."""

import inspect
import json
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_ab_runs_each_copy_on_its_own_package(tmp_path, capsys):
    ab = runpy.run_path(str(ROOT / "tools" / "ab.py"))
    first = ab["load_package"](SRC, "_ab_test_first")
    second = ab["load_package"](SRC, "_ab_test_second")
    assert first is not second and first.moments is not second.moments
    assert first.summarize.__module__ == "_ab_test_first.moments"

    cases = tmp_path / "cases.py"
    cases.write_text(
        "import numpy as np\n"
        "def make(mp):\n"
        "    t = mp.CountsTable(np.array([[3.0, 1.0], [2.0, 5.0]]))\n"
        "    return {'summarize': lambda: mp.summarize(\n"
        "        mp.apply_prior(t, mp.PriorSpec('jeffreys')))}\n")
    assert ab["main"]([str(SRC), str(SRC), str(cases), "--rounds", "4",
                       "--seconds", "0.002"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["callable", "A", "us/call"]
    assert lines[1].split()[0] == "summarize" and lines[2] == ""
    assert lines[3].split()[:3] == ["callable", "B", "against"]
    assert lines[4].split() == ["summarize", "same", "bits", "same", "bits"]
    assert list(json.loads(lines[5])) == ["summarize"] and len(lines) == 6


def test_ab_reports_the_items_that_differ(tmp_path, capsys):
    """A same-bits run makes one call per copy per round, and names the items
    of B that differ from A, with their largest relative move."""
    cases = tmp_path / "cases.py"
    cases.write_text(
        "def make(mp):\n"
        "    mp.calls = 0\n"
        "    def items():\n"
        "        mp.calls += 1\n"
        "        return [1.0, 1.0 + (2**-40 if mp.__name__ == '_ab_b' else 0.0),\n"
        "                ValueError('m')]\n"
        "    return {'items': items,\n"
        "            'error': lambda: ValueError('b' if mp.__name__ == '_ab_b' else 'a'),\n"
        "            'nothing': lambda: None}\n")
    ab = runpy.run_path(str(ROOT / "tools" / "ab.py"))
    assert ab["main"]([str(SRC), str(SRC), str(cases), "--rounds", "4",
                       "--seconds", "0"]) == 0
    assert [sys.modules[alias].calls for alias in ("_ab_a", "_ab_a2", "_ab_b")] == [4, 4, 4]

    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line for line in lines[5:-1]}
    assert list(rows) == ["callable", "items", "error"]
    assert rows["items"].split()[1:] == ["1", "of", "3", "items", "differ,", "move",
                                         "9.09e-13,", "at", "[1]", "same", "bits"]
    assert rows["error"].split()[1:] == ["1", "of", "1", "items", "differ,", "move",
                                         "nan,", "at", "[0]", "same", "bits"]
    report = json.loads(lines[-1])
    b, a2 = report["items"]["B"], report["items"]["A2"]
    assert (b["items"], b["differ"], b["at"]) == (3, 1, [1])
    assert float(b["move"]) == pytest.approx(2**-40 / (1 + 2**-40), rel=1e-2)
    assert a2["differ"] == 0 and report["error"]["B"]["move"] == "nan"
    assert "B" not in report["nothing"] and len(report["nothing"]["B/A q1, median, q3"]) == 3


@pytest.mark.parametrize("cases", sorted((ROOT / "tools").glob("*_stages.py")),
                         ids=lambda p: p.name)
def test_stage_cases_run(cases):
    """Every cases file for tools/ab.py builds on the current tree, and each
    of its callables runs once."""
    ab = runpy.run_path(str(ROOT / "tools" / "ab.py"))
    make = runpy.run_path(str(cases))["make"]
    callables = make(ab["load_package"](SRC, "_ab_smoke_" + cases.stem))
    assert callables
    for fn in callables.values():
        fn()


def test_ansatz_sweep_builds_its_moment_sets():
    """tools/ansatz_sweep.py forms its 22,621 moment sets (45,242 fits) with the
    loaded copy; the fits themselves are left to tools/ab.py."""
    ab = runpy.run_path(str(ROOT / "tools" / "ab.py"))
    make = runpy.run_path(str(ROOT / "tools" / "ansatz_sweep.py"))["make"]
    callables = make(ab["load_package"](SRC, "_ab_smoke_ansatz_sweep"))
    assert list(callables) == ["fits"]
    assert len(inspect.getclosurevars(callables["fits"]).nonlocals["sets"]) == 22621
