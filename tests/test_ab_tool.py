"""tools/ab.py loads two source trees side by side and times them."""

import runpy
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
    assert lines[1].split()[0] == "summarize" and len(lines) == 2


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
