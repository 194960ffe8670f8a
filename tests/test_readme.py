"""The README against the code: its examples run, and the flags, exit
codes, paths and numerics index it names are the ones the code has."""

import ast
import importlib
import re
from pathlib import Path

from miposterior import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text under a `## title` heading, up to the next `## ` heading."""
    start = README.index("\n## %s\n" % title)
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _table_rows(text: str) -> list[list[str]]:
    """The cells of each body row of the Markdown tables in text."""
    rows = [line.strip("|").split("|") for line in text.splitlines()
            if line.startswith("|") and not line.startswith("|---")]
    return [[cell.strip() for cell in row] for row in rows]


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_command_line_flags_are_the_parsers():
    section = _section("Command line")
    options = {opt for action in cli.build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    options.discard("--help")
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == options
    tabled = [re.match(r"`(--[a-z-]+)", row[0]) for row in _table_rows(section)]
    assert {m.group(1) for m in tabled if m} == options


def test_exit_codes_are_the_clis():
    listed = {row[1].strip("`"): int(row[0].strip("`"))
              for row in _table_rows(_section("Command line"))
              if row[1].startswith("`EXIT_")}
    assert listed == {k: v for k, v in vars(cli).items() if k.startswith("EXIT_")}


def _test_names(path: Path) -> set[str]:
    """Every `Class`, `function` and `Class::method` defined at the top of a
    test file."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {"%s::%s" % (node.name, f.name) for f in node.body
                      if isinstance(f, ast.FunctionDef)}
    return names


def test_named_paths_exist():
    paths = re.findall(r"(?<![\w/.])((?:tests|tools|demos)/[\w.*/-]*(?:::[\w:]+)?)",
                       README)
    assert paths
    for ref in paths:
        path, _, test = ref.partition("::")
        assert list(ROOT.glob(path)), ref
        if test:
            assert test in _test_names(ROOT / path), ref


def test_numerics_index_resolves():
    where = [re.match(r"`(\w+)\.(\w+)`", row[1]).groups()
             for row in _table_rows(_section("Numerics index"))[1:]]
    for module, symbol in where:
        getattr(importlib.import_module("miposterior." + module), symbol)
    assert {symbol for _, symbol in where} >= {
        "_SERIES_TOTAL", "_ASYMPTOTIC_TOTAL", "_VECTOR_CELLS", "_sum",
        "_psi_cells", "_margins", "_CHUNK_CELLS", "mc_estimate",
        "_delimited_grid", "__getattr__", "fit_poly_ansatz", "_nonnegative"}


def test_every_public_name_is_listed():
    import miposterior

    listed = set(re.findall(r"`(\w+)`", " ".join(
        row[0] for row in _table_rows(_section("Library quick start")))))
    assert listed == set(miposterior.__all__)
