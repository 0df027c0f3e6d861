"""The README's examples run, every exported name exists, and the package
exports exactly the layer modules' lists."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from bicoef.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the line '## heading'."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _cli_commands() -> list[list[str]]:
    text = _block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("bicoef ")]


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_readme_cli_line_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # the falsify example writes records.csv
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_library_block_runs(capsys):
    exec(_block("Library", "python"), {})


@pytest.mark.parametrize("module", ["bicoef", "bicoef.series", "bicoef.caratheodory",
                                    "bicoef.operators", "bicoef.bounds",
                                    "bicoef.harness", "bicoef.cli"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_exports_the_layer_lists_in_order():
    import bicoef
    layers = [importlib.import_module(f"bicoef.{m}")
              for m in ("series", "caratheodory", "operators", "bounds", "harness")]
    assert bicoef.__all__ == [name for mod in layers for name in mod.__all__]
    assert all(getattr(bicoef, name) is getattr(mod, name)
               for mod in layers for name in mod.__all__)
