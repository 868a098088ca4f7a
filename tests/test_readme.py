"""The README's quick starts run as written."""

import re
import shlex
from pathlib import Path

from origami_rings import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def first_block(heading: str) -> str:
    """The body of the first fenced block after a second-level heading."""
    rest = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", rest, re.S).group(1)


def test_library_quick_start(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(first_block("Quick start (library)"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["[2, 8, 84]", "ring"]


def test_cli_quick_start(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = first_block("Quick start (CLI)").replace("\\\n", " ").splitlines()
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "origami-rings"
        assert cli.run(argv[1:]) == 0, line
    capsys.readouterr()
    assert (tmp_path / "verdict.json").exists() and (tmp_path / "closure.svg").exists()
