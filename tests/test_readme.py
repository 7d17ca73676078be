"""The README's examples run as written and print what the README says."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from maxlin2.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(language: str, marker: str) -> str:
    """The fenced block of `language` whose text holds `marker`."""
    blocks = re.findall(rf"```{language}\n(.*?)```", README, re.S)
    (block,) = [b for b in blocks if marker in b]
    return block


def test_readme_command_line_example(tmp_path, monkeypatch, capsys):
    # Each `printf ... > FILE` line writes its file; each `maxlin2` line runs
    # through cli.main, and a `# prints: LINE` comment is its first stdout
    # line, and a `# ... TEXT` comment part of that line.
    monkeypatch.chdir(tmp_path)
    checked = 0
    for line in _block("sh", "demo.ods").splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if words[0] == "printf":
            _, text, redirect, name = words
            assert redirect == ">"
            Path(name).write_text(text.replace("\\n", "\n"))
            continue
        assert words[0] == "maxlin2"
        assert main(words[1:]) == EXIT_OK, line
        first = capsys.readouterr().out.splitlines()[0]
        comment = comment.strip()
        if comment.startswith("prints:"):
            assert first == comment.removeprefix("prints:").strip()
            checked += 1
        elif comment.startswith("..."):
            assert comment.removeprefix("...").strip() in first
            checked += 1
    assert checked == 3  # s K 1, s OPTIMUM 1, r=3 s=3 unit=1 distinct=1


def test_readme_library_example():
    block = _block("python", "from maxlin2 import")
    assert "result = solve_occ2(system)          # falsified_weight == 1" in block
    names: dict = {}
    exec(block, names)
    assert names["result"].falsified_weight == 1
    assert names["bounded"].falsified_weight == 1
    assert len(names["back"]) == names["system"].n
