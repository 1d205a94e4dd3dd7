"""README examples run against the current API."""

import re
from pathlib import Path

from poolgp import genome
from poolgp.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    # optimize=0 keeps the block's assert under python -O
    exec(compile(block, "README.md", "exec", optimize=0), {})
    capacity, peak, best = capsys.readouterr().out.split()
    assert int(peak) <= int(capacity)
    assert float(best) >= 0.0


def test_command_line_example_prints_its_summary_line(capsys, monkeypatch, tmp_path):
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"Example:\n\n```\n(.*?)```", section, re.DOTALL).group(1)
    command, output = block.split("\n", 1)
    argv = command.split()
    assert argv[:2] == ["$", "poolgp"]
    monkeypatch.chdir(tmp_path)  # the example writes its CSV to the working directory
    assert main(argv[2:]) == 0
    want = " ".join(output.replace("\\\n", " ").split())  # continuation lines joined
    # the example ran on the C kernel; a machine without one reports python
    want = want.replace("evaluator=c ", f"evaluator={genome.evaluator()} ")
    assert "evaluator=" in want
    assert capsys.readouterr().out.strip() == want
