"""README examples run against the current API."""

import re
from pathlib import Path

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
