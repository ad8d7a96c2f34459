"""README's "Library use" example runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs_and_prints_its_comments(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert comments and all(line in printed for line in comments), printed
