"""The README's code examples run against the library as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(_python_block("Library use"), "README.md", "exec"), {})
    cells, nbytes = map(int, capsys.readouterr().out.split())
    assert cells > 0 and nbytes == 8 * cells
