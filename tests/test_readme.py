"""README's "Library quick tour" runs as written, so a renamed or removed
name it shows fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick tour\n+```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None, "README has no Library quick tour code block"
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), {})
    assert capsys.readouterr().out.startswith("TraceRow(epoch=10,")
