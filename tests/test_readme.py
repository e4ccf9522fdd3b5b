"""The README's quick start runs as written, so it names only public functions that exist."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})
    path, fused = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\[\d+ \d+\]", path)
    assert fused.startswith("[") and fused.endswith("]")
