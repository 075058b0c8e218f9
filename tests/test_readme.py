"""The README's Python examples run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
