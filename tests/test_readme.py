"""The README's Python examples run as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    assert len(BLOCKS) >= 2
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
