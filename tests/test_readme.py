"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # pad with the lines above the block, so a traceback names README lines
        code = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(code, str(README), "exec"), {})
