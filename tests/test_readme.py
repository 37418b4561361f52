"""README's documented library entry points run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_entry_points_run():
    section = README.read_text().split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README's Library entry points section has no python block"
    names = {}
    exec(compile(block.group(1), str(README), "exec"), names)
    assert names["report"].passed
    assert names["gain"].U.shape == (3 * 4, 3 * 4)
