"""The README's Python examples run as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_library_use_output_matches_its_comments():
    """Each ``print(...)  # expected`` line of the ``## Library use``
    example prints its comment, in order, before anything else."""
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, re.M | re.S)[1]
    want = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md library use", "exec"), {})
    assert want == ["1.0 True", "True"]
    assert out.getvalue().splitlines()[: len(want)] == want
