"""Every fenced ``python`` block of the README runs as written, and its
invariant list matches ``check_engine``."""
import re
from pathlib import Path

import pytest

from nocmap.oracles import check_engine

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_check_paragraph_lists_every_engine_invariant():
    """The README's ``nocmap run --check`` paragraph names the invariants
    ``check_engine`` documents, as many as it says, in the same order."""
    paragraph = re.search(
        r"^`nocmap run --check` runs .*?(?=\n\n)", README.read_text(encoding="utf-8"), re.M | re.S
    ).group(0)
    count = re.search(r"It checks (\w+) invariants:", paragraph).group(1)
    listed = re.findall(r"`([a-z-]+)` \(", paragraph)
    documented = re.findall(r"^\s*\* ``([a-z-]+)``:", check_engine.__doc__, re.M)
    assert listed == documented
    numbers = "zero one two three four five six seven eight nine ten eleven twelve".split()
    assert count == numbers[len(documented)]
