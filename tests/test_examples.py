"""Every example script must run cleanly (they are living documentation).

The heavier examples are exercised through their ``main()`` with the
module's constants as-is; each finishes in seconds.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report
