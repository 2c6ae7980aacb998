"""README's Library-use example runs against the package as it is.

The fenced `python` block under "## Library use" is executed as written, so
an API change that breaks the documented calls fails here, and the values
its comments state are checked.
"""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README's Library use section has no python block"
    return match.group(1)


def test_library_use_example_runs(capsys):
    namespace: dict = {}
    exec(compile(_library_use_block(), f"{README}:Library use", "exec"), namespace)
    const = namespace["const"]
    assert const.kappa == pytest.approx(0.5, abs=1e-12)
    assert const.rho_ext_slope == 2.0
    assert "violation_bound=" in capsys.readouterr().out
