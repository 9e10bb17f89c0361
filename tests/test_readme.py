"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(code, f"{README} (Library quick start)", "exec"), namespace)
    # what the block's comments claim
    assert namespace["report"].converged and namespace["cont"].converged
    assert namespace["verdict"].obstructed
    assert namespace["value"] == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert not any(tmp_path.iterdir())  # the example writes no files
