import contextlib
import io
import re
from pathlib import Path

import pytest

import stationary_light

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_are_unique():
    names = stationary_light.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(stationary_light, name)]
    assert missing == []


def test_readme_library_example_runs():
    # the README's one python block, run as written, so an API change cannot leave it stale
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert float(out.getvalue()) == pytest.approx(0.713, abs=1e-3)
