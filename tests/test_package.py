import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import stationary_light
from stationary_light.cli import SCENARIO_CATALOG

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


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


def test_console_script_lists_the_catalog(capsys):
    # the installed `stationary-light` command calls this target; read as text,
    # since Python 3.10 has no tomllib
    text = PYPROJECT.read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    ((module, name),) = re.findall(r'^stationary-light = "([\w.]+):(\w+)"$', scripts, re.M)
    entry_point = getattr(importlib.import_module(module), name)
    assert entry_point(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(SCENARIO_CATALOG)
