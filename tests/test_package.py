import ast
import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

import stationary_light
from stationary_light.cli import SCENARIO_CATALOG

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")
PACKAGE = Path(stationary_light.__file__).resolve().parent
MUTATION_SCAN = README.with_name("tools") / "mutation_scan.py"


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


#: The parameters of ``Scenario.run(config, grid, schedule, medium, times)``,
#: which every scenario runner ``_run_*`` takes whether it reads them or not.
_RUNNER_PARAMETERS = {"config", "grid", "schedule", "medium", "times"}


def _unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter, ``self`` included, that its
    function's body never reads; nested functions and lambdas are functions
    too, and a read inside one counts for the function around it.  A runner
    may leave only ``Scenario.run``'s own parameters unread."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        exempt = _RUNNER_PARAMETERS if name.startswith("_run_") else set()
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for statement in body for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread.extend((name, param) for param in params if param not in read | exempt)
    return unread


def test_every_function_reads_every_input():
    # an input a function never reads is one every caller must still form and
    # pass: a function takes only what it reads, and a method reads self
    unread = {path.name: _unread_parameters(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in unread.items() if found} == {}


def test_unread_parameter_scan_finds_each_kind():
    source = (
        "def clock(schedule, t):\n    return t\n"
        "class Medium:\n    def speed(self, schedule):\n        return 1.0 / schedule.c\n"
        "    @staticmethod\n    def unit():\n        return 1.0\n"
        "def outer(a, b):\n    return lambda x: a\n"
        "def _run_case(config, grid, extra):\n    return None\n"
    )
    assert _unread_parameters(source) == [
        ("clock", "schedule"), ("outer", "b"), ("_run_case", "extra"), ("speed", "self"),
        ("<lambda>", "x")]


def test_each_mutation_scan_edit_matches_its_source_once():
    # the scan itself is not run here (it runs tier-1 once per edit); this
    # keeps its edits from going stale as the code they mutate changes
    spec = importlib.util.spec_from_file_location("mutation_scan", MUTATION_SCAN)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    assert len({label for label, *_ in scan.EDITS}) == len(scan.EDITS)
    for label, path, old, new in scan.EDITS:
        assert new != old, label
        assert (scan.ROOT / path).read_text(encoding="utf-8").count(old) == 1, label
