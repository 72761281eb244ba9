"""The README's Python examples and command lines run as written, the
census runs its command lines, and the package exports each module's
public names."""

import ast
import importlib
import re
import shlex
import types
from pathlib import Path

import pytest

import hamiltonize
from census_sources import COMMANDS
from hamiltonize.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
# each `hamiltonize ...` line of the "Command line" block, continuations joined
# and comments dropped
SHELL = [shlex.split(line, comments=True) for line in re.search(
    r"^## Command line\n\n```\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL
).group(1).replace("\\\n", " ").splitlines()]
# the compare example misses its 1e-5 tolerance (max_sup 1.7e-5): fixed-step
# RK4 steps across the zeros of the weights E_b
MISSES = {"compare": pytest.mark.xfail(strict=True, raises=AssertionError,
                                       reason="RK4 steps across the zeros of E_b, ROADMAP item 1")}


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md[python block {index}]", "exec"), {})


def test_readme_has_command_lines():
    assert SHELL and all(argv[0] == "hamiltonize" and argv[1:] for argv in SHELL)


@pytest.mark.parametrize("argv", [pytest.param(argv[1:], id=" ".join(argv[1:]),
                                               marks=MISSES.get(argv[1], ())) for argv in SHELL])
def test_readme_command_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


def test_census_runs_every_readme_command_line():
    census = {" ".join(command.split()) for command in COMMANDS}
    assert [argv for argv in SHELL if " ".join(argv[1:]) not in census] == []


# the __all__ of each module that hamiltonize/__init__.py imports from (none
# where a module has none); import_module, as the function ``integrate``
# shadows its module on the package
INIT = ast.parse(Path(hamiltonize.__file__).read_text(encoding="utf-8"))
DECLARED = {module: getattr(module, "__all__", ()) for module in (
    importlib.import_module(f"hamiltonize.{node.module}")
    for node in INIT.body if isinstance(node, ast.ImportFrom))}


def test_package_exports_each_modules_all():
    assert DECLARED
    missing = [(module.__name__, name) for module, names in DECLARED.items() for name in names
               if getattr(hamiltonize, name, None) is not getattr(module, name)]
    assert missing == []


def test_each_package_name_is_declared_in_one_modules_all():
    declared = [name for names in DECLARED.values() for name in names]
    public = [name for name, value in vars(hamiltonize).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert [name for name in public if declared.count(name) != 1] == []
