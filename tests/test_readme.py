"""The README's Python examples and command lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

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
