"""The README's Python examples run as written and its shell commands
parse, so an API or CLI change cannot leave them stale."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from pecldpc.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_commands_parse():
    # parsed only, never run: each command must name a subcommand and
    # flags the CLI still accepts
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln, comments=True) for ln in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["pecldpc"]]
    assert commands, "README has no pecldpc command"
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pecldpc {shlex.join(argv)}")


def test_console_script_target_imports():
    # read without tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.S | re.M)
    targets = re.findall(r'^\s*\S+\s*=\s*"([\w.]+):(\w+)"', section.group(1), re.M)
    assert targets, "pyproject.toml names no console script"
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module), name))
