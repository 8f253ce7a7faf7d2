"""README.md's examples against the package: every ```python block runs,
so a public name the docs use cannot be removed unnoticed, and every
``spinqpt`` command of its ```sh blocks parses, so a documented command
cannot drift from the flags."""

import re
import shlex
from pathlib import Path

import pytest

from spinqpt.cli import ConfigError, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks, "README.md has no python block"
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_commands_parse():
    commands = [words[1:] for block in _blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()
                if (words := shlex.split(line, comments=True))[:1] == ["spinqpt"]]
    assert commands, "README.md has no spinqpt command"
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except ConfigError as err:
            pytest.fail(f"spinqpt {shlex.join(argv)}: {err}")
