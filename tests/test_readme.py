"""README's "Library quick start" block runs as written, and its CLI flag
lists match the parser."""

import argparse
import pathlib
import re

from skewplanes.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def _subcommands(parser, prefix=""):
    """{"families dump": parser, "verify": parser, ...}: the leaf subparsers."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_subcommands(sub, f"{prefix}{name} "))
    return out or {prefix.strip(): parser}


def test_readme_flag_lists_match_parser():
    text = README.read_text()
    start = text.index("## Command-line interface")
    section = text[start:text.index("```sh", start)]
    listed = {m.group(1): set(re.findall(r"`(--[a-z-]+)", m.group(2)))
              for m in re.finditer(r"^- `([a-z ]+)`: (.*?)(?=^- |^$)", section, re.M | re.S)}
    parsed = {name: {opt for action in sub._actions for opt in action.option_strings}
              - {"-h", "--help"}
              for name, sub in _subcommands(build_parser()).items()}
    assert listed == parsed
