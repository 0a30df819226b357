"""README's "Library quick start" block and CLI examples run as written,
and its CLI flag lists match the parser."""

import argparse
import pathlib
import re
import shlex

from skewplanes.cli import build_parser, main

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


def readme_cli_examples():
    """The argv of every `skewplanes ...` line in README's CLI example block."""
    text = README.read_text()
    start = text.index("## Command-line interface")
    block = re.search(r"```sh\n(.*?)```", text[start:], re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("skewplanes ")]


def test_readme_cli_examples_run(capsys):
    # every example but the custom count, which needs a system file, exits
    # 0 (all checks pass) or 3 (no closed formula applies)
    examples = [argv for argv in readme_cli_examples() if "--poly-file" not in argv]
    assert len(examples) >= 10
    for argv in examples:
        assert main(argv) in (0, 3), argv
        capsys.readouterr()
