"""The README's library example and its subcommand, settings and outputs
tables, and the --help outputs list, match the code."""

import argparse
import re
from pathlib import Path

from collusioncore.cli import OUTPUTS, build_parser
from collusioncore.settings import SETTINGS

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The README text from the ``## title`` heading to the next one."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_example_imports_exported_names():
    block = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    statement = re.search(r"^from collusioncore import \(.*?\)", block, re.S | re.M).group(0)
    exec(statement, {})


def table(title: str, header: str) -> list:
    """The stripped cells of each row of the table under ``header`` in section ``title``."""
    lines = section(title).splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:  # past the rule row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_subcommand_table_lists_the_parser_subcommands_in_order():
    rows = [re.fullmatch(r"`([\w-]+)`", name).group(1)
            for name, _ in table("Subcommands", "| command | purpose |")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert rows == list(sub.choices)


def test_settings_table_lists_the_tunable_settings():
    rows = [(re.match(r"`(\w+)`", name).group(1), default.split()[0], bound)
            for name, default, bound in table("Subcommands", "| setting | default | bound |")]
    assert rows == [(name, repr(default), bound)
                    for name, (default, _, bound) in SETTINGS.items()]


def test_outputs_table_lists_every_output():
    assert table("Outputs", "| file | written by | format |") == [
        [f"`{name}`", ", ".join(f"`{c}`" for c in commands) if commands else "every command", text]
        for name, commands, text in OUTPUTS]


def test_help_lists_every_output():
    epilog = " ".join(["", *build_parser().epilog.split(), ""])  # whitespace runs as one space
    for name, commands, text in OUTPUTS:
        assert f" {name} {', '.join(commands or ['every command'])} {text} " in epilog, name
