"""The README's library example, subcommand table and settings table match the code."""

import argparse
import re
from pathlib import Path

from collusioncore.cli import TUNABLE_DEFAULTS, build_parser

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


def test_subcommand_table_lists_the_parser_subcommands_in_order():
    lines = section("Subcommands").splitlines()
    start = lines.index("| command | purpose |") + 2  # past the rule row
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([\w-]+)` \|", line).group(1))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert rows == list(sub.choices)


def test_settings_table_lists_the_tunable_settings():
    lines = section("Subcommands").splitlines()
    start = lines.index("| setting | default | bound |") + 2  # past the rule row
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, default, bound = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((re.match(r"`(\w+)`", name).group(1), default.split()[0], bound))
    assert rows == [(name, repr(default), bound)
                    for name, (default, _, bound) in TUNABLE_DEFAULTS.items()]
