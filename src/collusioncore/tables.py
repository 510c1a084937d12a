"""The one rule for how an output value becomes text, and the one grammar
for how text read back becomes values.

A row is one ``\\n``-ended line: its cells' ``str`` joined by a separator. A
float's ``str`` is its shortest round-trip ``repr``. Comma-separated rows are
quoted minimally, as the ``csv`` module does, so an id holding a comma or a
quote stays one cell; no id holds a tab, so other rows need no quoting.
What a file writes for an undefined value stays with its writer. So does
text that is not one cell per value: ``features.csv`` (CRLF lines and a row
join tuned for its thousands of floats), the embeddings file's comma-joined
value list, the ``sweep_beta_<b>.csv`` file name, the JSON files and
``model.npz``.

A file read back is split into lines at LF, CR and CRLF, numbered from 1
(:func:`lines`), and its table is read by :func:`read_table`. Each cell is of
a :class:`Kind` (an id, an int from a lower bound, a finite float, a run of
floats) and reads back only in the text its writer gives it: ASCII, a
canonical int, a float's ``repr``. Any other text is the fault ``path:line:
column '<name>' …``; a line of other cells is ``… expected N fields``, and a
key listed twice ``… listed twice`` (:func:`unique`). The record files follow
ingest instead, the ``--config`` file (typed by people) shares only the line
rule, and ``model.npz`` is a numpy archive.
"""

import csv
import io
import math
import re
from pathlib import Path
from typing import Callable

ID_RULE = "must be non-empty, without tab, CR or LF"  # outputs write ids into tab-separated lines


def valid_id(value: str) -> bool:
    return value != "" and "\t" not in value and "\r" not in value and "\n" not in value


class Kind:
    """The text writers give a kind of cell (a regular expression), the value
    of that text, and what a fault says the cell must be."""

    def __init__(self, text: str, value: Callable, rule: str):
        self.text, self.value, self.rule = text, value, rule


def _finite(text: str) -> float:
    if math.isinf(value := float(text)):  # the text of a float past the largest
        raise ValueError(text)
    return value


ID = Kind("[^\t\r\n]+", str, ID_RULE)
# a float's repr: 0.25, 12.5, 1.5e-05 or 1e+300; no alternative backtracks over digits
FLOAT = Kind(r"-?(?:0\.[0-9]+|[1-9](?:\.[0-9]+(?:e[-+][0-9]{2,})?|[0-9]+\.[0-9]+|e[-+][0-9]{2,}))",
             _finite, "must be a finite float")


def integer(low: int) -> Kind:
    """Canonical ints from ``low`` up, for a one-digit ``low``."""
    return Kind(f"[{low}-9]|[1-9][0-9]+", int, f"must be an integer >= {low}")


def choice(*words: str) -> Kind:
    return Kind("|".join(words), str, "must be " + " or ".join(map(repr, words)))


def floats(n: int, value: Callable) -> Kind:
    """``n`` comma-joined :data:`FLOAT` cells, read as one by ``value``."""
    return Kind(f"(?:{FLOAT.text})(?:,(?:{FLOAT.text})){{{n - 1}}}", value, FLOAT.rule)


def format_rows(rows, sep: str) -> str:
    if sep == ",":
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(map(str, row) for row in rows)
        return text.getvalue()
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


def write_rows(path, rows, sep: str) -> None:
    Path(path).write_text(format_rows(rows, sep), encoding="utf-8")


def _split_lines(data: bytes) -> list:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read().split("\n")


def not_utf8(path) -> str:
    """``path:line: not valid UTF-8``, for a file a text read refused: the
    line of its first bad byte, lines numbered as :func:`lines` numbers them."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    return f"{path}:{len(_split_lines(data))}: not valid UTF-8"


def _text(path) -> list:
    try:
        return _split_lines(Path(path).read_bytes())
    except UnicodeDecodeError:
        raise ValueError(not_utf8(path)) from None


def _numbered(text: list, start: int = 0) -> tuple[list, list]:
    """The numbers and the texts of the non-empty lines from ``text[start]``."""
    text = text[start:]
    return ([lineno for lineno, line in enumerate(text, start + 1) if line],
            list(filter(None, text)))


def lines(path):
    """``(line number, line)`` of each non-empty line of a UTF-8 text file:
    LF, CR and CRLF each end a line, which loses only that ending."""
    return zip(*_numbered(_text(path)))


def parse(path, lineno: int, name: str, kind: Kind, text: str):
    """The value of one cell of column ``name``, or the fault that names it."""
    try:
        if re.fullmatch(kind.text, text):
            return kind.value(text)
    except ValueError:
        pass
    raise ValueError(f"{path}:{lineno}: column '{name}' {kind.rule}, got {text!r}")


def _row(path, lineno: int, line: str, row, columns, sep: str) -> list:
    """The values of one line's cells, or its fault: the first cell that the
    cell's kind refuses, else its number of fields. A cell ends at the
    separator after it, unless its kind's text runs past one (a quoted id)."""
    try:
        if match := row.fullmatch(line):
            return [kind.value(text) for (_, kind), text in zip(columns, match.groups())]
    except ValueError:  # a float past the largest
        pass
    cells = []  # (name, kind, the separator that ends it); a run's floats end at commas
    for name, kind in columns:
        cells += [(name, kind, sep)] if isinstance(name, str) else [(n, FLOAT, ",") for n in name]
    at = 0
    for name, kind, end in cells:
        if at > len(line):
            break
        whole = re.match(f"(?:{kind.text})(?={end}|\\Z)", line[at:])
        text = whole[0] if whole else line[at:].partition(end)[0]
        parse(path, lineno, name, kind, text)
        at += len(text) + 1
    raise ValueError(f"{path}:{lineno}: expected {len(cells)} field{'s' * (len(cells) > 1)}")


def read_table(path, columns=None, header=None, sep: str = "\t") -> tuple[list, list]:
    """The numbers of the non-empty lines after the header, and the values of
    each column: ``(name, kind)``, or ``(names, floats(len(names), value))``.
    ``header`` is the first line's text, or a check of the lines that gives
    the columns and the index of the first row. A tab table is checked by one
    search and cut by one split, as no cell holds a tab; ``features.csv``,
    whose quoted ids and float runs hold commas, is matched line by line."""
    text = _text(path)
    if isinstance(header, str) and text[0] != header:
        raise ValueError(f"{path}: unexpected header {text[0]!r}")
    columns, start = header(text) if callable(header) else (columns, int(header is not None))
    linenos, text = _numbered(text, start)
    if sep == "\t":
        row = "\t".join(f"(?:{kind.text})" for _, kind in columns)  # no kind holds a tab or LF
        try:  # a line break not followed by a row
            if not re.search(f"\n(?!{row}(?:\n|\\Z))", "\n" + "\n".join(text)):
                cells = "\t".join(text).split("\t")
                return linenos, [cells[i::len(columns)] if kind.value is str else
                                 list(map(kind.value, cells[i::len(columns)]))
                                 for i, (_, kind) in enumerate(columns)]
        except ValueError:  # a value its kind refuses: named below
            pass
    row = re.compile(sep.join(f"({kind.text})" for _, kind in columns))  # no kind holds a group
    rows = [_row(path, lineno, line, row, columns, sep) for lineno, line in zip(linenos, text)]
    return linenos, [list(values) for values in zip(*rows)] or [[] for _ in columns]


def unique(path, linenos, keys, name: str, *shown) -> None:
    """Refuse the first key equal to an earlier one, at its line: ``path:line:
    <name> listed twice``, ``name`` formatted by that row's cells of ``shown``,
    else by its key."""
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            cells = [column[i] for column in shown] or [key]
            raise ValueError(f"{path}:{linenos[i]}: {name.format(*cells)} listed twice")
        seen.add(key)


def read_roles(path, roles, summary=None) -> tuple[dict, dict]:
    """``{user: role}`` of the ``user<TAB>role`` lines, each user once, and
    with ``summary`` the values of the ``# key=value`` lines before them whose
    key it gives a kind, each key once (its other ``#`` lines are comments)."""
    columns, values = (("user_id", ID), ("role", choice(*roles))), {}

    def head(text):  # a user's line may start with "# " too, but holds a tab
        start = next((i for i, line in enumerate(text)
                      if line and (line[:2] != "# " or "\t" in line)), len(text))
        keyed = [(lineno, key, value) for lineno, line in zip(*_numbered(text[:start]))
                 for key, _, value in [line[2:].partition("=")] if key in summary]
        unique(path, [lineno for lineno, _, _ in keyed], [key for _, key, _ in keyed], "key '{}'")
        values.update((key, parse(path, lineno, key, summary[key], value))
                      for lineno, key, value in keyed)
        return columns, start

    linenos, (users, assigned) = read_table(path, columns, None if summary is None else head)
    unique(path, linenos, users, "user '{}'")
    return dict(zip(users, assigned)), values
