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
(:func:`lines`). Each cell is of a :class:`Kind` (an id, an int from a lower
bound, a finite float) and reads back only in the text its writer gives it:
ASCII, a canonical int, a float's ``repr``. Any other text is the fault
``path:line: column '<name>' …``. The record files follow ingest instead, the
``--config`` file (typed by people) shares only the line rule, and
``model.npz`` is a numpy archive.
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


def floats(n: int) -> str:
    """The text of ``n`` comma-joined :data:`FLOAT` cells."""
    return f"(?:{FLOAT.text})(?:,(?:{FLOAT.text})){{{n - 1}}}"


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


def _numbered(path, header) -> tuple[list, list]:
    """The numbers and the texts of the non-empty lines after ``header``."""
    try:
        text = _split_lines(Path(path).read_bytes())
    except UnicodeDecodeError:
        raise ValueError(not_utf8(path)) from None
    if header is not None and text[0] != header:
        raise ValueError(f"{path}: unexpected header {text[0]!r}")
    start = 1 if header is None else 2
    text = text[start - 1:]
    return [lineno for lineno, line in enumerate(text, start) if line], list(filter(None, text))


def lines(path, header=None):
    """``(line number, line)`` of each non-empty line of a UTF-8 text file:
    LF, CR and CRLF each end a line, which loses only that ending. A given
    ``header`` must be the first line."""
    return zip(*_numbered(path, header))


def read_rows(path, header=None):
    """``(line number, cells)`` of each non-empty line, split on tab."""
    return ((lineno, line.split("\t")) for lineno, line in lines(path, header))


def parse(path, lineno: int, name: str, kind: Kind, text: str):
    """The value of one cell of column ``name``, or the fault that names it."""
    try:
        if re.fullmatch(kind.text, text):
            return kind.value(text)
    except ValueError:
        pass
    raise ValueError(f"{path}:{lineno}: column '{name}' {kind.rule}, got {text!r}")


def parse_cells(path, lineno: int, columns, cells: list) -> list:
    """The value of each tab-separated cell of one line, by its column's
    ``(name, kind)``; a bad cell is the fault."""
    if len(cells) != len(columns):
        raise ValueError(f"{path}:{lineno}: expected {len(columns)} tab-separated "
                         f"field{'s' * (len(columns) > 1)}")
    return [parse(path, lineno, name, kind, text) for (name, kind), text in zip(columns, cells)]


def read_table(path, columns, header=None) -> tuple[list, list]:
    """The numbers of the non-empty lines of ``path`` and the values of each
    column's cells, as :func:`parse_cells` reads them. One pattern checks
    every line at once, and each column is read whole."""
    linenos, text = _numbered(path, header)
    row = "\t".join(f"(?:{kind.text})" for _, kind in columns)  # no kind's text holds a tab or LF
    try:  # a line break not followed by a row of the columns' kinds
        if text and not re.search(f"\n(?!{row}(?:\n|\\Z))", "\n" + "\n".join(text)):
            cells = "\t".join(text).split("\t")
            return linenos, [cells[i::len(columns)] if kind.value is str else
                             list(map(kind.value, cells[i::len(columns)]))
                             for i, (_, kind) in enumerate(columns)]
    except ValueError:  # a float past the largest: named below
        pass
    rows = [parse_cells(path, lineno, columns, line.split("\t"))
            for lineno, line in zip(linenos, text)]
    return linenos, [list(values) for values in zip(*rows)] or [[] for _ in columns]


def read_roles(path, roles, summary=None) -> tuple[dict, dict]:
    """``{user: role}`` of the ``user<TAB>role`` lines, each user once, and
    with ``summary`` the values of the ``# key=value`` lines whose key it gives
    a kind, each key once (its other ``#`` lines are then comments)."""
    columns = (("user_id", ID), ("role", choice(*roles)))
    users, values = {}, {}
    for lineno, cells in read_rows(path):
        if summary is not None and len(cells) == 1 and cells[0].startswith("# "):
            key, _, text = cells[0][2:].partition("=")  # a user's cell may start with "# " too
            if key in values:
                raise ValueError(f"{path}:{lineno}: key '{key}' listed twice")
            if key in summary:
                values[key] = parse(path, lineno, key, summary[key], text)
            continue
        user, role = parse_cells(path, lineno, columns, cells)
        if user in users:
            raise ValueError(f"{path}:{lineno}: user '{user}' listed twice")
        users[user] = role
    return users, values
