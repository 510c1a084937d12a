"""The one rule for how an output value becomes text, and the one for how a
line of a tab-separated file read back becomes cells.

A row is one ``\\n``-ended line: its cells' ``str`` joined by a separator. A
float's ``str`` is its shortest round-trip ``repr``. Comma-separated rows are
quoted minimally, as the ``csv`` module does, so an id holding a comma or a
quote stays one cell; no id holds a tab, so other rows need no quoting.
What a file writes for an undefined value stays with its writer. So does
text that is not one cell per value: ``features.csv`` (CRLF lines and a row
join tuned for its thousands of floats), the embeddings file's comma-joined
value list, the ``sweep_beta_<b>.csv`` file name, the JSON files and
``model.npz``. What a cell read back must hold stays with its reader. Other
inputs keep their own rules: ``features.csv`` has csv quoting, the record
files follow ingest, the ``--config`` file allows whitespace and ``#``
comments, and ``model.npz`` is a numpy archive.
"""

import csv
import io
from pathlib import Path


def format_rows(rows, sep: str) -> str:
    if sep == ",":
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(map(str, row) for row in rows)
        return text.getvalue()
    return "".join(sep.join(map(str, row)) + "\n" for row in rows)


def write_rows(path, rows, sep: str) -> None:
    Path(path).write_text(format_rows(rows, sep), encoding="utf-8")


def not_utf8(path) -> str:
    """``path:line: not valid UTF-8``, for a file a text read refused: the
    line of its first bad byte, lines ending at LF, CR or CRLF as in that read."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    return f"{path}:{len((data + b'.').splitlines())}: not valid UTF-8"


def read_rows(path, header=None):
    """``(line number, cells)`` of each non-empty line, split on tab; a line
    loses only its ``\\n``. A given ``header`` must be the first line."""
    try:
        numbered = enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1)
    except UnicodeDecodeError:
        raise ValueError(not_utf8(path)) from None
    if header is not None:
        _, first = next(numbered)
        if first != header:
            raise ValueError(f"{path}: unexpected header {first!r}")
    for lineno, line in numbered:
        if line:
            yield lineno, line.split("\t")
