"""Ingestion, validation and lookup of raw comment-log data.

Input files are line-delimited JSON (one object per line) or, when the file
extension is ``.csv``, CSV files with the same column names. Unknown fields
are ignored. A :class:`Dataset` is immutable after ingestion and safe to
share between readers.

Each line is decoded once. A line that starts with ``{`` and that json's
scanner reads as one object, with nothing but JSON whitespace after it, is
that object; every other line (blank, with a BOM or leading whitespace,
with trailing data, not an object, or one the scanner refuses) goes through
``json.loads`` itself, so every message is the one ``json.loads`` gives. A
line nested too deeply for the decoder is a malformed line too. Then a row
whose fields already have their final types and values becomes its record
after one check; any other row, such as a CSV row with its string counters,
goes through the field validators, which name the file, line and field of a
fault.
"""

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .tables import ID_RULE, not_utf8, valid_id


class IngestError(ValueError):
    """Raised when an input file cannot be parsed into records."""


# The record types are named tuples: immutable, with attribute access, and
# about as cheap to build as a plain tuple, which matters for ingest. Being
# tuples, they also index, unpack and compare as tuples; ``_replace`` makes a
# changed copy.
class CommentRecord(NamedTuple):
    """A single comment posted by a user on a video."""

    comment_id: str
    user_id: str
    video_id: str
    text: str
    timestamp: int | None = None


class VideoRecord(NamedTuple):
    """A video together with its uploader and engagement counters."""

    video_id: str
    uploader_user_id: str
    title: str
    description: str
    genre: str
    duration_sec: int
    likes: int
    dislikes: int
    views: int
    is_collusive: bool


class UserRecord(NamedTuple):
    """A channel owner; profile counters are optional."""

    user_id: str
    channel_subscriber_count: int | None = None
    channel_created_at: int | None = None


@dataclass
class Dataset:
    """All ingested records plus lookup indexes built on first use.

    Treated as read-only once constructed; every index is derived from the
    record tuples and cached.
    """

    users: tuple[UserRecord, ...]
    videos: tuple[VideoRecord, ...]
    comments: tuple[CommentRecord, ...]

    @cached_property
    def users_by_id(self) -> dict[str, UserRecord]:
        return {u.user_id: u for u in self.users}

    @cached_property
    def videos_by_id(self) -> dict[str, VideoRecord]:
        return {v.video_id: v for v in self.videos}

    @cached_property
    def video_commenters(self) -> dict[str, dict[str, int]]:
        """video_id -> {user_id: comment count on that video}."""
        out: dict[str, dict[str, int]] = {}
        for c in self.comments:
            out.setdefault(c.video_id, {})
            out[c.video_id][c.user_id] = out[c.video_id].get(c.user_id, 0) + 1
        return out

    @cached_property
    def comments_by_user(self) -> dict[str, tuple[CommentRecord, ...]]:
        tmp: dict[str, list[CommentRecord]] = {}
        for c in self.comments:
            tmp.setdefault(c.user_id, []).append(c)
        return {u: tuple(cs) for u, cs in tmp.items()}

    @cached_property
    def videos_by_uploader(self) -> dict[str, tuple[VideoRecord, ...]]:
        tmp: dict[str, list[VideoRecord]] = {}
        for v in self.videos:
            tmp.setdefault(v.uploader_user_id, []).append(v)
        return {u: tuple(vs) for u, vs in tmp.items()}


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def _require_str(row: dict, field: str, origin: str, is_id: bool = False) -> str:
    if field not in row or row[field] is None:
        raise IngestError(f"{origin}: missing required field '{field}'")
    value = row[field]
    if not isinstance(value, str):
        raise IngestError(f"{origin}: field '{field}' must be a string")
    if is_id and not valid_id(value):
        raise IngestError(f"{origin}: field '{field}' {ID_RULE}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate from a JSON escape
        raise IngestError(f"{origin}: field '{field}' is not valid Unicode") from None
    return value


def _require_int(row: dict, field: str, origin: str, minimum: int | None = None) -> int:
    if field not in row or row[field] is None or row[field] == "":
        raise IngestError(f"{origin}: missing required field '{field}'")
    value = row[field]
    if isinstance(value, bool):
        raise IngestError(f"{origin}: field '{field}' must be an integer")
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise IngestError(f"{origin}: field '{field}' is not an integer") from None
    if not isinstance(value, int):
        raise IngestError(f"{origin}: field '{field}' must be an integer")
    if minimum is not None and value < minimum:
        raise IngestError(f"{origin}: field '{field}' must be >= {minimum}")
    return value


def _optional_int(row: dict, field: str, origin: str, minimum: int | None = None) -> int | None:
    if field not in row or row[field] is None or row[field] == "":
        return None
    return _require_int(row, field, origin, minimum)


def _require_bool(row: dict, field: str, origin: str) -> bool:
    if field not in row or row[field] is None or row[field] == "":
        raise IngestError(f"{origin}: missing required field '{field}'")
    value = row[field]
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1"):
            return True
        if lowered in ("false", "0"):
            return False
    raise IngestError(f"{origin}: field '{field}' must be a boolean")


def _parse_comment(row: dict, origin: str) -> CommentRecord:
    return CommentRecord(
        comment_id=_require_str(row, "comment_id", origin, is_id=True),
        user_id=_require_str(row, "user_id", origin, is_id=True),
        video_id=_require_str(row, "video_id", origin, is_id=True),
        text=_require_str(row, "text", origin),
        timestamp=_optional_int(row, "timestamp", origin),
    )


def _parse_video(row: dict, origin: str) -> VideoRecord:
    return VideoRecord(
        video_id=_require_str(row, "video_id", origin, is_id=True),
        uploader_user_id=_require_str(row, "uploader_user_id", origin, is_id=True),
        title=_require_str(row, "title", origin),
        description=_require_str(row, "description", origin),
        genre=_require_str(row, "genre", origin),
        duration_sec=_require_int(row, "duration_sec", origin, minimum=0),
        likes=_require_int(row, "likes", origin, minimum=0),
        dislikes=_require_int(row, "dislikes", origin, minimum=0),
        views=_require_int(row, "views", origin, minimum=0),
        is_collusive=_require_bool(row, "is_collusive", origin),
    )


def _parse_user(row: dict, origin: str) -> UserRecord:
    return UserRecord(
        user_id=_require_str(row, "user_id", origin, is_id=True),
        channel_subscriber_count=_optional_int(row, "channel_subscriber_count", origin, minimum=0),
        channel_created_at=_optional_int(row, "channel_created_at", origin),
    )


# A plain row is one that json.loads or csv has already put in its final form:
# every field of its exact type, each id printable (which also rules out tab,
# CR, LF and a lone surrogate) and non-empty, each text ASCII (so free of lone
# surrogates) and each counter not below 0. One expression per record type
# checks that and builds the record positionally; every other row goes to the
# ``_parse_*`` validators above, which alone define what a field accepts and
# what each fault says. So ``_plain_*`` returns None rather than raising.
_new = tuple.__new__  # a record from its fields in order, skipping NamedTuple's __new__


def _plain_comment(row):
    get = row.get
    cid, uid, vid, text, ts = (get("comment_id"), get("user_id"), get("video_id"), get("text"),
                               get("timestamp"))
    if (type(cid) is type(uid) is type(vid) is type(text) is str and cid and uid and vid
            and cid.isprintable() and uid.isprintable() and vid.isprintable() and text.isascii()
            and (ts is None or type(ts) is int)):
        return _new(CommentRecord, (cid, uid, vid, text, ts))
    return None


def _plain_video(row):
    get = row.get
    vid, uid, title, description, genre = (get("video_id"), get("uploader_user_id"), get("title"),
                                           get("description"), get("genre"))
    duration, likes, dislikes, views, collusive = (get("duration_sec"), get("likes"),
                                                   get("dislikes"), get("views"),
                                                   get("is_collusive"))
    if (type(vid) is type(uid) is type(title) is type(description) is type(genre) is str
            and vid and uid and vid.isprintable() and uid.isprintable() and title.isascii()
            and description.isascii() and genre.isascii()
            and type(duration) is type(likes) is type(dislikes) is type(views) is int
            and duration >= 0 and likes >= 0 and dislikes >= 0 and views >= 0
            and type(collusive) is bool):
        return _new(VideoRecord, (vid, uid, title, description, genre, duration, likes, dislikes,
                                  views, collusive))
    return None


def _plain_user(row):
    get = row.get
    uid, subscribers, created = (get("user_id"), get("channel_subscriber_count"),
                                 get("channel_created_at"))
    if (type(uid) is str and uid and uid.isprintable()
            and (subscribers is None or type(subscribers) is int and subscribers >= 0)
            and (created is None or type(created) is int)):
        return _new(UserRecord, (uid, subscribers, created))
    return None


_scan = json.JSONDecoder().scan_once  # what json.loads runs after its own checks


def _decode_line(path: Path, lineno: int, line: str) -> dict | None:
    """``json.loads`` of one line: the object, or None for a blank line."""
    if not line.strip():
        return None
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}:{lineno}: malformed line: {exc.msg}") from None
    except RecursionError:
        raise IngestError(f"{path}:{lineno}: malformed line: nested too deeply") from None
    if not isinstance(row, dict):
        raise IngestError(f"{path}:{lineno}: malformed line: expected an object")
    return row


def _jsonl_rows(path: Path):
    """Yield (line_number, row dict) for a .jsonl file.

    A line that the scanner reads as an object from its first character, with
    only JSON whitespace after it, is the object ``json.loads`` would return;
    every other line goes through :func:`_decode_line`, so each message is
    that of ``json.loads``.
    """
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                row, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):  # _decode_line names it
                row = None
            if type(row) is not dict or line[end:].strip(" \t\n\r"):
                row = _decode_line(path, lineno, line)
                if row is None:
                    continue
            yield lineno, row


def _csv_rows(path: Path):
    """Yield (line_number, row dict) for a .csv file; every cell is a string."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            yield reader.line_num, {k: v for k, v in row.items() if k is not None}


def _read_records(path: Path, plain, parse) -> list:
    if not path.exists():
        raise IngestError(f"{path}: file does not exist")
    records = []
    seen: set[str] = set()
    try:
        for lineno, row in (_csv_rows if path.suffix == ".csv" else _jsonl_rows)(path):
            record = plain(row)
            if record is None:
                record = parse(row, f"{path}:{lineno}")
            record_id = record[0]  # each record type's first field is its id
            if record_id in seen:
                raise IngestError(f"{path}:{lineno}: duplicate {record._fields[0]} '{record_id}'")
            seen.add(record_id)
            records.append(record)
    except UnicodeDecodeError:  # both readers end lines at LF, CR or CRLF
        raise IngestError(not_utf8(path)) from None
    return records


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def ingest(comments_path, videos_path, users_path) -> Dataset:
    """Parse the three record files into a Dataset.

    Raises IngestError on malformed lines (with line numbers), duplicate
    ids within a file, or missing required fields. Referential integrity
    is *not* checked here; see :func:`validate`.
    """
    users = _read_records(Path(users_path), _plain_user, _parse_user)
    videos = _read_records(Path(videos_path), _plain_video, _parse_video)
    comments = _read_records(Path(comments_path), _plain_comment, _parse_comment)
    return Dataset(users=tuple(users), videos=tuple(videos), comments=tuple(comments))


def validate(dataset: Dataset) -> list[str]:
    """Return referential-integrity violations, one message per problem.

    An empty list means every comment resolves to a known video and user,
    and every video resolves to a known uploader.
    """
    violations = []
    users = dataset.users_by_id
    videos = dataset.videos_by_id
    for video in dataset.videos:
        if video.uploader_user_id not in users:
            violations.append(
                f"video '{video.video_id}': unknown uploader '{video.uploader_user_id}'"
            )
    for comment in dataset.comments:
        if comment.user_id not in users:
            violations.append(
                f"comment '{comment.comment_id}': unknown user '{comment.user_id}'"
            )
        if comment.video_id not in videos:
            violations.append(
                f"comment '{comment.comment_id}': unknown video '{comment.video_id}'"
            )
    return violations


# ---------------------------------------------------------------------------
# Serialization (line-delimited JSON, mirrors the ingest format)
# ---------------------------------------------------------------------------

def _record_dict(record) -> dict:
    return {name: value for name, value in zip(record._fields, record) if value is not None}


def write_dataset(dataset: Dataset, comments_path, videos_path, users_path) -> None:
    """Write the dataset back as .jsonl files; inverse of :func:`ingest`."""
    for path, records in (
        (users_path, dataset.users),
        (videos_path, dataset.videos),
        (comments_path, dataset.comments),
    ):
        with Path(path).open("w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(_record_dict(record), ensure_ascii=False))
                handle.write("\n")
