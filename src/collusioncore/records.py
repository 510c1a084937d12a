"""Ingestion, validation and lookup of raw comment-log data.

Input files are line-delimited JSON (one object per line) or, when the file
extension is ``.csv``, CSV files with the same column names. Unknown fields
are ignored. A :class:`Dataset` is immutable after ingestion and safe to
share between readers.
"""

import csv
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path


class IngestError(ValueError):
    """Raised when an input file cannot be parsed into records."""


@dataclass(frozen=True)
class CommentRecord:
    """A single comment posted by a user on a video."""

    comment_id: str
    user_id: str
    video_id: str
    text: str
    timestamp: int | None = None


@dataclass(frozen=True)
class VideoRecord:
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


@dataclass(frozen=True)
class UserRecord:
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
    def pair_counts(self) -> Counter:
        """(user_id, video_id) -> number of comments."""
        counts: Counter = Counter()
        for c in self.comments:
            counts[(c.user_id, c.video_id)] += 1
        return counts

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

def _require_str(row: dict, field: str, origin: str, nonempty: bool = False) -> str:
    if field not in row or row[field] is None:
        raise IngestError(f"{origin}: missing required field '{field}'")
    value = row[field]
    if not isinstance(value, str):
        raise IngestError(f"{origin}: field '{field}' must be a string")
    if nonempty and value == "":
        raise IngestError(f"{origin}: field '{field}' must be non-empty")
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
        comment_id=_require_str(row, "comment_id", origin, nonempty=True),
        user_id=_require_str(row, "user_id", origin, nonempty=True),
        video_id=_require_str(row, "video_id", origin, nonempty=True),
        text=_require_str(row, "text", origin),
        timestamp=_optional_int(row, "timestamp", origin),
    )


def _parse_video(row: dict, origin: str) -> VideoRecord:
    return VideoRecord(
        video_id=_require_str(row, "video_id", origin, nonempty=True),
        uploader_user_id=_require_str(row, "uploader_user_id", origin, nonempty=True),
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
        user_id=_require_str(row, "user_id", origin, nonempty=True),
        channel_subscriber_count=_optional_int(row, "channel_subscriber_count", origin, minimum=0),
        channel_created_at=_optional_int(row, "channel_created_at", origin),
    )


def _iter_rows(path: Path):
    """Yield (line_number, row dict) for a .jsonl or .csv file."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                yield reader.line_num, {k: v for k, v in row.items() if k is not None}
        return
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}:{lineno}: malformed line: {exc.msg}") from None
            if not isinstance(row, dict):
                raise IngestError(f"{path}:{lineno}: malformed line: expected an object")
            yield lineno, row


def _read_records(path: Path, parse, id_field: str) -> list:
    if not path.exists():
        raise IngestError(f"{path}: file does not exist")
    records = []
    seen: set[str] = set()
    for lineno, row in _iter_rows(path):
        origin = f"{path}:{lineno}"
        record = parse(row, origin)
        record_id = getattr(record, id_field)
        if record_id in seen:
            raise IngestError(f"{origin}: duplicate {id_field} '{record_id}'")
        seen.add(record_id)
        records.append(record)
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
    users = _read_records(Path(users_path), _parse_user, "user_id")
    videos = _read_records(Path(videos_path), _parse_video, "video_id")
    comments = _read_records(Path(comments_path), _parse_comment, "comment_id")
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
    out = {}
    for field_name in record.__dataclass_fields__:
        value = getattr(record, field_name)
        if value is None:
            continue
        out[field_name] = value
    return out


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
