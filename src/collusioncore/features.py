"""Per-user feature blocks for the timeline classifier.

Three blocks are extracted per user: 26 metadata features over the user's
uploads, 25 similarity features over pairwise cosine similarities of comment
and video-text embeddings, and a d-dimensional mean comment embedding.
Extraction emits raw values; standardization happens inside the classifier.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .embeddings import _vector
from .records import Dataset
from .settings import SETTINGS, check
from .tables import ID_RULE, Kind, choice, floats, read_table, unique

MFE_SIZE = 26
SFE_SIZE = 25


def stat5(values) -> list[float]:
    """[max, min, total, average, variance] of a value list; an empty input
    yields all zeros.

    Variance is the population variance (divide by the count), which is 0
    for singleton lists.
    """
    values = [float(v) for v in values]
    if not values:
        return [0.0] * 5
    total = sum(values)
    mean = total / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return [max(values), min(values), total, mean, variance]


@dataclass(frozen=True)
class FeatureVector:
    user_id: str
    mfe: np.ndarray
    sfe: np.ndarray
    tfe: np.ndarray
    label: str | None = None


def mfe(dataset: Dataset, user_id: str) -> np.ndarray:
    """26 metadata features over the user's own uploads.

    Layout: [0..4] stat5 of self-comment counts per own video, [5] number
    of uploads, then stat5 blocks for durations, likes, dislikes and views.
    A user with no uploads gets all zeros.
    """
    videos = dataset.videos_by_uploader.get(user_id, ())
    self_counts = [dataset.video_commenters.get(v.video_id, {}).get(user_id, 0) for v in videos]
    out: list[float] = []
    out.extend(stat5(self_counts))
    out.append(float(len(videos)))
    for attr in ("duration_sec", "likes", "dislikes", "views"):
        out.extend(stat5([getattr(v, attr) for v in videos]))
    return np.array(out)


def _recent(comments, cap: int):
    """Most recent ``cap`` comments; missing timestamps sort oldest, ties by id."""
    ordered = sorted(
        comments,
        key=lambda c: (-(c.timestamp if c.timestamp is not None else -1), c.comment_id),
    )
    return ordered[:cap]


def _stacked(vectors, dim: int) -> tuple:
    """(rows, norms): the vectors as one contiguous (n, dim) array, and each
    row's norm as ``np.linalg.norm`` takes it, the root of its ``ddot``."""
    rows = np.array(vectors, dtype=float).reshape(len(vectors), dim)
    return rows, np.sqrt(np.vecdot(rows, rows))


def _cosines(left, right=None) -> list[float]:
    """Cosines of the pairs across two stacked sets in ``product`` order, or
    of the pairs within one set in ``combinations`` order; 0.0 where either
    norm is 0.

    One ``np.vecdot`` call per row of the left set gives the row's dot
    products, each the ``ddot`` that ``np.dot`` takes of the pair, so every
    value has the bits of ``np.dot(a, b) / (norm a * norm b)``.
    """
    (a, na), (b, nb) = left, left if right is None else right
    dots = np.zeros((len(a), len(b)))
    for i in range(len(a)):
        lo = i + 1 if right is None else 0
        np.vecdot(a[i], b[lo:], out=dots[i, lo:])
    cosines = np.divide(dots, np.multiply.outer(na, nb), out=np.zeros_like(dots),
                        where=np.outer(na != 0.0, nb != 0.0))
    # a boolean mask reads the strict upper triangle row by row
    return (cosines[~np.tri(len(a), dtype=bool)] if right is None else cosines.ravel()).tolist()


def _video_text(video) -> str:
    return " ".join((video.title, video.description, video.genre))


def _sfe_tfe(dataset: Dataset, user_id: str, provider, pair_cap: int, videos: dict) -> tuple:
    """(SFE, TFE) of one user from one embedding per comment.

    SFE holds 25 similarity features from embedding cosines. Comment sets:
    SC (on own videos) and OC (on others' videos). Video-text sets: SV (own
    uploads) and OV (others' videos the user commented on). Layout: stat5
    within SC, within OC, across SC x OC, within SV, across SV x OV. A block
    whose set has fewer than two members (or an empty side of a cross
    product) is all zeros. TFE is the mean embedding of every comment the
    user posted; zeros if none.

    ``videos`` memoises the embedding of each video text by video id across
    users.
    """
    uploads = dataset.videos_by_uploader.get(user_id, ())
    own_videos = {v.video_id for v in uploads}
    comments = dataset.comments_by_user.get(user_id, ())
    embedded = {c: provider.embed_text(c.text) for c in comments}
    tfe = np.zeros(provider.dim)
    for c in comments:
        tfe += embedded[c]
    if comments:
        tfe /= len(comments)

    def video(v):
        if v.video_id not in videos:
            videos[v.video_id] = provider.embed_text(_video_text(v))
        return videos[v.video_id]

    own_comments = [c for c in comments if c.video_id in own_videos]
    other_comments = [c for c in comments if c.video_id not in own_videos]
    ov_ids = sorted({c.video_id for c in other_comments})[:pair_cap]
    sc, oc, sv, ov = (_stacked(vectors, provider.dim) for vectors in (
        [embedded[c] for c in _recent(own_comments, pair_cap)],
        [embedded[c] for c in _recent(other_comments, pair_cap)],
        [video(v) for v in sorted(uploads, key=lambda v: v.video_id)[:pair_cap]],
        [video(dataset.videos_by_id[vid]) for vid in ov_ids if vid in dataset.videos_by_id]))

    sfe: list[float] = []
    for cosines in (_cosines(sc), _cosines(oc), _cosines(sc, oc), _cosines(sv), _cosines(sv, ov)):
        sfe.extend(stat5(cosines))
    return np.array(sfe), tfe


def extract_all(
    dataset: Dataset,
    partition=None,
    *,
    provider,
    pair_cap: int = SETTINGS["pair_cap"].default,
) -> list[FeatureVector]:
    """One FeatureVector per user, in ascending user-id order.

    With a core/periphery partition, only partitioned users are extracted
    and labels ("core" / "compromised") are attached. Each comment of an
    extracted user is embedded once, and each video text once per call.
    """
    check("pair_cap", pair_cap)
    if partition is None:
        user_ids = sorted(u.user_id for u in dataset.users)
        labels = {}
    else:
        user_ids = sorted(partition.core | partition.periphery)
        labels = {u: ("core" if u in partition.core else "compromised") for u in user_ids}
    videos: dict = {}
    out = []
    for user_id in user_ids:
        sfe, tfe = _sfe_tfe(dataset, user_id, provider, pair_cap, videos)
        out.append(FeatureVector(user_id=user_id, mfe=mfe(dataset, user_id), sfe=sfe, tfe=tfe,
                                 label=labels.get(user_id)))
    return out


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def feature_header(dim: int) -> list[str]:
    return (
        ["user_id", "label"]
        + [f"mfe_{i}" for i in range(MFE_SIZE)]
        + [f"sfe_{i}" for i in range(SFE_SIZE)]
        + [f"tfe_{i}" for i in range(dim)]
    )


def write_features(features, path) -> None:
    """CSV of ``feature_header`` and one row per vector: the id and label,
    quoted as ``csv`` quotes them, then the ``repr`` of every value."""
    if not features:
        raise ValueError("no feature vectors to write")
    # writerow returns what ``write`` returns: here the formatted line itself
    line = csv.writer(SimpleNamespace(write=str)).writerow
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write(line(feature_header(len(features[0].tfe))))
        for fv in features:
            values = np.concatenate([fv.mfe, fv.sfe, fv.tfe]).tolist()
            fields = line([fv.user_id, fv.label or ""]).removesuffix("\r\n")
            # a float's repr holds no comma, quote or line break, so needs no quoting
            handle.write(f"{fields},{','.join(map(repr, values))}\r\n")


# ranking.tsv writes ids into tab-separated lines, so an id holds no tab even quoted
USER_ID = Kind(r'"(?:[^"\t]|"")+"|[^",\t]+',
               lambda text: text[1:-1].replace('""', '"') if text[0] == '"' else text, ID_RULE)
LABEL = choice("core", "compromised", "")


def read_features(path) -> list[FeatureVector]:
    """Read a file written by :func:`write_features`."""
    def columns(text):  # the header names every column
        header = text[0].split(",")
        dim = len(header) - 2 - MFE_SIZE - SFE_SIZE
        if dim < 1 or header != feature_header(dim):
            raise ValueError(f"{path}: unexpected feature header")
        return ((header[0], USER_ID), (header[1], LABEL),
                (header[2:], floats(len(header) - 2, _vector))), 1

    linenos, (users, labels, values) = read_table(path, header=columns, sep=",")
    unique(path, linenos, users, "user '{}'")
    return [FeatureVector(user_id=user, label=label or None, mfe=row[:MFE_SIZE],
                          sfe=row[MFE_SIZE:MFE_SIZE + SFE_SIZE], tfe=row[MFE_SIZE + SFE_SIZE:])
            for user, label, row in zip(users, labels, values)]
