"""Per-user feature blocks for the timeline classifier.

Three blocks are extracted per user: 26 metadata features over the user's
uploads, 25 similarity features over pairwise cosine similarities of comment
and video-text embeddings, and a d-dimensional mean comment embedding.
Extraction emits raw values; standardization happens inside the classifier.
"""

import csv
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .records import Dataset

MFE_SIZE = 26
SFE_SIZE = 25

# Pairwise-similarity sets are capped at the most recent items per user to
# bound the quadratic cost; well above observed per-user activity.
DEFAULT_PAIR_CAP = 200


@dataclass(frozen=True)
class StatFive:
    """max / min / total / average / population variance of a value list."""

    max: float
    min: float
    total: float
    average: float
    variance: float

    def as_list(self) -> list[float]:
        return [self.max, self.min, self.total, self.average, self.variance]


def stat5(values) -> StatFive:
    """Five summary statistics; an empty input yields all zeros.

    Variance is the population variance (divide by the count), which is 0
    for singleton lists.
    """
    values = [float(v) for v in values]
    if not values:
        return StatFive(0.0, 0.0, 0.0, 0.0, 0.0)
    total = sum(values)
    mean = total / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return StatFive(max(values), min(values), total, mean, variance)


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
    self_counts = [dataset.pair_counts.get((user_id, v.video_id), 0) for v in videos]
    out: list[float] = []
    out.extend(stat5(self_counts).as_list())
    out.append(float(len(videos)))
    for attr in ("duration_sec", "likes", "dislikes", "views"):
        out.extend(stat5([getattr(v, attr) for v in videos]).as_list())
    return np.array(out)


def _recent(comments, cap: int):
    """Most recent ``cap`` comments; missing timestamps sort oldest, ties by id."""
    ordered = sorted(
        comments,
        key=lambda c: (-(c.timestamp if c.timestamp is not None else -1), c.comment_id),
    )
    return ordered[:cap]


def _cosines(pairs) -> list[float]:
    """Cosine of each ((a, norm a), (b, norm b)) pair; 0.0 when either norm is 0."""
    return [
        0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b) / (na * nb))
        for (a, na), (b, nb) in pairs
    ]


def _video_text(video) -> str:
    return " ".join((video.title, video.description, video.genre))


def sfe(dataset: Dataset, user_id: str, provider, pair_cap: int = DEFAULT_PAIR_CAP) -> np.ndarray:
    """25 similarity features from embedding cosines.

    Comment sets: SC (on own videos) and OC (on others' videos). Video-text
    sets: SV (own uploads) and OV (others' videos the user commented on).
    Layout: stat5 within SC, within OC, across SC x OC, within SV, across
    SV x OV. A block whose set has fewer than two members (or an empty side
    of a cross product) is all zeros.
    """
    uploads = dataset.videos_by_uploader.get(user_id, ())
    own_videos = {v.video_id for v in uploads}
    comments = dataset.comments_by_user.get(user_id, ())
    own_comments = [c for c in comments if c.video_id in own_videos]
    other_comments = [c for c in comments if c.video_id not in own_videos]
    ov_ids = sorted({c.video_id for c in other_comments})[:pair_cap]

    def embedded(texts):
        return [(v, float(np.linalg.norm(v))) for v in map(provider.embed_text, texts)]

    sc = embedded(c.text for c in _recent(own_comments, pair_cap))
    oc = embedded(c.text for c in _recent(other_comments, pair_cap))
    sv = embedded(_video_text(v) for v in sorted(uploads, key=lambda v: v.video_id)[:pair_cap])
    ov = embedded(_video_text(dataset.videos_by_id[vid]) for vid in ov_ids
                  if vid in dataset.videos_by_id)

    out: list[float] = []
    for pairs in (combinations(sc, 2), combinations(oc, 2), product(sc, oc),
                  combinations(sv, 2), product(sv, ov)):
        out.extend(stat5(_cosines(pairs)).as_list())
    return np.array(out)


def tfe(dataset: Dataset, user_id: str, provider) -> np.ndarray:
    """Mean embedding of every comment the user posted; zeros if none."""
    comments = dataset.comments_by_user.get(user_id, ())
    if not comments:
        return np.zeros(provider.dim)
    acc = np.zeros(provider.dim)
    for c in comments:
        acc += provider.embed_text(c.text)
    return acc / len(comments)


def extract_all(
    dataset: Dataset,
    partition=None,
    *,
    provider,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> list[FeatureVector]:
    """One FeatureVector per user, in ascending user-id order.

    With a core/periphery partition, only partitioned users are extracted
    and labels ("core" / "compromised") are attached.
    """
    if partition is None:
        user_ids = sorted(u.user_id for u in dataset.users)
        labels = {}
    else:
        user_ids = sorted(partition.core | partition.periphery)
        labels = {u: ("core" if u in partition.core else "compromised") for u in user_ids}
    out = []
    for user_id in user_ids:
        out.append(
            FeatureVector(
                user_id=user_id,
                mfe=mfe(dataset, user_id),
                sfe=sfe(dataset, user_id, provider, pair_cap),
                tfe=tfe(dataset, user_id, provider),
                label=labels.get(user_id),
            )
        )
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
    if not features:
        raise ValueError("no feature vectors to write")
    dim = len(features[0].tfe)
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(feature_header(dim))
        for fv in features:
            values = np.concatenate([fv.mfe, fv.sfe, fv.tfe]).tolist()
            writer.writerow([fv.user_id, fv.label or "", *map(repr, values)])


def read_features(path) -> list[FeatureVector]:
    with Path(path).open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        dim = len(header) - 2 - MFE_SIZE - SFE_SIZE
        if dim < 1 or header != feature_header(dim):
            raise ValueError(f"{path}: unexpected feature header")
        out = []
        seen = set()
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields")
            if row[1] not in ("", "core", "compromised"):
                raise ValueError(f"{path}:{reader.line_num}: label must be core, compromised "
                                 "or empty")
            if row[0] in seen:
                raise ValueError(f"{path}:{reader.line_num}: duplicate user '{row[0]}'")
            seen.add(row[0])
            values = [float(x) for x in row[2:]]
            out.append(
                FeatureVector(
                    user_id=row[0],
                    label=row[1] or None,
                    mfe=np.array(values[:MFE_SIZE]),
                    sfe=np.array(values[MFE_SIZE:MFE_SIZE + SFE_SIZE]),
                    tfe=np.array(values[MFE_SIZE + SFE_SIZE:]),
                )
            )
    return out
