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


def _cosines(pairs) -> list[float]:
    """Cosine of each ((a, norm a), (b, norm b)) pair; 0.0 when either norm is 0."""
    return [
        0.0 if na == 0.0 or nb == 0.0 else float(np.dot(a, b) / (na * nb))
        for (a, na), (b, nb) in pairs
    ]


def _video_text(video) -> str:
    return " ".join((video.title, video.description, video.genre))


def _embedded(provider, text: str) -> tuple:
    """(vector, norm) of one text."""
    v = provider.embed_text(text)
    return v, float(np.linalg.norm(v))


def _sfe_tfe(dataset: Dataset, user_id: str, provider, pair_cap: int, videos: dict) -> tuple:
    """(SFE, TFE) of one user from one embedding per comment.

    SFE holds 25 similarity features from embedding cosines. Comment sets:
    SC (on own videos) and OC (on others' videos). Video-text sets: SV (own
    uploads) and OV (others' videos the user commented on). Layout: stat5
    within SC, within OC, across SC x OC, within SV, across SV x OV. A block
    whose set has fewer than two members (or an empty side of a cross
    product) is all zeros. TFE is the mean embedding of every comment the
    user posted; zeros if none.

    ``videos`` memoises (vector, norm) by video id across users.
    """
    uploads = dataset.videos_by_uploader.get(user_id, ())
    own_videos = {v.video_id for v in uploads}
    comments = dataset.comments_by_user.get(user_id, ())
    embedded = {c: _embedded(provider, c.text) for c in comments}
    tfe = np.zeros(provider.dim)
    for c in comments:
        tfe += embedded[c][0]
    if comments:
        tfe /= len(comments)

    def video(v):
        if v.video_id not in videos:
            videos[v.video_id] = _embedded(provider, _video_text(v))
        return videos[v.video_id]

    own_comments = [c for c in comments if c.video_id in own_videos]
    other_comments = [c for c in comments if c.video_id not in own_videos]
    ov_ids = sorted({c.video_id for c in other_comments})[:pair_cap]
    sc = [embedded[c] for c in _recent(own_comments, pair_cap)]
    oc = [embedded[c] for c in _recent(other_comments, pair_cap)]
    sv = [video(v) for v in sorted(uploads, key=lambda v: v.video_id)[:pair_cap]]
    ov = [video(dataset.videos_by_id[vid]) for vid in ov_ids if vid in dataset.videos_by_id]

    sfe: list[float] = []
    for pairs in (combinations(sc, 2), combinations(oc, 2), product(sc, oc),
                  combinations(sv, 2), product(sv, ov)):
        sfe.extend(stat5(_cosines(pairs)))
    return np.array(sfe), tfe


def extract_all(
    dataset: Dataset,
    partition=None,
    *,
    provider,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> list[FeatureVector]:
    """One FeatureVector per user, in ascending user-id order.

    With a core/periphery partition, only partitioned users are extracted
    and labels ("core" / "compromised") are attached. Each comment of an
    extracted user is embedded once, and each video text once per call.
    """
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
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{path}:{reader.line_num}: non-finite value")
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
