import numpy as np
import pytest

from collusioncore.features import MFE_SIZE, SFE_SIZE, FeatureVector
from collusioncore.graph import Ccn, build_ccn
from collusioncore.records import CommentRecord, Dataset, UserRecord, VideoRecord
from collusioncore.synth import SynthConfig, generate

SYNTH_SEED = 7


def make_user(uid, subs=None, created=None):
    return UserRecord(user_id=uid, channel_subscriber_count=subs, channel_created_at=created)


def make_video(vid, uploader, collusive=True, duration=60, likes=0, dislikes=0, views=0,
               title="t", description="d", genre="g"):
    return VideoRecord(
        video_id=vid,
        uploader_user_id=uploader,
        title=title,
        description=description,
        genre=genre,
        duration_sec=duration,
        likes=likes,
        dislikes=dislikes,
        views=views,
        is_collusive=collusive,
    )


_counter = [0]


def make_comment(uid, vid, text="hello", ts=None, cid=None):
    if cid is None:
        _counter[0] += 1
        cid = f"auto{_counter[0]:06d}"
    return CommentRecord(comment_id=cid, user_id=uid, video_id=vid, text=text, timestamp=ts)


def make_dataset(users=(), videos=(), comments=()):
    return Dataset(users=tuple(users), videos=tuple(videos), comments=tuple(comments))


def graph_from_edges(edges, isolated=()):
    """edges: iterable of (a, b, w) triples."""
    nodes = set(isolated)
    weights = {}
    for a, b, w in edges:
        nodes.add(a)
        nodes.add(b)
        weights[(a, b) if a < b else (b, a)] = w
    return Ccn.build(nodes, weights)


def odd_features(dim):
    """Feature vectors whose ids need csv quoting and whose values test repr."""
    ids = ["a,b", 'say "hi"', '"quoted"', ",", " leading", "trailing ", "# hash", "plain"]
    rng = np.random.default_rng(dim)
    special = [0.0, -0.0, 5e-324, 1e-300, 1e300, 0.1, -1 / 3, 2.0 ** 52 + 1]
    out = []
    for i, user_id in enumerate(ids):
        values = rng.standard_normal(MFE_SIZE + SFE_SIZE + dim) * 10.0 ** rng.integers(-8, 9)
        values[:len(special)] = np.roll(special, i)
        out.append(FeatureVector(user_id=user_id, label=[None, "core", "compromised"][i % 3],
                                 mfe=values[:MFE_SIZE], sfe=values[MFE_SIZE:-dim],
                                 tfe=values[-dim:]))
    return out


@pytest.fixture
def triangle():
    return graph_from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])


@pytest.fixture
def path_abc():
    return graph_from_edges([("a", "b", 1), ("b", "c", 1)])


def clique(ids, weight=1):
    edges = []
    ids = list(ids)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            edges.append((ids[i], ids[j], weight))
    return graph_from_edges(edges)


@pytest.fixture(scope="session")
def synth_default():
    """Default synthetic dataset, generated once per test session."""
    dataset, labels = generate(SynthConfig(seed=SYNTH_SEED))
    return dataset, labels


@pytest.fixture(scope="session")
def synth_graph(synth_default):
    dataset, labels = synth_default
    return build_ccn(dataset), labels
