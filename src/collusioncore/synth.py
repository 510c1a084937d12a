"""Seeded synthetic blackmarket dataset generator with planted roles.

Core users service a shared market pool of videos with heavy, repetitive
commenting; compromised users cluster into communities that co-comment on
their own members' videos, plus a light presence on the market pool. The
behavioral contrasts (total contribution, per-video aggression, self
comments, upload counts, video durations) are calibrated so the planted
classes reproduce the ratio constants below in expectation. Planted labels
are returned separately and never stored inside the dataset.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .records import CommentRecord, Dataset, UserRecord, VideoRecord
from .settings import SETTINGS, check
from .tables import read_roles, write_rows

# Behavioral contrast of planted core channels: fewer and shorter uploads,
# and, per user relative to compromised users, more comments in total, more
# comments per video engaged and fewer self comments.
CORE_UPLOAD_FACTOR = 0.633
CORE_DURATION_FACTOR = 0.628
CORE_CONTRIBUTION_MULTIPLIER = 2.665
PER_VIDEO_AGGRESSION_MULTIPLIER = 1.997
SELF_COMMENT_MULTIPLIER_COMPROMISED = 1.778

# Expected share of its own community's videos that a compromised user
# engages, and of all community videos that a core user engages.
INTRA_COMMUNITY_CO_COMMENT_RATE = 0.12
CORE_PERIPHERY_CO_COMMENT_RATE = 0.005

MARKET_VIDEO_FRACTION = 0.04
BASE_COMMENTS_PER_ENGAGEMENT = 1.3
SELF_COMMENT_RATE_CORE = 0.8
COMP_CROSS_COMMUNITY_RATE = 0.01
INTRA_ACTIVITY_SIGMA = 0.5
CROSS_ACTIVITY_SIGMA = 0.6

CORE_TEMPLATES = (
    "nice video bro subscribe me",
    "awesome content keep it up",
    "great video subscribe back",
    "amazing work love this channel",
    "cool video nice edit",
    "super video liked and subscribed",
)

GENERAL_TEMPLATES = (
    "really enjoyed this one",
    "this helped me a lot thanks",
    "what camera do you use",
    "first time here nice channel",
    "watching this again today",
    "good point at the end",
    "the intro was too long",
    "music choice is perfect",
    "can you make a tutorial",
    "greetings from my city",
    "this deserves more views",
    "quality keeps improving",
    "not sure i agree but ok",
    "waiting for the next part",
    "my favorite upload so far",
    "who else is here early",
    "the editing is so clean",
    "learned something new today",
    "please review my channel too",
    "sharing this with friends",
    "underrated channel honestly",
    "the thumbnail got me",
    "sound is a bit low",
    "great collab idea",
    "this trend needs to stop",
    "respect for the effort",
    "came from the community post",
    "your older videos were better",
    "instant like from me",
    "keep grinding it pays off",
)

FILLER_TOKENS = ("wow", "lol", "nice", "yes", "omg", "haha", "cool", "true")

GENRES = ("music", "gaming", "vlog", "howto", "news", "sports", "comedy", "film")


@dataclass(frozen=True)
class SynthConfig:
    n_core: int = 20
    n_compromised: int = 200
    n_videos: int = 400
    peripheral_community_count: int = 8
    seed: int = SETTINGS["seed"].default

    def __post_init__(self):
        check("seed", self.seed)
        if self.n_core < 0 or self.n_compromised < 0 or self.n_videos < 0:
            raise ValueError("counts must be >= 0")
        if self.n_core + self.n_compromised < 2:
            raise ValueError("need at least 2 users in total")
        if self.n_compromised > 0 and self.peripheral_community_count < 1:
            raise ValueError("need at least one peripheral community")
        if self.n_videos == 0:
            raise ValueError("zero videos with nonzero comment rates is infeasible")


def _lognormal_unit_mean(rng, sigma: float) -> float:
    # mean 1 regardless of sigma, so calibrated expectations stay exact
    return float(rng.lognormal(mean=-sigma * sigma / 2.0, sigma=sigma))


def _engage(rng, candidates, lam: float, spread: bool = True):
    """Pick a random sample (without replacement) of candidate videos.

    ``spread`` draws a Poisson count; otherwise the count is lam rounded
    stochastically, keeping the expectation while collapsing the variance
    (used for core users so the planted block peels together).
    """
    if not candidates or lam <= 0:
        return []
    if spread:
        count = int(rng.poisson(lam))
    else:
        count = int(lam) + (1 if rng.random() < lam - int(lam) else 0)
    count = min(len(candidates), count)
    if count == 0:
        return []
    picked = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[i] for i in sorted(picked)]


def generate(config: SynthConfig):
    """Build (Dataset, planted labels) deterministically from the seed."""
    rng = np.random.default_rng(config.seed)
    n_total = config.n_core + config.n_compromised
    user_ids = [f"u{i:04d}" for i in range(n_total)]
    perm = rng.permutation(n_total)
    core_users = sorted(user_ids[i] for i in perm[: config.n_core])
    comp_users = sorted(set(user_ids) - set(core_users))
    labels = {u: ("core" if u in core_users else "compromised") for u in user_ids}

    communities: list[list[str]] = []
    if comp_users:
        buckets = min(config.peripheral_community_count, len(comp_users))
        communities = [[] for _ in range(buckets)]
        shuffled = [comp_users[i] for i in rng.permutation(len(comp_users))]
        for i, user in enumerate(shuffled):
            communities[i % buckets].append(user)
        communities = [sorted(c) for c in communities]

    # --- video counts -------------------------------------------------
    if comp_users:
        comp_upload_mean = config.n_videos / (
            config.n_compromised + CORE_UPLOAD_FACTOR * config.n_core
        )
    else:
        comp_upload_mean = 0.0
    n_core_videos = (
        min(config.n_videos, round(CORE_UPLOAD_FACTOR * comp_upload_mean * config.n_core))
        if comp_users
        else config.n_videos
    )
    remaining = config.n_videos - n_core_videos
    n_market = min(remaining, max(4, round(MARKET_VIDEO_FRACTION * config.n_videos))) if comp_users else 0
    n_community_videos = remaining - n_market

    users = [
        UserRecord(
            user_id=u,
            channel_subscriber_count=int(
                rng.lognormal(math.log(120 if labels[u] == "core" else 2500),
                              1.0 if labels[u] == "core" else 1.3)
            ),
            channel_created_at=int(rng.integers(1_420_000_000, 1_580_000_000)),
        )
        for u in user_ids
    ]

    # --- videos ---------------------------------------------------------
    videos: list[VideoRecord] = []
    video_counter = 0

    def add_video(uploader: str, topic: str, genre: str) -> str:
        nonlocal video_counter
        vid = f"v{video_counter:04d}"
        video_counter += 1
        duration_mean = 420.0
        if labels[uploader] == "core":
            duration_mean *= CORE_DURATION_FACTOR
        duration = max(1, int(rng.lognormal(math.log(duration_mean), 0.6)))
        views = max(0, int(rng.lognormal(math.log(800), 1.0)))
        likes = int(views * rng.uniform(0.01, 0.06))
        dislikes = int(views * rng.uniform(0.001, 0.01))
        videos.append(
            VideoRecord(
                video_id=vid,
                uploader_user_id=uploader,
                title=f"{topic} video {vid}",
                description=f"{topic} channel upload about {genre}",
                genre=genre,
                duration_sec=duration,
                likes=likes,
                dislikes=dislikes,
                views=views,
                is_collusive=True,
            )
        )
        return vid

    market_videos = []
    for _ in range(n_market):
        uploader = comp_users[int(rng.integers(len(comp_users)))]
        market_videos.append(add_video(uploader, "promo", GENRES[int(rng.integers(len(GENRES)))]))

    community_videos: list[list[str]] = [[] for _ in communities]
    if communities and n_community_videos > 0:
        base, extra = divmod(n_community_videos, len(communities))
        for ci, members in enumerate(communities):
            count = base + (1 if ci < extra else 0)
            genre = GENRES[ci % len(GENRES)]
            for _ in range(count):
                uploader = members[int(rng.integers(len(members)))]
                community_videos[ci].append(add_video(uploader, f"topic{ci}", genre))
    all_community_videos = [vid for pool in community_videos for vid in pool]

    uploader_pool = core_users if core_users else comp_users
    for _ in range(n_core_videos):
        uploader = uploader_pool[int(rng.integers(len(uploader_pool)))]
        add_video(uploader, "misc", GENRES[int(rng.integers(len(GENRES)))])

    videos_by_uploader: dict[str, list[str]] = {}
    for v in videos:
        videos_by_uploader.setdefault(v.uploader_user_id, []).append(v.video_id)

    # --- calibration ------------------------------------------------------
    a_comp = BASE_COMMENTS_PER_ENGAGEMENT
    a_core = a_comp * PER_VIDEO_AGGRESSION_MULTIPLIER
    s_core = SELF_COMMENT_RATE_CORE
    s_comp = s_core * SELF_COMMENT_MULTIPLIER_COMPROMISED

    if communities:
        pool_eff = float(
            np.mean([
                len(pool) * (1.0 - 1.0 / len(members)) if members else 0.0
                for pool, members in zip(community_videos, communities)
            ])
        )
        mean_pool = n_community_videos / len(communities)
        e_comp = (
            INTRA_COMMUNITY_CO_COMMENT_RATE * pool_eff * a_comp
            + COMP_CROSS_COMMUNITY_RATE * (n_community_videos - mean_pool) * a_comp
            + s_comp * (n_market + n_community_videos) / len(comp_users)
        )
    else:
        e_comp = 0.0
    core_upload_mean = n_core_videos / config.n_core if config.n_core else 0.0
    e_core_fixed = (
        CORE_PERIPHERY_CO_COMMENT_RATE * len(all_community_videos) * a_core
        + s_core * core_upload_mean
    )
    if config.n_core and n_market and e_comp > 0:
        target = CORE_CONTRIBUTION_MULTIPLIER * e_comp
        p_core_engage = (target - e_core_fixed) / (n_market * a_core)
        p_core_engage = float(min(0.98, max(0.02, p_core_engage)))
    else:
        p_core_engage = 0.0

    # --- comments ---------------------------------------------------------
    comments: list[CommentRecord] = []
    comment_counter = 0
    preferred: dict[str, list[str]] = {}

    def comp_text(user: str) -> str:
        if user not in preferred:
            picks = rng.choice(len(GENERAL_TEMPLATES), size=8, replace=False)
            preferred[user] = [GENERAL_TEMPLATES[i] for i in sorted(picks)]
        text = preferred[user][int(rng.integers(len(preferred[user])))]
        if rng.random() < 0.3:
            text = f"{text} {FILLER_TOKENS[int(rng.integers(len(FILLER_TOKENS)))]}"
        return text

    def core_text() -> str:
        return CORE_TEMPLATES[int(rng.integers(len(CORE_TEMPLATES)))]

    def add_comment(user: str, vid: str) -> None:
        nonlocal comment_counter
        text = core_text() if labels[user] == "core" else comp_text(user)
        comments.append(
            CommentRecord(
                comment_id=f"c{comment_counter:06d}",
                user_id=user,
                video_id=vid,
                text=text,
                timestamp=1_600_000_000 + comment_counter,
            )
        )
        comment_counter += 1

    def add_engagement(user: str, vid: str, per_video_mean: float) -> None:
        count = 1 + int(rng.poisson(max(0.0, per_video_mean - 1.0)))
        for _ in range(count):
            add_comment(user, vid)

    # self comments, in video order
    for v in videos:
        rate = s_core if labels[v.uploader_user_id] == "core" else s_comp
        for _ in range(int(rng.poisson(rate))):
            add_comment(v.uploader_user_id, v.video_id)

    # core users service the market pool and dip into community pools
    for user in core_users:
        own = set(videos_by_uploader.get(user, ()))
        market_candidates = [v for v in market_videos if v not in own]
        lam = p_core_engage * len(market_candidates)
        for vid in _engage(rng, market_candidates, lam, spread=False):
            add_engagement(user, vid, a_core)
        cross_candidates = [v for v in all_community_videos if v not in own]
        lam = CORE_PERIPHERY_CO_COMMENT_RATE * len(cross_candidates)
        for vid in _engage(rng, cross_candidates, lam):
            add_engagement(user, vid, a_core)

    # compromised users co-comment inside their community and, more lightly,
    # on other communities' videos (keeps the periphery connected on its own)
    for ci, members in enumerate(communities):
        for user in members:
            own = set(videos_by_uploader.get(user, ()))
            act = _lognormal_unit_mean(rng, INTRA_ACTIVITY_SIGMA)
            candidates = [v for v in community_videos[ci] if v not in own]
            lam = INTRA_COMMUNITY_CO_COMMENT_RATE * len(candidates) * act
            for vid in _engage(rng, candidates, lam):
                add_engagement(user, vid, a_comp)
            act_cross = _lognormal_unit_mean(rng, CROSS_ACTIVITY_SIGMA)
            others = [
                v for cj, pool in enumerate(community_videos) if cj != ci
                for v in pool if v not in own
            ]
            lam = COMP_CROSS_COMMUNITY_RATE * len(others) * act_cross
            for vid in _engage(rng, others, lam):
                add_engagement(user, vid, a_comp)

    dataset = Dataset(users=tuple(users), videos=tuple(videos), comments=tuple(comments))
    return dataset, labels


def write_labels(labels: dict, path) -> None:
    write_rows(path, sorted(labels.items()), "\t")


def read_labels(path) -> dict:
    return read_roles(path, ("core", "compromised"))[0]


def write_meta(config: SynthConfig, path) -> None:
    write_rows(path, sorted(asdict(config).items()), "=")
