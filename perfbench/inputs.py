"""Seeded input generators for the three benchmark workloads.

The benchmark owns its inputs, so a change to ``collusioncore.synth`` cannot
change a workload. Every generator is a pure function of its seed and
returns a :class:`Log`; :func:`write_log` serialises it in the documented
``.jsonl`` input format, so the same seed gives byte-identical files.

- :func:`quickstart` is a frozen copy of the library's ``synth.generate``
  at its default configuration (220 users, 400 videos, templated texts).
- :func:`paper_graph` draws a comment log whose co-commenting network has
  the paper's shape: ~1.6k nodes, ~51k edges, density ~0.04, mean edge
  weight ~1.4, one giant component and a planted 80-user core.
- :func:`timeline` draws ~800 users and ~20k comments whose texts are
  unique Zipf-distributed token bags, so text caches miss.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np


@dataclass
class Log:
    users: list      # dicts in UserRecord field order
    videos: list     # dicts in VideoRecord field order
    comments: list   # dicts in CommentRecord field order
    labels: dict     # user_id -> "core" | "compromised" (planted)

    @cached_property
    def network(self):
        """(nodes, {(a, b): weight}) of the co-commenting network; see :func:`ccn`."""
        return ccn(self)


def write_log(log: Log, out_dir) -> dict:
    """Write the three record files and labels.tsv; return {name: sha256}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"users.jsonl": log.users, "videos.jsonl": log.videos,
             "comments.jsonl": log.comments}
    digests = {}
    for name, rows in files.items():
        text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)
        (out / name).write_text(text, encoding="utf-8")
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    labels = "".join(f"{u}\t{log.labels[u]}\n" for u in sorted(log.labels))
    (out / "labels.tsv").write_text(labels, encoding="utf-8")
    digests["labels.tsv"] = hashlib.sha256(labels.encode("utf-8")).hexdigest()
    return digests


def _video(vid, uploader, title, description, genre, duration, likes, dislikes, views):
    return {"video_id": vid, "uploader_user_id": uploader, "title": title,
            "description": description, "genre": genre, "duration_sec": duration,
            "likes": likes, "dislikes": dislikes, "views": views, "is_collusive": True}


def _comment(index, user, vid, text):
    return {"comment_id": f"c{index:06d}", "user_id": user, "video_id": vid,
            "text": text, "timestamp": 1_600_000_000 + index}


# ---------------------------------------------------------------------------
# quickstart: frozen copy of collusioncore.synth.generate, default config
# ---------------------------------------------------------------------------

_CORE_UPLOAD_FACTOR = 0.633
_CORE_DURATION_FACTOR = 0.628
_MARKET_VIDEO_FRACTION = 0.04
_BASE_COMMENTS_PER_ENGAGEMENT = 1.3
_SELF_COMMENT_RATE_CORE = 0.8
_COMP_CROSS_COMMUNITY_RATE = 0.01
_INTRA_ACTIVITY_SIGMA = 0.5
_CROSS_ACTIVITY_SIGMA = 0.6

_CORE_TEMPLATES = (
    "nice video bro subscribe me", "awesome content keep it up",
    "great video subscribe back", "amazing work love this channel",
    "cool video nice edit", "super video liked and subscribed",
)
_GENERAL_TEMPLATES = (
    "really enjoyed this one", "this helped me a lot thanks", "what camera do you use",
    "first time here nice channel", "watching this again today", "good point at the end",
    "the intro was too long", "music choice is perfect", "can you make a tutorial",
    "greetings from my city", "this deserves more views", "quality keeps improving",
    "not sure i agree but ok", "waiting for the next part", "my favorite upload so far",
    "who else is here early", "the editing is so clean", "learned something new today",
    "please review my channel too", "sharing this with friends",
    "underrated channel honestly", "the thumbnail got me", "sound is a bit low",
    "great collab idea", "this trend needs to stop", "respect for the effort",
    "came from the community post", "your older videos were better",
    "instant like from me", "keep grinding it pays off",
)
_FILLER_TOKENS = ("wow", "lol", "nice", "yes", "omg", "haha", "cool", "true")
GENRES = ("music", "gaming", "vlog", "howto", "news", "sports", "comedy", "film")


def _lognormal_unit_mean(rng, sigma):
    return float(rng.lognormal(mean=-sigma * sigma / 2.0, sigma=sigma))


def _engage(rng, candidates, lam, spread=True):
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


def quickstart(seed: int) -> Log:
    """The library's default synth dataset for ``seed``, with planted labels."""
    n_core, n_compromised, n_videos, n_communities = 20, 200, 400, 8
    intra_rate, cross_rate = 0.12, 0.005
    contribution, aggression, self_multiplier = 2.665, 1.997, 1.778
    rng = np.random.default_rng(seed)
    n_total = n_core + n_compromised
    user_ids = [f"u{i:04d}" for i in range(n_total)]
    perm = rng.permutation(n_total)
    core_users = sorted(user_ids[i] for i in perm[:n_core])
    comp_users = sorted(set(user_ids) - set(core_users))
    labels = {u: ("core" if u in core_users else "compromised") for u in user_ids}

    buckets = min(n_communities, len(comp_users))
    communities = [[] for _ in range(buckets)]
    shuffled = [comp_users[i] for i in rng.permutation(len(comp_users))]
    for i, user in enumerate(shuffled):
        communities[i % buckets].append(user)
    communities = [sorted(c) for c in communities]

    comp_upload_mean = n_videos / (n_compromised + _CORE_UPLOAD_FACTOR * n_core)
    n_core_videos = min(n_videos, round(_CORE_UPLOAD_FACTOR * comp_upload_mean * n_core))
    remaining = n_videos - n_core_videos
    n_market = min(remaining, max(4, round(_MARKET_VIDEO_FRACTION * n_videos)))
    n_community_videos = remaining - n_market

    users = []
    for u in user_ids:
        subs = int(rng.lognormal(math.log(120 if labels[u] == "core" else 2500),
                                 1.0 if labels[u] == "core" else 1.3))
        created = int(rng.integers(1_420_000_000, 1_580_000_000))
        users.append({"user_id": u, "channel_subscriber_count": subs,
                      "channel_created_at": created})

    videos = []

    def add_video(uploader, topic, genre):
        vid = f"v{len(videos):04d}"
        duration_mean = 420.0 * (_CORE_DURATION_FACTOR if labels[uploader] == "core" else 1.0)
        duration = max(1, int(rng.lognormal(math.log(duration_mean), 0.6)))
        views = max(0, int(rng.lognormal(math.log(800), 1.0)))
        likes = int(views * rng.uniform(0.01, 0.06))
        dislikes = int(views * rng.uniform(0.001, 0.01))
        videos.append(_video(vid, uploader, f"{topic} video {vid}",
                             f"{topic} channel upload about {genre}", genre,
                             duration, likes, dislikes, views))
        return vid

    market_videos = []
    for _ in range(n_market):
        uploader = comp_users[int(rng.integers(len(comp_users)))]
        market_videos.append(add_video(uploader, "promo", GENRES[int(rng.integers(len(GENRES)))]))

    community_videos = [[] for _ in communities]
    base, extra = divmod(n_community_videos, len(communities))
    for ci, members in enumerate(communities):
        for _ in range(base + (1 if ci < extra else 0)):
            uploader = members[int(rng.integers(len(members)))]
            community_videos[ci].append(add_video(uploader, f"topic{ci}", GENRES[ci % len(GENRES)]))
    all_community_videos = [vid for pool in community_videos for vid in pool]

    for _ in range(n_core_videos):
        uploader = core_users[int(rng.integers(len(core_users)))]
        add_video(uploader, "misc", GENRES[int(rng.integers(len(GENRES)))])

    videos_by_uploader = {}
    for v in videos:
        videos_by_uploader.setdefault(v["uploader_user_id"], []).append(v["video_id"])

    a_comp = _BASE_COMMENTS_PER_ENGAGEMENT
    a_core = a_comp * aggression
    s_core = _SELF_COMMENT_RATE_CORE
    s_comp = s_core * self_multiplier
    pool_eff = float(np.mean([
        len(pool) * (1.0 - 1.0 / len(members)) if members else 0.0
        for pool, members in zip(community_videos, communities)
    ]))
    mean_pool = n_community_videos / len(communities)
    e_comp = (intra_rate * pool_eff * a_comp
              + _COMP_CROSS_COMMUNITY_RATE * (n_community_videos - mean_pool) * a_comp
              + s_comp * (n_market + n_community_videos) / len(comp_users))
    e_core_fixed = (cross_rate * len(all_community_videos) * a_core
                    + s_core * n_core_videos / n_core)
    p_core_engage = (contribution * e_comp - e_core_fixed) / (n_market * a_core)
    p_core_engage = float(min(0.98, max(0.02, p_core_engage)))

    comments = []
    preferred = {}

    def comp_text(user):
        if user not in preferred:
            picks = rng.choice(len(_GENERAL_TEMPLATES), size=8, replace=False)
            preferred[user] = [_GENERAL_TEMPLATES[i] for i in sorted(picks)]
        text = preferred[user][int(rng.integers(len(preferred[user])))]
        if rng.random() < 0.3:
            text = f"{text} {_FILLER_TOKENS[int(rng.integers(len(_FILLER_TOKENS)))]}"
        return text

    def add_comment(user, vid):
        if labels[user] == "core":
            text = _CORE_TEMPLATES[int(rng.integers(len(_CORE_TEMPLATES)))]
        else:
            text = comp_text(user)
        comments.append(_comment(len(comments), user, vid, text))

    def add_engagement(user, vid, per_video_mean):
        for _ in range(1 + int(rng.poisson(max(0.0, per_video_mean - 1.0)))):
            add_comment(user, vid)

    for v in videos:
        rate = s_core if labels[v["uploader_user_id"]] == "core" else s_comp
        for _ in range(int(rng.poisson(rate))):
            add_comment(v["uploader_user_id"], v["video_id"])

    for user in core_users:
        own = set(videos_by_uploader.get(user, ()))
        market_candidates = [v for v in market_videos if v not in own]
        lam = p_core_engage * len(market_candidates)
        for vid in _engage(rng, market_candidates, lam, spread=False):
            add_engagement(user, vid, a_core)
        cross_candidates = [v for v in all_community_videos if v not in own]
        for vid in _engage(rng, cross_candidates, cross_rate * len(cross_candidates)):
            add_engagement(user, vid, a_core)

    for ci, members in enumerate(communities):
        for user in members:
            own = set(videos_by_uploader.get(user, ()))
            act = _lognormal_unit_mean(rng, _INTRA_ACTIVITY_SIGMA)
            candidates = [v for v in community_videos[ci] if v not in own]
            for vid in _engage(rng, candidates, intra_rate * len(candidates) * act):
                add_engagement(user, vid, a_comp)
            act_cross = _lognormal_unit_mean(rng, _CROSS_ACTIVITY_SIGMA)
            others = [v for cj, pool in enumerate(community_videos) if cj != ci
                      for v in pool if v not in own]
            lam = _COMP_CROSS_COMMUNITY_RATE * len(others) * act_cross
            for vid in _engage(rng, others, lam):
                add_engagement(user, vid, a_comp)

    return Log(users, videos, comments, labels)


# ---------------------------------------------------------------------------
# paper-graph: a comment log whose network has the paper's shape
# ---------------------------------------------------------------------------

PAPER_CORE = 80
PAPER_PERIPHERY = 1523
PAPER_COMMUNITIES = 10
PAPER_COMMUNITY_VIDEOS = 560      # per community
PAPER_MARKET_VIDEOS = 60
PAPER_INTRA_RATE = 0.029          # chance a member comments on a community video
PAPER_CROSS_VIDEOS = 1.2          # mean videos a member comments on elsewhere
PAPER_CORE_MARKET_RATE = 0.2      # chance a core user comments on a market video
PAPER_CORE_DIP_VIDEOS = 4.0       # mean community videos a core user comments on
PAPER_REPEAT = 0.1                # mean extra comments per engagement
PAPER_CORE_REPEAT = 0.3           # the same, for core users on market videos
PAPER_SELF_COMMENTS = 2.0         # mean comments an uploader posts on its own video


def paper_graph(seed: int) -> Log:
    """Planted core plus community periphery at the paper's network scale."""
    rng = np.random.default_rng(seed)
    n_total = PAPER_CORE + PAPER_PERIPHERY
    user_ids = [f"u{i:04d}" for i in range(n_total)]
    perm = rng.permutation(n_total)
    core = sorted(user_ids[i] for i in perm[:PAPER_CORE])
    periphery = [user_ids[i] for i in perm[PAPER_CORE:]]
    labels = {u: "compromised" for u in user_ids}
    labels.update({u: "core" for u in core})
    communities = [sorted(periphery[i::PAPER_COMMUNITIES]) for i in range(PAPER_COMMUNITIES)]
    users = [{"user_id": u, "channel_subscriber_count": int(rng.integers(10, 10_000)),
              "channel_created_at": int(rng.integers(1_420_000_000, 1_580_000_000))}
             for u in user_ids]

    videos = []

    def add_video(uploader, topic, genre):
        vid = f"v{len(videos):05d}"
        duration = max(1, int(rng.lognormal(math.log(420.0), 0.6)))
        views = max(0, int(rng.lognormal(math.log(800), 1.0)))
        videos.append(_video(vid, uploader, f"{topic} video {vid}",
                             f"{topic} channel upload about {genre}", genre, duration,
                             int(views * 0.03), int(views * 0.005), views))
        return vid

    market = [add_video(periphery[int(rng.integers(len(periphery)))], "promo", "music")
              for _ in range(PAPER_MARKET_VIDEOS)]
    pools = [[add_video(members[int(rng.integers(len(members)))], f"topic{ci}",
                        GENRES[ci % len(GENRES)])
              for _ in range(PAPER_COMMUNITY_VIDEOS)]
             for ci, members in enumerate(communities)]
    all_pool = [vid for pool in pools for vid in pool]

    comments = []

    def engage(user, vid, repeat):
        for _ in range(1 + int(rng.poisson(repeat))):
            comments.append(_comment(len(comments), user, vid, f"nice {vid} from {user}"))

    for v in videos:
        for _ in range(int(rng.poisson(PAPER_SELF_COMMENTS))):
            engage(v["uploader_user_id"], v["video_id"], 0.0)
    for user in core:
        hits = np.flatnonzero(rng.random(len(market)) < PAPER_CORE_MARKET_RATE)
        for i in hits:
            engage(user, market[i], PAPER_CORE_REPEAT)
        for i in sorted(rng.choice(len(all_pool), int(rng.poisson(PAPER_CORE_DIP_VIDEOS)),
                                   replace=False)):
            engage(user, all_pool[i], PAPER_REPEAT)
    for ci, members in enumerate(communities):
        pool = pools[ci]
        for user in members:
            act = _lognormal_unit_mean(rng, _INTRA_ACTIVITY_SIGMA)
            for i in np.flatnonzero(rng.random(len(pool)) < PAPER_INTRA_RATE * act):
                engage(user, pool[i], PAPER_REPEAT)
            for _ in range(int(rng.poisson(PAPER_CROSS_VIDEOS))):
                cj = int(rng.integers(PAPER_COMMUNITIES - 1))
                other = pools[cj + (cj >= ci)]
                engage(user, other[int(rng.integers(len(other)))], PAPER_REPEAT)
    return Log(users, videos, comments, labels)


# ---------------------------------------------------------------------------
# timeline-768: unique texts, so the embedder's text cache misses
# ---------------------------------------------------------------------------

TIMELINE_CORE = 100
TIMELINE_COMPROMISED = 700
TIMELINE_VOCABULARY = 40_000
TIMELINE_ZIPF = 1.1
TIMELINE_SWAPPED_RANKS = 2_000     # core users favour a shifted slice of the vocabulary
TIMELINE_COMMENTS = {"core": 40, "compromised": 23}
TIMELINE_UPLOADS = {"core": 2.0, "compromised": 4.0}


def timeline(seed: int) -> Log:
    """Users with planted roles and unique, Zipf-distributed comment texts."""
    rng = np.random.default_rng(seed)
    n_total = TIMELINE_CORE + TIMELINE_COMPROMISED
    user_ids = [f"u{i:04d}" for i in range(n_total)]
    perm = rng.permutation(n_total)
    labels = {u: "compromised" for u in user_ids}
    labels.update({user_ids[i]: "core" for i in perm[:TIMELINE_CORE]})
    users = [{"user_id": u, "channel_subscriber_count": int(rng.integers(10, 10_000)),
              "channel_created_at": int(rng.integers(1_420_000_000, 1_580_000_000))}
             for u in user_ids]

    videos = []
    for u in user_ids:
        core = labels[u] == "core"
        for _ in range(int(rng.poisson(TIMELINE_UPLOADS[labels[u]]))):
            vid = f"v{len(videos):05d}"
            genre = GENRES[int(rng.integers(len(GENRES)))]
            duration = max(1, int(rng.lognormal(math.log(260.0 if core else 420.0), 0.6)))
            views = max(0, int(rng.lognormal(math.log(800), 1.0)))
            videos.append(_video(vid, u, f"{genre} video {vid}", f"upload about {genre}",
                                 genre, duration, int(views * 0.03), int(views * 0.005), views))

    cdf = np.cumsum(1.0 / np.arange(1, TIMELINE_VOCABULARY + 1) ** TIMELINE_ZIPF)
    cdf /= cdf[-1]
    shifted = np.arange(TIMELINE_VOCABULARY)
    shifted[:TIMELINE_SWAPPED_RANKS] = rng.permutation(TIMELINE_SWAPPED_RANKS)
    seen = set()
    comments = []
    for u in user_ids:
        vocab = shifted if labels[u] == "core" else np.arange(TIMELINE_VOCABULARY)
        n = 1 + int(rng.poisson(TIMELINE_COMMENTS[labels[u]] - 1))
        for i in sorted(rng.choice(len(videos), n, replace=False)):
            while True:
                ranks = np.searchsorted(cdf, rng.random(int(rng.integers(6, 15))), side="right")
                text = " ".join(f"w{vocab[r]}" for r in ranks)
                if text not in seen:
                    break
            seen.add(text)
            comments.append(_comment(len(comments), u, videos[i]["video_id"], text))
    return Log(users, videos, comments, labels)


def split(labels: dict, seed: int):
    """Stratified train / held-out halves of the labelled users."""
    rng = np.random.default_rng(seed)
    train, held = [], []
    for role in ("core", "compromised"):
        members = sorted(u for u, label in labels.items() if label == role)
        order = rng.permutation(len(members))
        half = len(members) // 2
        train += [members[i] for i in order[:half]]
        held += [members[i] for i in order[half:]]
    return sorted(train), sorted(held)


def write_partition(labels: dict, users, path) -> None:
    """Partition file marking planted core users as core, the rest periphery."""
    rows = "".join(f"{u}\t{'core' if labels[u] == 'core' else 'periphery'}\n" for u in users)
    Path(path).write_text(rows, encoding="utf-8")

# ---------------------------------------------------------------------------
# Shape of a log, from the benchmark's own recomputation
# ---------------------------------------------------------------------------

def ccn(log: Log):
    """(nodes, {(a, b): weight}) of the co-commenting network, a < b.

    Recomputed from the documented rule: per collusive video, every pair of
    commenters other than the uploader gains the smaller of their comment
    counts.
    """
    uploader = {v["video_id"]: v["uploader_user_id"] for v in log.videos if v["is_collusive"]}
    counts = {}
    for c in log.comments:
        if c["video_id"] in uploader:
            per_video = counts.setdefault(c["video_id"], {})
            per_video[c["user_id"]] = per_video.get(c["user_id"], 0) + 1
    nodes = {u for per_video in counts.values() for u in per_video}
    weights = {}
    for vid, per_video in counts.items():
        owner = uploader[vid]
        for a, b in combinations(sorted(per_video), 2):
            if owner != a and owner != b:
                weights[(a, b)] = weights.get((a, b), 0) + min(per_video[a], per_video[b])
    return nodes, weights


def largest_component(nodes, edges) -> set:
    """Largest connected component; ties go to the one with the smallest id."""
    adjacency = {n: [] for n in nodes}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    best, seen = set(), set()
    for start in sorted(nodes):
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for nbr in adjacency[stack.pop()]:
                if nbr not in component:
                    component.add(nbr)
                    stack.append(nbr)
        seen |= component
        if len(component) > len(best):
            best = component
    return best


def shape(log: Log) -> dict:
    """Counts that pin down a workload's size; printed with every run."""
    nodes, weights = log.network
    n, m = len(nodes), len(weights)
    return {
        "users": len(log.users),
        "videos": len(log.videos),
        "comments": len(log.comments),
        "distinct_texts": len({c["text"] for c in log.comments}),
        "nodes": n,
        "edges": m,
        "density": 2.0 * m / (n * (n - 1)) if n > 1 else 0.0,
        "mean_edge_weight": sum(weights.values()) / m if m else 0.0,
        "giant_component": len(largest_component(nodes, weights)),
        "planted_core": sum(1 for label in log.labels.values() if label == "core"),
    }
