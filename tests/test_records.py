import json

import pytest

from collusioncore.records import (
    IngestError,
    ingest,
    validate,
    write_dataset,
)

from conftest import make_comment, make_dataset, make_user, make_video
from oracles import comment_count


def write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def ingest_dir(tmp_path, comments, videos, users):
    write_jsonl(tmp_path / "comments.jsonl", comments)
    write_jsonl(tmp_path / "videos.jsonl", videos)
    write_jsonl(tmp_path / "users.jsonl", users)
    return ingest(tmp_path / "comments.jsonl", tmp_path / "videos.jsonl", tmp_path / "users.jsonl")


VIDEO_ROW = {
    "video_id": "v1", "uploader_user_id": "u1", "title": "t", "description": "d",
    "genre": "g", "duration_sec": 10, "likes": 1, "dislikes": 0, "views": 5,
    "is_collusive": True,
}


def test_ingest_empty_files(tmp_path):
    d = ingest_dir(tmp_path, [], [], [])
    assert (len(d.users), len(d.videos), len(d.comments)) == (0, 0, 0)


def test_ingest_minimal_consistent(tmp_path):
    d = ingest_dir(
        tmp_path,
        [{"comment_id": "c1", "user_id": "u1", "video_id": "v1", "text": "hi"}],
        [VIDEO_ROW],
        [{"user_id": "u1"}],
    )
    assert (len(d.users), len(d.videos), len(d.comments)) == (1, 1, 1)
    assert validate(d) == []


def test_ingest_duplicate_comment_id(tmp_path):
    rows = [
        {"comment_id": "c1", "user_id": "u1", "video_id": "v1", "text": "a"},
        {"comment_id": "c1", "user_id": "u2", "video_id": "v1", "text": "b"},
    ]
    with pytest.raises(IngestError, match="c1"):
        ingest_dir(tmp_path, rows, [VIDEO_ROW], [{"user_id": "u1"}, {"user_id": "u2"}])


def test_ingest_malformed_line_reports_number(tmp_path):
    (tmp_path / "comments.jsonl").write_text('{"comment_id": "c1"\n', encoding="utf-8")
    write_jsonl(tmp_path / "videos.jsonl", [])
    write_jsonl(tmp_path / "users.jsonl", [])
    with pytest.raises(IngestError, match="comments.jsonl:1"):
        ingest(tmp_path / "comments.jsonl", tmp_path / "videos.jsonl", tmp_path / "users.jsonl")


def test_ingest_missing_required_field(tmp_path):
    with pytest.raises(IngestError, match="video_id"):
        ingest_dir(tmp_path, [{"comment_id": "c1", "user_id": "u1", "text": "x"}], [], [])


def test_ingest_rejects_negative_counter(tmp_path):
    bad = dict(VIDEO_ROW, views=-3)
    with pytest.raises(IngestError, match="views"):
        ingest_dir(tmp_path, [], [bad], [{"user_id": "u1"}])


def test_ingest_ignores_unknown_fields(tmp_path):
    d = ingest_dir(
        tmp_path,
        [{"comment_id": "c1", "user_id": "u1", "video_id": "v1", "text": "hi", "extra": 9}],
        [dict(VIDEO_ROW, bonus="x")],
        [{"user_id": "u1", "whatever": []}],
    )
    assert validate(d) == []


def test_ingest_csv_variant(tmp_path):
    (tmp_path / "comments.csv").write_text(
        "comment_id,user_id,video_id,text,timestamp\nc1,u1,v1,hello there,\n",
        encoding="utf-8",
    )
    (tmp_path / "videos.csv").write_text(
        "video_id,uploader_user_id,title,description,genre,duration_sec,likes,dislikes,views,is_collusive\n"
        "v1,u1,t,d,g,10,1,0,5,true\n",
        encoding="utf-8",
    )
    (tmp_path / "users.csv").write_text(
        "user_id,channel_subscriber_count,channel_created_at\nu1,250,\n",
        encoding="utf-8",
    )
    d = ingest(tmp_path / "comments.csv", tmp_path / "videos.csv", tmp_path / "users.csv")
    assert d.comments[0].timestamp is None
    assert d.videos[0].is_collusive is True
    assert d.users[0].channel_subscriber_count == 250
    assert validate(d) == []


def test_validate_reports_unknown_video_and_uploader():
    d = make_dataset(
        users=[make_user("u1")],
        videos=[make_video("v1", "uX")],
        comments=[make_comment("u1", "vX", cid="c1")],
    )
    messages = "\n".join(validate(d))
    assert "vX" in messages
    assert "uX" in messages


def test_comment_count_direct_and_zero_cases():
    d = make_dataset(
        users=[make_user("u1"), make_user("u2")],
        videos=[make_video("v1", "u2"), make_video("v2", "u2")],
        comments=[make_comment("u1", "v1") for _ in range(3)] + [make_comment("u1", "v2")],
    )
    assert comment_count(d, "u1", "v1") == 3
    assert comment_count(d, "nobody", "v1") == 0
    assert comment_count(d, "u1", "v1") + comment_count(d, "u1", "v2") == 4
    # comments only on v2, queried for v1
    d2 = make_dataset(
        users=[make_user("u1"), make_user("u2")],
        videos=[make_video("v1", "u2"), make_video("v2", "u2")],
        comments=[make_comment("u1", "v2")],
    )
    assert comment_count(d2, "u1", "v1") == 0


def test_comment_count_sums_to_total(synth_default):
    dataset, _ = synth_default
    assert sum(dataset.pair_counts.values()) == len(dataset.comments)


def test_roundtrip_serialize_ingest(tmp_path, synth_default):
    dataset, _ = synth_default
    write_dataset(dataset, tmp_path / "c.jsonl", tmp_path / "v.jsonl", tmp_path / "u.jsonl")
    again = ingest(tmp_path / "c.jsonl", tmp_path / "v.jsonl", tmp_path / "u.jsonl")
    assert again.users == dataset.users
    assert again.videos == dataset.videos
    assert again.comments == dataset.comments


def test_validate_clean_on_synth(synth_default):
    dataset, _ = synth_default
    assert validate(dataset) == []
