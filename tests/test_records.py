import json

import pytest
from hypothesis import given, settings, strategies as st

from collusioncore.records import (
    CommentRecord,
    Dataset,
    IngestError,
    UserRecord,
    VideoRecord,
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


def test_ingest_rejects_a_lone_surrogate(tmp_path):
    # json.dumps writes non-ASCII text as escapes: a pair for U+1F600, and
    # "\ud800" alone, which decodes to a string UTF-8 cannot encode
    row = {"comment_id": "c1", "user_id": "u1", "video_id": "v1", "text": "nice \U0001F600"}
    assert ingest_dir(tmp_path, [row], [VIDEO_ROW], [{"user_id": "u1"}]).comments[0].text == (
        "nice \U0001F600")
    row["text"] = "nice \ud800 video"
    with pytest.raises(IngestError, match="comments.jsonl:1: field 'text' is not valid Unicode"):
        ingest_dir(tmp_path, [row], [VIDEO_ROW], [{"user_id": "u1"}])


def test_ingest_rejects_a_tab_cr_or_lf_in_an_id(tmp_path):
    # ids are written into tab-separated outputs; a text may hold all three
    comment = {"comment_id": "c1", "user_id": "u1", "video_id": "v1", "text": "a\tb\r\nc"}
    assert ingest_dir(tmp_path, [comment], [VIDEO_ROW], [{"user_id": "u1"}]).comments[0].text == (
        "a\tb\r\nc")
    for name, field in [("comments", "comment_id"), ("comments", "user_id"),
                        ("comments", "video_id"), ("videos", "video_id"),
                        ("videos", "uploader_user_id"), ("users", "user_id")]:
        for char in "\t\r\n":
            rows = {"comments": [dict(comment)], "videos": [dict(VIDEO_ROW)],
                    "users": [{"user_id": "u0"}, {"user_id": "u1"}]}
            rows[name][-1][field] = f"x{char}y"
            line = len(rows[name])
            message = (f"{name}.jsonl:{line}: field '{field}' "
                       "must be non-empty, without tab, CR or LF")
            with pytest.raises(IngestError, match=message):
                ingest_dir(tmp_path, rows["comments"], rows["videos"], rows["users"])


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
    assert sum(sum(c.values()) for c in dataset.video_commenters.values()) == len(dataset.comments)


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


# Each string field refuses a lone surrogate, and each typed field reads a
# cell of another type, or refuses it, with the same message in every kind
# of file: these cases pin the checked parse field by field.

ROWS = {
    "comments": {"comment_id": "c1", "user_id": "u1", "video_id": "v1", "text": "hi"},
    "videos": VIDEO_ROW,
    "users": {"user_id": "u1"},
}
STRING_FIELDS = [("comments", f) for f in ("comment_id", "user_id", "video_id", "text")] + [
    ("videos", f) for f in ("video_id", "uploader_user_id", "title", "description", "genre")
] + [("users", "user_id")]


def write_rows_ingest(tmp_path, kind, line):
    """Ingest the fixture rows with ``line`` as the only line of ``kind``'s file."""
    for name, row in ROWS.items():
        text = line if name == kind else json.dumps(row)
        (tmp_path / f"{name}.jsonl").write_text(text + "\n", encoding="utf-8")
    return ingest(tmp_path / "comments.jsonl", tmp_path / "videos.jsonl",
                  tmp_path / "users.jsonl")


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFF"])
@pytest.mark.parametrize("kind,field", STRING_FIELDS)
def test_a_lone_surrogate_in_any_string_field_is_refused(tmp_path, kind, field, escape):
    line = json.dumps(dict(ROWS[kind], **{field: "x@y"})).replace("@", escape)
    with pytest.raises(IngestError) as caught:
        write_rows_ingest(tmp_path, kind, line)
    assert str(caught.value) == f"{tmp_path / kind}.jsonl:1: field '{field}' is not valid Unicode"


# (kind, field, JSON value, the record's value or the error's text after "path:line: ")
TYPED_CELLS = [
    ("comments", "timestamp", '"12"', 12),
    ("comments", "timestamp", '""', None),
    ("comments", "timestamp", "null", None),
    ("comments", "timestamp", "-5", -5),
    ("comments", "timestamp", "true", "field 'timestamp' must be an integer"),
    ("comments", "timestamp", '"x"', "field 'timestamp' is not an integer"),
    ("comments", "timestamp", "1.0", "field 'timestamp' must be an integer"),
    ("comments", "text", "3", "field 'text' must be a string"),
    ("comments", "user_id", '""', "field 'user_id' must be non-empty, without tab, CR or LF"),
    ("comments", "video_id", "null", "missing required field 'video_id'"),
    ("videos", "likes", '"7"', 7),
    ("videos", "likes", "false", "field 'likes' must be an integer"),
    ("videos", "views", "-1", "field 'views' must be >= 0"),
    ("videos", "is_collusive", '"TRUE"', True),
    ("videos", "is_collusive", '"0"', False),
    ("videos", "is_collusive", "1", "field 'is_collusive' must be a boolean"),
    ("users", "channel_subscriber_count", '"250"', 250),
    ("users", "channel_subscriber_count", "-1", "field 'channel_subscriber_count' must be >= 0"),
    ("users", "channel_created_at", "-1", -1),
    ("users", "channel_created_at", "false", "field 'channel_created_at' must be an integer"),
]


@pytest.mark.parametrize("kind,field,value,expected", TYPED_CELLS)
def test_a_cell_of_another_type_reads_or_is_refused_as_before(tmp_path, kind, field, value,
                                                             expected):
    row = {k: v for k, v in ROWS[kind].items() if k != field}
    line = json.dumps(row)[:-1] + f', "{field}": {value}}}'
    if isinstance(expected, str):
        with pytest.raises(IngestError) as caught:
            write_rows_ingest(tmp_path, kind, line)
        assert str(caught.value) == f"{tmp_path / kind}.jsonl:1: {expected}"
    else:
        record = getattr(write_rows_ingest(tmp_path, kind, line), kind)[0]
        assert repr(getattr(record, field)) == repr(expected)


def test_csv_cells_are_strings_and_read_as_before(tmp_path):
    (tmp_path / "comments.csv").write_text(
        "comment_id,user_id,video_id,text,timestamp\nc1,u1,v1,hi,12\nc2,u1,v1,yo,x\n",
        encoding="utf-8")
    (tmp_path / "videos.csv").write_text(
        ",".join(VIDEO_ROW) + "\n" + ",".join(str(v) for v in VIDEO_ROW.values()) + "\n",
        encoding="utf-8")
    (tmp_path / "users.csv").write_text("user_id\nu1\n", encoding="utf-8")
    paths = [tmp_path / name for name in ("comments.csv", "videos.csv", "users.csv")]
    with pytest.raises(IngestError, match=r"comments.csv:3: field 'timestamp' is not an integer"):
        ingest(*paths)
    paths[0].write_text("comment_id,user_id,video_id,text,timestamp\nc1,u1,v1,hi,12\n",
                        encoding="utf-8")
    dataset = ingest(*paths)
    assert dataset.comments[0].timestamp == 12
    assert repr(dataset.videos[0]) == repr(VideoRecord(**VIDEO_ROW))
    assert dataset.users[0] == UserRecord("u1")


def test_a_duplicate_id_is_named_at_its_line(tmp_path):
    first, second = json.dumps(ROWS["users"]), json.dumps({"user_id": "u1"})
    (tmp_path / "users.jsonl").write_text(f"{first}\n{second}\n", encoding="utf-8")
    for name in ("comments", "videos"):
        (tmp_path / f"{name}.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(IngestError, match="users.jsonl:2: duplicate user_id 'u1'"):
        ingest(tmp_path / "comments.jsonl", tmp_path / "videos.jsonl", tmp_path / "users.jsonl")


ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"),
              min_size=1, max_size=6)
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
counts = st.integers(min_value=0, max_value=2**70)
optional_ints = st.none() | st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def datasets(draw):
    user_ids = draw(st.lists(ids, max_size=4, unique=True))
    users = [UserRecord(u, draw(st.none() | counts), draw(optional_ints)) for u in user_ids]
    video_ids = draw(st.lists(ids, max_size=4, unique=True))
    videos = [VideoRecord(v, draw(ids), draw(texts), draw(texts), draw(texts), draw(counts),
                          draw(counts), draw(counts), draw(counts), draw(st.booleans()))
              for v in video_ids]
    comment_ids = draw(st.lists(ids, max_size=6, unique=True))
    comments = [CommentRecord(c, draw(ids), draw(ids), draw(texts), draw(optional_ints))
                for c in comment_ids]
    return Dataset(users=tuple(users), videos=tuple(videos), comments=tuple(comments))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(dataset=datasets())
def test_written_records_ingest_to_equal_records(tmp_path_factory, dataset):
    tmp = tmp_path_factory.mktemp("records")
    paths = [tmp / name for name in ("c.jsonl", "v.jsonl", "u.jsonl")]
    write_dataset(dataset, *paths)
    again = ingest(*paths)
    for kind in ("users", "videos", "comments"):
        assert getattr(again, kind) == getattr(dataset, kind)
        assert repr(getattr(again, kind)) == repr(getattr(dataset, kind))  # bool stays bool
