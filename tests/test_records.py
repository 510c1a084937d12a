import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from collusioncore import records
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
from oracles import comment_count, oracle_ingest


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


# ---------------------------------------------------------------------------
# The reader against the oracle: json.loads of every line, then the validators
# ---------------------------------------------------------------------------

def outcome(reader, paths):
    """What ``reader`` makes of the files: the records' repr (so a bool stays
    a bool), or the exception's type and text."""
    try:
        dataset = reader(*paths)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc).__name__, str(exc)
    return repr((dataset.users, dataset.videos, dataset.comments))


FIELDS = {"comments": CommentRecord._fields, "videos": VideoRecord._fields,
          "users": UserRecord._fields}


def read_kind_text(tmp, kind, suffix, text):
    """Both readers' outcome on a ``kind`` file of ``text`` beside empty files."""
    paths = []
    for name in FIELDS:
        path = tmp / f"{name}{suffix if name == kind else '.jsonl'}"
        # a lone surrogate is written as the invalid UTF-8 it encodes to
        path.write_bytes(text.encode("utf-8", "surrogatepass") if name == kind else b"")
        paths.append(path)
    return outcome(ingest, paths), outcome(oracle_ingest, paths)


U1, U2 = '{"user_id": "u1"}', '{"user_id": "u2"}'

# (users file text, the users read or the error's text after "path:1: ")
EDGE_LINES = [
    (f"  {U1}  \n", [UserRecord("u1")]),
    (f"{U1}\t\r\n \n", [UserRecord("u1")]),
    (f"\ufeff{U1}\n", "malformed line: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (f"{U1}\x0b\n", "malformed line: Extra data"),
    (f"{U1}\u3000\n", "malformed line: Extra data"),
    ("\u3000\n", []),
    ("\u3000\x0b \n", []),
    ('{"user_id": "u1", "channel_created_at": NaN}\n',
     "field 'channel_created_at' must be an integer"),
    ('{"user_id": "u0", "user_id": "u1"}\n', [UserRecord("u1")]),
    (f"{U1} {U2}\n", "malformed line: Extra data"),
    (f"{U1}{U2}", "malformed line: Extra data"),
    ("[]\n", "malformed line: expected an object"),
    ('"x"\n', "malformed line: expected an object"),
    ('{"user_id": "u1"\n', "malformed line: Expecting ',' delimiter"),
    ('{"user_id": "u1\n', "malformed line: Invalid control character at"),
    (f"{U1}\r\n{U2}\r\n", [UserRecord("u1"), UserRecord("u2")]),
    (f"{U1}\r{U2}", [UserRecord("u1"), UserRecord("u2")]),
    ('{"user_id": "u\u20281"}\n', [UserRecord("u\u20281")]),  # U+2028 ends no line
    ('{"user_id": "u\\u20281"}\n', [UserRecord("u\u20281")]),
    ('{"user_id": "u\\u00e91"}\n', [UserRecord("u\u00e91")]),
    ("[" * 100_000 + "\n", "malformed line: nested too deeply"),
    ('{"user_id": ' + "[" * 100_000 + "\n", "malformed line: nested too deeply"),
]


@pytest.mark.parametrize("text,expected", EDGE_LINES)
def test_an_edge_line_reads_as_json_loads_reads_it(tmp_path, text, expected):
    got, oracle = read_kind_text(tmp_path, "users", ".jsonl", text)
    assert got == oracle
    if isinstance(expected, str):
        assert got == ("IngestError", f"{tmp_path / 'users.jsonl'}:1: {expected}")
    else:
        assert got == repr(((*expected,), (), ()))


def test_every_row_the_library_writes_takes_the_plain_path(tmp_path, monkeypatch,
                                                           synth_default):
    dataset, _ = synth_default
    paths = [tmp_path / name for name in ("c.jsonl", "v.jsonl", "u.jsonl")]
    write_dataset(dataset, *paths)

    def refuse(row, origin):
        raise AssertionError(f"{origin}: a written row reached the field validators")

    for name in ("_parse_comment", "_parse_video", "_parse_user"):
        monkeypatch.setattr(records, name, refuse)
    again = ingest(*paths)
    assert repr((again.users, again.videos, again.comments)) == repr(
        (dataset.users, dataset.videos, dataset.comments))


MISSING = object()
# a valid value of each field, by the name's last word; ids repeat across rows
GOOD_JSON = {"id": ["u1", "u2", "c1"], "count": [0, 7, 2**70], "at": [MISSING, None, -5],
             "timestamp": [MISSING, None, 12], "collusive": [True, False],
             "text": ["hi", "a\tb", "\u00e9t\u00e9"]}
GOOD_CSV = {"id": ["u1", "u2", "c1"], "count": ["0", "7"], "at": ["", "-5"],
            "timestamp": ["", "12"], "collusive": ["true", "0"], "text": ["hi", "a\tb", "x,y"]}
# any value a field may hold instead
ODD_JSON = [MISSING, None, "", True, False, 1.0, 1.5, "12", "-3", "true", "0", -1, 0, 7,
            2**70, "u1", "\u00e9t\u00e9", "\u65e5", "\ud800", "x\udfffy", "a\tb", "a\rb",
            "a\nb", "a b", "a\u2028b", " ", "\x01", "\x7f", [], {}]
ODD_CSV = ["", "12", "-3", " 7", "1.5", "true", "FALSE", "0", "1", "u1", "\u00e9t\u00e9",
           "a\tb", "a\nb", "a\r\nb", "x,y", '"q"', "\x01"]
JUNK_LINES = ["", "  ", "\u3000", "{", "[1]", "x", '{"a": 1} 2', "\ufeff{}", "{}",
              '{"user_id": NaN}', "[" * 10_000]


def good_values(table, field):
    word = field.rsplit("_", 1)[-1]
    if word in ("sec", "likes", "dislikes", "views", "count"):
        word = "count"
    return table.get(word, table["text"])


def jsonl_line(row) -> str:
    return json.dumps({k: v for k, v in row.items() if v is not MISSING}, ensure_ascii=False)


def csv_lines(header, rows) -> str:
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerows([header, *rows])
    return handle.getvalue()


def test_one_odd_field_reads_as_the_oracle_reads_it(tmp_path):
    for kind, fields in FIELDS.items():
        good = {name: good_values(GOOD_JSON, name)[0] for name in fields}
        good_cells = [good_values(GOOD_CSV, name)[0] for name in fields]
        for i, field in enumerate(fields):
            for value in ODD_JSON:
                text = jsonl_line(dict(good, **{field: value})) + "\n"
                got, oracle = read_kind_text(tmp_path, kind, ".jsonl", text)
                assert got == oracle, (kind, field, value)
            for cell in ODD_CSV:
                text = csv_lines(fields, [good_cells[:i] + [cell] + good_cells[i + 1:]])
                got, oracle = read_kind_text(tmp_path, kind, ".csv", text)
                assert got == oracle, (kind, field, cell)


@st.composite
def rows(draw, kind, good, odd):
    """A row of valid values but for one field in three quarters of rows."""
    row = {name: draw(st.sampled_from(good_values(good, name))) for name in FIELDS[kind]}
    if draw(st.integers(0, 3)):
        row[draw(st.sampled_from(FIELDS[kind]))] = draw(st.sampled_from(odd))
    return row


@st.composite
def jsonl_text(draw, kind):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(JUNK_LINES)))
            continue
        row = draw(rows(kind, GOOD_JSON, ODD_JSON))
        if draw(st.booleans()):
            row["extra"] = draw(st.sampled_from(ODD_JSON))
        keys = draw(st.permutations(list(row)))
        lines.append(jsonl_line({k: row[k] for k in keys}))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def csv_text(draw, kind):
    header = draw(st.permutations(FIELDS[kind]))[:draw(st.integers(1, len(FIELDS[kind])))]
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from([[], ["a"], ["a"] * 11])))  # blank, short, long
            continue
        row = draw(rows(kind, GOOD_CSV, ODD_CSV))
        lines.append([row[name] for name in header])
    return csv_lines(header, lines)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data(), kind=st.sampled_from(list(FIELDS)),
       suffix=st.sampled_from([".jsonl", ".csv"]))
def test_ingest_reads_any_file_as_the_oracle_reads_it(tmp_path_factory, data, kind, suffix):
    text = data.draw(jsonl_text(kind) if suffix == ".jsonl" else csv_text(kind))
    got, oracle = read_kind_text(tmp_path_factory.mktemp("fuzz"), kind, suffix, text)
    assert got == oracle
