"""The one rule every output table is written by, and the one line rule and
cell grammar every file is read back by."""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import collusioncore
from collusioncore.embeddings import FileEmbedder, HashEmbedder, write_embedding_file
from collusioncore.features import feature_header, read_features, write_features
from collusioncore.graph import Ccn, read_edgelist, write_edgelist
from collusioncore.korse import korse, read_partition, write_partition
from collusioncore.records import ingest, valid_id
from collusioncore.synth import read_labels, write_labels
from collusioncore.tables import ID, format_rows, lines, read_table, write_rows

from conftest import graph_from_edges, odd_features


def test_rows_are_each_cells_str_and_floats_read_back_bit_for_bit(tmp_path):
    floats = [0.1, -0.0, 5e-324, 1e300, -1 / 3, 2.0 ** 52 + 1]
    path = tmp_path / "rows.tsv"
    write_rows(path, [floats, [7, "a b", 'q"t', "x,y", "k=v"]], "\t")
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n") and text.count("\n") == 2
    cells, given = (line.split("\t") for line in text.splitlines())
    assert [float(x).hex() for x in cells] == [x.hex() for x in floats]
    assert given == ["7", "a b", 'q"t', "x,y", "k=v"]  # tab rows are never quoted
    assert format_rows([("n", 3), ("x", 0.1)], "=") == "n=3\nx=0.1\n"
    # comma rows quote only a cell holding a comma or a quote
    assert format_rows([("a,b", 'a"b', 2.5, "plain")], ",") == '"a,b","a""b",2.5,plain\n'


def write_bytes(path, data: bytes):
    path.write_bytes(data)
    return path


PAIRS = (("x", ID), ("y", ID))


def test_read_rows_numbers_every_line_and_skips_blank_ones(tmp_path):
    path = write_bytes(tmp_path / "t.tsv", b"# v1\na\tb\n\n\nc\n\t\n")
    assert list(lines(path)) == [(1, "# v1"), (2, "a\tb"), (5, "c"), (6, "\t")]
    path = write_bytes(tmp_path / "t.tsv", b"# v1\na\tb\n\n\nc\td\n")
    assert read_table(path, PAIRS, "# v1") == ([2, 5], [["a", "c"], ["b", "d"]])
    assert read_table(write_bytes(tmp_path / "h.tsv", b"# v1\n"), PAIRS, "# v1") == ([], [[], []])


@pytest.mark.parametrize("data", [b"# v2\na\n", b"", b"\n# v1\n", b"# v1 \n"],
                         ids=["other", "empty", "blank-first", "trailing-space"])
def test_read_rows_refuses_a_first_line_other_than_the_header(tmp_path, data):
    path = write_bytes(tmp_path / "t.tsv", data)
    first = data.decode("utf-8").partition("\n")[0]
    message = f"{path}: unexpected header {first!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_table(path, PAIRS, "# v1")


def test_read_rows_reads_crlf_as_lf(tmp_path):
    lf = write_bytes(tmp_path / "lf.tsv", b"# v1\na\tb\n\nc\td\n")
    crlf = write_bytes(tmp_path / "crlf.tsv", b"# v1\r\na\tb\r\n\r\nc\td\r\n")
    assert read_table(crlf, PAIRS, "# v1") == read_table(lf, PAIRS, "# v1") == (
        [2, 4], [["a", "c"], ["b", "d"]])
    assert list(lines(crlf)) == list(lines(lf))


def test_read_rows_gives_cells_back_unchanged(tmp_path):
    cells = [" lead", "trail ", "# hash", "k=v", "a,b", 'q"t', "'", "ü x", "\x0b"]
    path = tmp_path / "t.tsv"
    write_rows(path, [cells], "\t")
    assert read_table(path, [(f"c{i}", ID) for i in range(len(cells))]) == (
        [1], [[cell] for cell in cells])


# ids an output can hold: the prefixes and suffixes a reader might trim or
# take for a summary line, around text without tab, CR, LF or a surrogate
ids = st.builds(
    lambda pre, body, post: pre + body + post,
    st.sampled_from(["", " ", "# ", "# core_threshold=", '"', ","]),
    st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\t\r\n"),
            max_size=8),
    st.sampled_from(["", " ", ",", "'", "=1"]),
).filter(valid_id)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data(), nodes=st.lists(ids, min_size=2, max_size=8, unique=True))
def test_every_file_read_back_round_trips(tmp_path_factory, data, nodes):
    tmp = tmp_path_factory.mktemp("rows")
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    graph = Ccn.build(nodes, {pair: data.draw(st.integers(1, 9)) for pair in chosen})

    write_edgelist(graph, tmp / "ccn.tsv")  # isolated nodes live in the sidecar
    again = read_edgelist(tmp / "ccn.tsv")
    assert (again.nodes, again.edges) == (graph.nodes, graph.edges)

    part = korse(graph)
    write_partition(part, tmp / "partition.tsv")
    again = read_partition(tmp / "partition.tsv")
    assert (again.core, again.periphery) == (part.core, part.periphery)
    assert (again.core_threshold, again.normalized_threshold, again.peak_wicci) == (
        part.core_threshold, part.normalized_threshold, part.peak_wicci)

    labels = {node: data.draw(st.sampled_from(["core", "compromised"])) for node in nodes}
    write_labels(labels, tmp / "labels.tsv")
    assert read_labels(tmp / "labels.tsv") == labels

    stub = HashEmbedder(dim=data.draw(st.integers(2, 6)), seed=1)
    texts = [node for node in nodes if node.strip()]  # blank texts embed to zero, unwritten
    if texts:
        write_embedding_file(tmp / "emb.txt", texts, stub)
        loaded = FileEmbedder.load(tmp / "emb.txt")
        for text in texts:
            assert loaded.embed_text(text).tobytes() == stub.embed_text(text).tobytes()

    # csv-quoted ids, and values such as 5e-324, -0.0, 1e300 and 2**52 + 1
    odd = odd_features(2)
    feats = odd + [replace(odd[i % len(odd)], user_id=node) for i, node in enumerate(nodes)
                   if node not in {fv.user_id for fv in odd}]
    write_features(feats, tmp / "features.csv")
    again = read_features(tmp / "features.csv")
    assert [(fv.user_id, fv.label) for fv in again] == [(fv.user_id, fv.label) for fv in feats]
    for x, y in zip(feats, again):
        for block in ("mfe", "sfe", "tfe"):
            assert getattr(x, block).tobytes() == getattr(y, block).tobytes()


def comma_cells(line, start, names):
    """``(column, start, end)`` of each comma-joined cell of ``line`` from ``start``."""
    out = []
    for name, text in zip(names, line[start:].rstrip("\r").split(",")):
        out.append((name, start, start + len(text)))
        start += len(text) + 1
    return out


def number_cells(tmp):
    """``(reader, path, line number, column, start, end)`` of every number cell
    of each file a command reads back, written from a small example."""
    graph = graph_from_edges([("a", "b", 2), ("b", "c", 3), ("a", "c", 1), ("c", "d", 1)])
    write_edgelist(graph, tmp / "ccn.tsv")
    write_partition(korse(graph), tmp / "partition.tsv")
    write_embedding_file(tmp / "emb.txt", ["x y", "z"], HashEmbedder(dim=2, seed=1))
    write_features(odd_features(2)[:2], tmp / "features.csv")
    header = (tmp / "features.csv").read_text(encoding="utf-8").split("\n")[0].split(",")
    for reader, name in ((read_edgelist, "ccn.tsv"), (read_partition, "partition.tsv"),
                         (FileEmbedder.load, "emb.txt"), (read_features, "features.csv")):
        path = tmp / name
        for lineno, line in enumerate(path.read_bytes().decode("utf-8").split("\n"), start=1):
            if not line:
                continue
            if name == "ccn.tsv" and lineno > 1:
                cells = comma_cells(line, line.rfind("\t") + 1, ["weight"])
            elif name == "partition.tsv" and line.startswith("# "):
                cells = comma_cells(line, line.index("=") + 1, [line[2:line.index("=")]])
            elif name == "emb.txt":
                cells = (comma_cells(line, 4, ["dim"]) if lineno == 1 else
                         comma_cells(line, line.find("\t") + 1, ["value_0", "value_1"]))
            elif name == "features.csv" and lineno > 1:
                tail = ",".join(line.split(",")[-len(header) + 2:])
                cells = comma_cells(line, len(line) - len(tail), header[2:])
            else:
                continue
            for column, start, end in cells:
                yield reader, path, lineno, column, start, end


# texts of a number that Python's int or float, or numpy, would take; ARABIC-INDIC
# DIGIT THREE alone, after an ASCII digit and after a point
VARIANTS = ["1_0", " 3", "3 ", "+3", "03", "\u0663", "1\u0663", "0.\u0663", "1E5", ".5", "5.",
            "Infinity", "nan"]


@pytest.mark.parametrize("variant", VARIANTS, ids=ascii)
def test_every_number_cell_read_back_refuses_text_its_writer_never_writes(tmp_path, variant):
    found = set()
    for reader, path, lineno, column, start, end in number_cells(tmp_path):
        found.add(path.name)
        data = path.read_bytes().decode("utf-8")
        lines = data.split("\n")
        line = lines[lineno - 1]
        lines[lineno - 1] = line[:start] + variant + line[end:]
        path.write_bytes("\n".join(lines).encode("utf-8"))
        with pytest.raises(ValueError) as fault:
            reader(path)
        assert str(fault.value).startswith(f"{path}:{lineno}: column '{column}' "), column
        path.write_bytes(data.encode("utf-8"))
    assert found == {"ccn.tsv", "partition.tsv", "emb.txt", "features.csv"}


def test_only_tables_and_records_decode_a_text_file():
    """Every other module reads its text through ``tables``, so the line rule
    has one home."""
    for module in sorted(Path(collusioncore.__file__).parent.glob("*.py")):
        if module.stem not in ("tables", "records"):
            source = module.read_text(encoding="utf-8")
            for call in ("read_text(", "csv.reader(", ".splitlines("):
                assert call not in source, f"{module.name} calls {call}"



def test_only_tables_imports_re():
    """Every cell is matched by the kinds in ``tables``, so no other module
    holds a pattern of its own."""
    for module in sorted(Path(collusioncore.__file__).parent.glob("*.py")):
        if module.stem != "tables":
            source = module.read_text(encoding="utf-8")
            assert not re.search(r"^(import re\b|from re import)", source, re.M), module.name


VALUES = ",".join(["0.5"] * 53)  # the floats of a dim-2 features row
# id: (reader, {file: text}, the file read, the fault) of keys x y y x: the
# first key equal to an earlier one is named, not the later pair
REPEATS = {
    "edges": (read_edgelist, {"ccn.tsv": "# ccn v1\na\tb\t1\nb\tc\t1\nc\tb\t1\nb\ta\t1\n"},
              "ccn.tsv", "4: edge (c, b)"),
    "sidecar": (read_edgelist, {"ccn.tsv": "# ccn v1\na\tb\t1\n",
                                "ccn.tsv.nodes": "# ccn nodes v1\na\nb\nb\na\n"},
                "ccn.tsv.nodes", "4: node 'b'"),
    "labels": (read_labels, {"labels.tsv": "u1\tcore\nu2\tcore\nu2\tcore\nu1\tcore\n"},
               "labels.tsv", "3: user 'u2'"),
    "summary": (read_partition, {"partition.tsv": "# core_size=1\n# peak_wicci=0.5\n"
                                 "# peak_wicci=0.5\n# core_size=1\nu1\tcore\n"},
                "partition.tsv", "3: key 'peak_wicci'"),
    "embeddings": (FileEmbedder.load, {"emb.txt": "dim=2\nh1\t0.5,0.5\nh2\t0.5,0.5\n"
                                       "h2\t0.5,0.5\nh1\t0.5,0.5\n"}, "emb.txt", "4: hash 'h2'"),
    "features": (read_features, {"features.csv": ",".join(feature_header(2)) + "".join(
        f"\n{user},,{VALUES}" for user in ("u1", "u2", "u2", "u1"))},
                 "features.csv", "4: user 'u2'"),
}


@pytest.mark.parametrize("case", sorted(REPEATS))
def test_a_repeat_is_named_at_the_first_line_that_repeats_a_key(tmp_path, case):
    reader, files, name, fault = REPEATS[case]
    for file, text in files.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        reader(tmp_path / sorted(files)[0])
    assert str(exc.value) == f"{tmp_path / name}:{fault} listed twice"


# the lines before a fault, ending at LF, CR or CRLF, blank ones included
BEFORE = {
    "users.jsonl": b'{"user_id": "u1"}\n\r{"user_id": "u2"}\r\n\n',
    "users.csv": b"user_id\r\nu1\ru2\n\r\nu3\r\n",
    "ccn.tsv": b"# ccn v1\ra\tb\t1\r\n\nb\tc\t2\r",
}
FAULT = {"users.jsonl": b"!", "users.csv": b"u1", "ccn.tsv": b"x"}  # malformed, repeated, short


def read(path):
    if path.suffix == ".tsv":
        return read_edgelist(path)
    empty = path.with_name("empty.jsonl")
    empty.write_bytes(b"")
    return ingest(empty, empty, path)


@pytest.mark.parametrize("name", sorted(BEFORE))
@pytest.mark.parametrize("bad", [b"\xed\xa0\x80", b"\xff", b"\xc3("],
                         ids=["surrogate", "never-utf8", "cut-sequence"])
def test_a_bad_byte_is_named_at_the_line_the_reader_names_a_fault_at(tmp_path, name, bad):
    path = tmp_path / name
    path.write_bytes(BEFORE[name] + FAULT[name] + b"\nu9\n")
    with pytest.raises(ValueError) as fault:
        read(path)
    line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(fault.value)).group(1)
    path.write_bytes(BEFORE[name] + b"z" + bad + b"\nu9\n")
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{path}:{line}: not valid UTF-8"
