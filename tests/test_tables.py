"""The one rule every output table is written by."""

from collusioncore.tables import format_rows, write_rows


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
