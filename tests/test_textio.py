"""One format call and one parse per file, against the per-row writers
and line-by-line readers they replaced (kept in oracles.py)."""

import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from shapetensors.bladeio import write_obj
from shapetensors.errors import ContractError
from shapetensors.shapes import LandmarkShape, read_landmarks, write_landmarks
from shapetensors.textio import (
    BlockReader,
    atomic_write_text,
    fmt_rows,
    matrix_block,
    parse_rows,
    vector_block,
)

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
    -1e308, 1.7976931348623157e308, np.nan, -np.nan, np.inf, -np.inf,
    0.1, 1.0 / 3.0, -123456789.125, 1e16, 1e-7,
]

SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
    -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
])


def table(seed, rows, cols):
    """A finite (rows, cols) table mixing random magnitudes, subnormals,
    -0.0, +-1e308 and integer-valued floats."""
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    whole = np.round(rng.standard_normal(shape) * 10.0 ** rng.integers(0, 17, shape))
    pick = rng.random(shape)
    a = np.where(pick < 0.15, rng.choice(SPECIAL, shape), a)
    return np.where((pick >= 0.15) & (pick < 0.3), whole, a)


seeds = st.integers(0, 2**32 - 1)
landmark_tables = st.builds(table, seeds, st.integers(3, 2000), st.just(2))


def oracle_rows(mat):
    return "\n".join(oracles.fmt_row(row) for row in mat)


def outcome(read, path):
    """What a reader makes of a file: its result, or its error."""
    try:
        shape = read(path)
    except Exception as err:  # compared, not handled
        return type(err), str(err)
    return shape.x.tobytes(), shape.x.shape, shape.name, shape.closed


# ----------------------------------------------------------------- writers

def test_fmt_rows_bytes_on_edge_values(rng):
    rows = [EDGE_VALUES, np.array(EDGE_VALUES), rng.standard_normal(7),
            rng.standard_normal(5) * 10.0 ** rng.integers(-300, 300, 5),
            [1, -2, 3], np.arange(4, dtype=np.float32) / 3, []]
    for row in rows:
        assert fmt_rows([row]) == oracles.fmt_row(row)
    mat = np.reshape(EDGE_VALUES, (6, 3))
    assert fmt_rows(mat) == oracle_rows(mat)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 6))))
def test_fmt_rows_bytes_on_any_doubles(mat):
    assert fmt_rows(mat) == oracle_rows(mat)
    assert fmt_rows(mat.tolist() or mat) == oracle_rows(mat)


@settings(max_examples=40, deadline=None)
@given(landmark_tables, st.sampled_from([None, "h"]), st.sampled_from([None, "NACA 0012"]))
def test_write_landmarks_bytes(tmp_path_factory, pts, header, name):
    d = tmp_path_factory.mktemp("w")
    shape = LandmarkShape(pts, name=name)
    write_landmarks(d / "new.txt", shape, header=header)
    oracles.write_landmarks(d / "old.txt", shape, header=header)
    assert (d / "new.txt").read_bytes() == (d / "old.txt").read_bytes()


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 2000), st.integers(1, 5))
def test_block_writers_bytes(seed, rows, cols):
    mat = table(seed, rows, cols)
    assert "\n".join(matrix_block("m", mat)) == \
        "\n".join(oracles.matrix_block("m", mat))
    assert vector_block("v", mat[0]) == oracles.vector_block("v", mat[0])
    assert vector_block("v", mat[:, 0].tolist()) == \
        oracles.vector_block("v", mat[:, 0].tolist())


def test_block_writers_on_empty_shapes():
    for mat in (np.zeros((0, 3)), np.zeros((4, 0))):
        assert "\n".join(matrix_block("m", mat)) == \
            "\n".join(oracles.matrix_block("m", mat))
    assert vector_block("v", []) == oracles.vector_block("v", [])


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(2, 6), st.integers(1, 300))
def test_write_obj_bytes(tmp_path_factory, seed, sections, n):
    d = tmp_path_factory.mktemp("obj")
    placed = list(table(seed, sections * n, 3).reshape(sections, n, 3))
    write_obj(d / "new.obj", placed)
    oracles.write_obj(d / "old.obj", placed)
    assert (d / "new.obj").read_bytes() == (d / "old.obj").read_bytes()


# ----------------------------------------------------------------- readers

@settings(max_examples=40, deadline=None)
@given(landmark_tables, st.data())
def test_read_landmarks_bit_identical(tmp_path_factory, pts, data):
    """Comments and blank lines anywhere, CRLF, tabs and runs of blanks
    between and around the numbers, a name line, a closed traversal."""
    if data.draw(st.booleans(), "closed"):
        pts = np.vstack([pts, pts[:1]])
    sep = data.draw(st.sampled_from([" ", "\t", "  ", " \t "]), "separator")
    pad = data.draw(st.sampled_from(["", " ", "\t"]), "padding")
    lines = [f"{pad}{x!r}{sep}{y!r}{pad}" for x, y in pts.tolist()]
    for _ in range(data.draw(st.integers(0, 3), "inserts")):
        at = data.draw(st.integers(0, len(lines)), "at")
        lines.insert(at, data.draw(st.sampled_from(["", "   ", "# note", "  #x y"])))
    if data.draw(st.booleans(), "name"):
        lines.insert(0, data.draw(st.sampled_from(["NACA 0012", "root", "x 1.0"])))
    lines.insert(0, "# header")
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), "newline")
    path = tmp_path_factory.mktemp("r") / "shape.txt"
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    new = outcome(read_landmarks, path)
    assert new == outcome(oracles.read_landmarks, path)
    assert isinstance(new[0], bytes)


MALFORMED = [
    "1 2", "3.5 -4", "1e-310 -0.0", "1_0 2", "-1 +2", "infinity 1", "1 2 3",
    "1.5", "1 x", "x 1", "NACA 0012", "name", "nan 1", "1 -nan", "1e400 0",
    "0 -1e400", "", "   ", "# c", "\t1\t2\t", "1,2", "0x10 1",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(MALFORMED), max_size=12),
       st.sampled_from(["\n", "\r\n"]))
def test_read_landmarks_malformed_matches_oracle(tmp_path_factory, lines, newline):
    """Same result or same exception class and message as the line-by-line
    reader, whatever mix of lines the file holds."""
    path = tmp_path_factory.mktemp("m") / "bad.txt"
    path.write_bytes(newline.join(lines).encode())
    assert outcome(read_landmarks, path) == outcome(oracles.read_landmarks, path)


@pytest.mark.parametrize("lines", [
    ["name", "0 0", "1 0", "0 1"],                      # a name line
    ["0 0", "1 0", "name", "0 1"],                      # name-like after data
    ["name", "other", "0 0", "1 0", "0 1"],             # two name lines
    ["0 0", "1", "0 1", "1 1"],                         # one token
    ["0 0", "1 0 2", "0 1", "1 1"],                     # three tokens
    ["0 0", "1 0", "0 y", "1 1"],                       # non-numeric
    ["0 0", "1 0", "nan 1", "1 1"],                     # non-finite
    ["0 0", "1 0", "1e400 1", "1 1"],                   # overflows
    ["0 0", "# c", "", "1 0", "0 1"],                   # comment and blank
    ["0 0", "1 0"],                                     # too few
    [],
])
def test_read_landmarks_named_cases(tmp_path, lines):
    path = tmp_path / "f.txt"
    path.write_text("\n".join(lines) + "\n")
    assert outcome(read_landmarks, path) == outcome(oracles.read_landmarks, path)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 1000), st.integers(1, 5))
def test_block_reader_bit_identical(tmp_path_factory, seed, rows, cols):
    mat = table(seed, rows, cols)
    lines = (matrix_block("m", mat) + vector_block("v", mat[-1])
             + ["opt none"] + matrix_block("opt", mat[:1]))
    path = tmp_path_factory.mktemp("b") / "blocks.txt"
    path.write_text("\n".join(lines) + "\n")
    new, old = BlockReader(path), oracles.BlockReader(path)
    for a, b in [(new.block("m"), old.block("m")),
                 (new.vector("v"), old.vector("v")),
                 (new.block("opt", optional=True), old.block("opt", optional=True)),
                 (new.block("opt", optional=True), old.block("opt", optional=True))]:
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("text, where, words", [
    ("m 2 2\n1 2\n3 x\n", 3, "block 'm' needs 2 numbers per line, got '3 x'"),
    ("m 2 2\n1 2\n3 4 5\n", 3,
     "block 'm' needs 2 numbers per line, got '3 4 5'"),
    ("m 2 2\n1\n3 4\n", 2, "block 'm' needs 2 numbers per line, got '1'"),
    ("m 2\n1 2\n", 1, "expected 'm rows cols', got 'm 2'"),
    ("m x 2\n1 2\n", 1, "bad block size 'x'"),
    ("m -1 2\n", 1, "bad block size '-1'"),
    ("k 1 2\n1 2\n", 1, "expected 'm', found 'k 1 2'"),
])
def test_block_reader_words_bad_lines(tmp_path, text, where, words):
    path = tmp_path / "b.txt"
    path.write_text(text)
    with pytest.raises(ContractError) as info:
        BlockReader(path).block("m")
    assert str(info.value) == f"{path}:{where}: {words}"


def test_block_reader_values_and_truncation(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("eps 1e-8\nkind\nm 3 1\n1\n2\n")
    r = BlockReader(path)
    assert r.value("eps", float) == 1e-8
    with pytest.raises(ContractError, match=r":2: expected 'kind value', got 'kind'"):
        r.value("kind")
    with pytest.raises(ContractError, match="truncated file"):
        r.block("m")
    path.write_text("eps x\n")
    with pytest.raises(ContractError, match=r":1: bad eps value 'x'"):
        BlockReader(path).value("eps", float)


def test_parse_rows():
    assert parse_rows([], 2).shape == (0, 2)
    assert parse_rows([""], 0).shape == (1, 0)
    np.testing.assert_array_equal(parse_rows(["1 2", " 3\t4 "], 2), [[1, 2], [3, 4]])
    for bad in (["1 2", "3"], ["1 2 3", "4"], ["1 2", "3 y"]):
        assert parse_rows(bad, 2) is None


def test_atomic_write_follows_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        for mask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(mask)
            path = tmp_path / f"out-{mask:o}.txt"
            atomic_write_text(path, "x\n")
            assert stat.S_IMODE(os.stat(path).st_mode) == mode
            assert path.read_text() == "x\n"
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out-22.txt", "out-77.txt"]
