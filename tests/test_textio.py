"""The row writer against the per-element one it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from shapetensors.shapes import LandmarkShape, write_landmarks
from shapetensors.textio import fmt_row

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
    -1e308, 1.7976931348623157e308, np.nan, -np.nan, np.inf, -np.inf,
    0.1, 1.0 / 3.0, -123456789.125, 1e16, 1e-7,
]


def test_fmt_row_bytes_on_edge_values(rng):
    rows = [EDGE_VALUES, np.array(EDGE_VALUES), rng.standard_normal(7),
            rng.standard_normal(5) * 10.0 ** rng.integers(-300, 300, 5),
            [1, -2, 3], np.arange(4, dtype=np.float32) / 3, []]
    for row in rows:
        assert fmt_row(row) == oracles.fmt_row(row)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 6)))
def test_fmt_row_bytes_on_any_doubles(row):
    assert fmt_row(row) == oracles.fmt_row(row)
    assert fmt_row(list(row)) == oracles.fmt_row(row)


def test_write_landmarks_bytes(tmp_path, rng):
    pts = rng.standard_normal((9, 2)) * 10.0 ** rng.integers(-300, 300, (9, 1))
    pts[1] = (-0.0, 5e-324)
    pts[2] = (1e308, -1e308)
    path = tmp_path / "shape.txt"
    write_landmarks(path, LandmarkShape(pts, name="edge"), header="h")
    want = "\n".join(["# h", "edge"] + [oracles.fmt_row(r) for r in pts]) + "\n"
    assert path.read_text() == want
