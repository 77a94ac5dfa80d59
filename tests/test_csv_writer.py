"""``spec.write_csv`` writes the bytes that ``csv.writer`` writes for its rows.

The column writer formats a block of rows at a time: distinct ints once per
block, floats one by one, table texts once through ``csv.writer``.  A
hypothesis test holds it to ``csv.writer(lineterminator="\\n")``, byte for
byte, on every kind of column, on quoting specials, and on row counts at
the block edges.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drsync import spec

BLOCK = spec._ITER_ROWS
ROW_COUNTS = [0, 1, BLOCK, 2 * BLOCK + 1]

# Texts that csv quotes, pads or leaves alone, and non-ASCII ones.
SPECIAL_TEXTS = [
    ",", '"', "\r", "\n", "\r\n", "a,b", 'x"y', " a", "a ", " ", "", '""',
    "é", "名前", "c0001",
]
FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 0.1 + 0.2,
          1e300, -2.5]
INTS = [0, -1, 1, 2**63 - 1, -(2**63), 12345]
BIG_INTS = [2**63, -(2**63) - 1, 2**100, -(10**30)]
# csv.writer writes any value but a string as its str.
OTHER_NUMBERS = [True, np.int64(-7), np.float64(0.1), np.float32(0.1)]


@st.composite
def columns(draw, n):
    """One column of ``n`` rows as ``write_csv`` takes it, and its values as
    ``csv.writer`` takes them."""
    kind = draw(st.sampled_from(["ints", "floats", "list", "table", "flags"]))
    pick = np.random.default_rng(draw(st.integers(0, 2**32))).integers
    if kind == "ints":
        dtype = draw(st.sampled_from([np.int64, np.int8, np.uint64]))
        info = np.iinfo(dtype)
        pool = draw(st.lists(
            st.one_of(st.sampled_from(INTS), st.integers()).filter(
                lambda v: info.min <= v <= info.max
            ),
            min_size=1, max_size=6,
        ))
        column = np.array(pool, dtype)[pick(len(pool), size=n)]
        return column, column.tolist()
    if kind == "floats":
        pool = draw(st.lists(
            st.one_of(st.sampled_from(FLOATS), st.floats()), min_size=1, max_size=6
        ))
        column = np.array(pool, np.float64)[pick(len(pool), size=n)]
        return column, column.tolist()
    if kind == "list":
        pool = draw(st.lists(
            st.one_of(
                st.none(), st.sampled_from(INTS + BIG_INTS + FLOATS + OTHER_NUMBERS),
                st.integers(), st.floats(),
            ),
            min_size=1, max_size=6,
        ))
        values = [pool[i] for i in pick(len(pool), size=n).tolist()]
        return values, values
    if kind == "flags":
        codes = pick(2, size=n).astype(bool)
        return spec.flags(codes), [spec.FLAG_TEXTS[c] for c in codes.tolist()]
    texts = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_TEXTS), st.text(max_size=5)),
        min_size=1, max_size=5,
    ))
    codes = pick(len(texts), size=n)
    if draw(st.booleans()):
        codes = codes.tolist()
    return spec.Table(codes, texts), [texts[c] for c in np.asarray(codes).tolist()]


@st.composite
def tables(draw):
    n = draw(st.one_of(st.sampled_from(ROW_COUNTS), st.integers(0, 9)))
    k = draw(st.integers(1, 4))
    header = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_TEXTS), st.text(max_size=5)),
        min_size=k, max_size=k,
    ))
    cols, values = zip(*(draw(columns(n)) for _ in range(k)))
    return header, list(cols), list(zip(*values)) if n else []


def csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@example(case=(["x", "y"], [np.array([-0.0, 0.0]), [0.0, -0.0]],
               [(-0.0, 0.0), (0.0, -0.0)]))
@example(case=(["lone"], [[None, 1.5, None]], [(None,), (1.5,), (None,)]))
@example(case=(["name"], [spec.Table([0, 1, 0], ["", "a,b"])],
               [("",), ("a,b",), ("",)]))
@example(case=(["a", "b"], [spec.Table([0, 1], ['"', " x\r\n"]), [2**64, None]],
               [('"', 2**64), (" x\r\n", None)]))
@given(case=tables())
def test_column_writer_writes_what_csv_writer_writes(tmp_path_factory, case):
    header, cols, rows = case
    expected = csv_writer_text(header, rows)
    buf = io.StringIO()
    spec.write_csv(buf, header, cols)
    assert buf.getvalue() == expected
    path = tmp_path_factory.getbasetemp() / "written.csv"
    spec.write_csv(str(path), header, cols)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_every_row_is_written_once_at_the_block_edges(n):
    # Distinct values, so that a row lost or written twice at a block edge
    # shows.
    t = np.arange(n, dtype=np.int64)
    buf = io.StringIO()
    u = (-t).tolist()
    spec.write_csv(buf, ["t", "u"], [t, u])
    assert buf.getvalue() == csv_writer_text(["t", "u"], zip(t.tolist(), u))


def test_columns_of_different_lengths_are_rejected():
    with pytest.raises(ValueError, match="one length"):
        spec.write_csv(io.StringIO(), ["a", "b"], [[1, 2], spec.flags([True])])


def test_cells_are_written_before_their_end_only():
    column = np.array([3, -1, 3])
    buf = io.StringIO()
    spec.write_csv(buf, ["a", "b"], [spec.cells(column), spec.cells(column, "\n")])
    assert buf.getvalue() == "a,b\n3,3\n-1,-1\n3,3\n"
    with pytest.raises(ValueError, match="cells that end in ','"):
        spec.write_csv(io.StringIO(), ["a"], [spec.cells(column)])


def test_shared_cells_of_another_length_or_end_are_rejected():
    seq, x = np.arange(1, 4), [0.5, None, -1.0]
    buf = io.StringIO()
    spec.write_csv(buf, ["seq", "x"], [seq, x], {"seq": spec.cells(seq)})
    assert buf.getvalue() == "seq,x\n1,0.5\n2,\n3,-1.0\n"
    short = {"seq": spec.cells(seq[:2])}
    with pytest.raises(ValueError, match="one length"):
        spec.write_csv(io.StringIO(), ["seq", "x"], [seq, x], short)
    # A lone column is held to the length of the column it replaces.
    with pytest.raises(ValueError, match="one length"):
        spec.write_csv(io.StringIO(), ["seq"], [seq], {"seq": spec.cells(seq[:2], "\n")})
    with pytest.raises(ValueError, match="cells that end in ','"):
        spec.write_csv(io.StringIO(), ["x", "seq"], [x, seq], {"seq": spec.cells(seq)})
