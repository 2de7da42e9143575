"""CSV writer: column-wise formatting against the per-cell oracle, round trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biphoton import csvio
from biphoton.csvio import format_value, read_csv, write_csv, write_csvs

BLOCK = csvio._BLOCK_ROWS
# Quiet and signalling NaNs with payloads, of both signs: all write as "nan".
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                 0x7FF0000000000001, 0xFFF00000DEADBEEF], dtype=np.uint64).view(np.float64)
METADATA = {"run.seed": 7, "fiber.k2_s2_per_m": 3.6e-26, "flag": True, "note": "plain text"}


def write_csv_per_cell(path, columns, metadata):
    """The original writer: every cell through format_value, one row at a time."""
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
    lines.append(",".join(names))
    for i in range(len(arrays[0])):
        lines.append(",".join(format_value(a[i]) for a in arrays))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def mixed_columns(n_rows, seed=5):
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, *NANS, np.inf, -np.inf, 5e-324, -5e-324, 0.1, 1.0 / 3.0])
    # Specials spread over a column with many repeats and some distinct values.
    f64 = np.where(rng.random(n_rows) < 0.5,
                   specials[rng.integers(0, len(specials), n_rows)],
                   rng.normal(scale=1e-9, size=n_rows))
    f32 = rng.normal(size=n_rows).astype(np.float32)
    f32[::7] = -0.0
    i64 = rng.integers(-(2**62), 2**62, n_rows, dtype=np.int64)
    i8 = rng.integers(-128, 128, n_rows, dtype=np.int8)  # repeats, of both signs
    u64 = rng.integers(0, 2**63, n_rows, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    return {
        "f64": f64,
        "f32": f32,
        "i64": i64,
        "i8": i8,
        "u64": u64,
        "flag": rng.random(n_rows) < 0.5,
        "label": np.array(["psi_plus", "psi_minus", "x"])[rng.integers(0, 3, n_rows)],
        "repeat": np.repeat(np.linspace(-1.0, 1.0, 4), -(-n_rows // 4))[:n_rows],
    }


@pytest.mark.parametrize("n_rows", sorted({0, 1, 2, 3, 4, 9, BLOCK - 1, BLOCK, BLOCK + 1,
                                            2 * BLOCK + 3}))
def test_write_csv_matches_per_cell_writer(tmp_path, monkeypatch, n_rows):
    columns = mixed_columns(n_rows)
    write_csv_per_cell(tmp_path / "oracle.csv", columns, METADATA)
    expected = (tmp_path / "oracle.csv").read_bytes()
    write_csv(tmp_path / "default.csv", columns, METADATA)
    assert (tmp_path / "default.csv").read_bytes() == expected
    # Small chunks and blocks put the repeats of every special value (0.0 and
    # -0.0, the NaN payloads, +-inf) in different chunks and blocks; a chunk
    # need not be a whole number of blocks, nor longer than one.
    for chunk, block in [(BLOCK, 3), (7, 3), (5, 5), (2, 4), (1, 1)]:
        monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(csvio, "_BLOCK_ROWS", block)
        write_csv(tmp_path / "small.csv", columns, METADATA)
        assert (tmp_path / "small.csv").read_bytes() == expected, (chunk, block)


@pytest.mark.parametrize("block", [BLOCK, 100])
def test_lockstep_writer_matches_one_file_writes(tmp_path, monkeypatch, block):
    # Two files share the column arrays "axis" and "repeat" (the same
    # objects), one file holds one array twice, and a third file is longer;
    # chunks of one and a half blocks leave a partial block at each chunk's end.
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 3 * block // 2 + 1)
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", block)
    n_rows = 2 * BLOCK + 5
    axis = np.arange(n_rows)
    first, second = mixed_columns(n_rows, seed=1), mixed_columns(n_rows, seed=2)
    second["repeat"] = first["repeat"]
    files = [
        ("a.csv", {"axis": axis, **first}, METADATA),
        ("b.csv", {"axis": axis, **second, "again": second["i64"]}, {"arm": "minus"}),
        ("c.csv", mixed_columns(n_rows + BLOCK + 1, seed=3), {}),
        ("d.csv", {"empty": np.zeros(0)}, {"rows": 0}),
    ]
    write_csvs([(tmp_path / name, columns, meta) for name, columns, meta in files])
    for name, columns, meta in files:
        write_csv(tmp_path / f"alone_{name}", columns, meta)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"alone_{name}").read_bytes()


def test_lockstep_writer_formats_each_distinct_array_once_per_chunk(tmp_path, monkeypatch):
    # Two files share "axis" and "shared", and the second holds "shared" twice:
    # four distinct arrays over three chunks of up to two blocks.
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", 2)
    n_rows = 10
    axis, shared = np.arange(n_rows), np.linspace(-1.0, 1.0, n_rows)
    files = [
        (tmp_path / "a.csv", {"axis": axis, "shared": shared, "own": np.ones(n_rows)}, {}),
        (tmp_path / "b.csv", {"axis": axis, "shared": shared, "again": shared,
                              "own": np.zeros(n_rows)}, {}),
    ]
    calls = []
    chunk_texts = csvio._chunk_texts
    monkeypatch.setattr(csvio, "_chunk_texts",
                        lambda a, suffix: calls.append(len(a)) or chunk_texts(a, suffix))
    write_csvs(files)
    assert sorted(calls) == [2] * 4 + [4] * 8


def test_lockstep_writer_checks_every_file_before_writing(tmp_path):
    good = {"a": [1.0, 2.0]}
    with pytest.raises(ValueError):
        write_csvs([(tmp_path / "good.csv", good, {}),
                    (tmp_path / "ragged.csv", {"a": [1.0, 2.0], "b": [1.0]}, {})])
    assert not (tmp_path / "good.csv").exists()


def test_lockstep_writer_refuses_a_file_without_columns(tmp_path):
    with pytest.raises(ValueError, match="column"):
        write_csvs([(tmp_path / "a.csv", {"x": [1, 2]}, {}), (tmp_path / "b.csv", {}, {"k": 1})])
    assert not (tmp_path / "a.csv").exists()
    assert not (tmp_path / "b.csv").exists()


def test_lockstep_writer_refuses_a_file_named_twice(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.csv").symlink_to(tmp_path / "c.csv")
    for other in ("./c.csv", tmp_path / "c.csv", "sub/../c.csv", "link.csv"):
        with pytest.raises(ValueError, match="named twice"):
            write_csvs([("c.csv", {"x": [0, 1, 2]}, {"k": 1}), (other, {"y": [0.0, 2.0]}, {})])
        assert not (tmp_path / "c.csv").exists()


def test_lockstep_writer_refuses_a_directory_before_writing(tmp_path):
    (tmp_path / "b.csv").mkdir()
    with pytest.raises(ValueError, match="directory"):
        write_csvs([(tmp_path / "a.csv", {"x": [1, 2]}, {}), (tmp_path / "b.csv", {"y": [3]}, {})])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv"]


def test_lockstep_writer_failing_part_way_leaves_every_file_as_it_was(tmp_path, monkeypatch):
    # the second chunk's formatting fails after both files hold a header and a chunk's blocks
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", 2)
    (tmp_path / "a.csv").write_bytes(b"earlier")
    chunk_texts = csvio._chunk_texts

    def failing(a, suffix):
        if len(calls) == 2:
            raise RuntimeError("formatting failed")
        calls.append(len(a))
        return chunk_texts(a, suffix)

    calls = []
    monkeypatch.setattr(csvio, "_chunk_texts", failing)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_csvs([(tmp_path / "a.csv", {"x": np.arange(10)}, {}),
                    (tmp_path / "b.csv", {"y": np.ones(10)}, {})])
    assert calls == [4, 4]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]
    assert (tmp_path / "a.csv").read_bytes() == b"earlier"


def test_writer_memory_is_bounded_by_the_chunk(tmp_path, monkeypatch):
    # All-distinct floats: a text per value held for the whole file would
    # double the peak from two chunks to four.
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", 1 << 13)
    peaks = []
    for n_chunks in (2, 4):
        column = {"x": np.random.default_rng(n_chunks).random(n_chunks << 13)}
        tracemalloc.start()
        try:
            write_csv(tmp_path / f"{n_chunks}.csv", column, {})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_lockstep_writer_files_take_the_mode_open_gives(tmp_path):
    write_csvs([(tmp_path / "a.csv", {"x": [1]}, {})])
    with open(tmp_path / "b.csv", "w"):
        pass
    assert (tmp_path / "a.csv").stat().st_mode == (tmp_path / "b.csv").stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", {"a": [1.0, 2.0], "b": [1.0]}, {})


@pytest.mark.parametrize("column", [np.zeros((2, 2)), np.array([[True], [False]]), 1.0])
def test_write_csv_rejects_columns_that_are_not_1d(tmp_path, column):
    with pytest.raises(ValueError, match="1-d"):
        write_csv(tmp_path / "m.csv", {"a": column}, {})
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("text", ["", "\n\n", "# run.seed = 7\n# note = plain text\n"])
def test_read_csv_needs_a_column_header(tmp_path, text):
    path = tmp_path / "h.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_csv(path)
    assert type(info.value) is ValueError and str(info.value) == f"{path}: no column header found"


metadata_keys = st.from_regex(r"[a-z][a-z0-9_.]{0,15}", fullmatch=True)
metadata_values = st.one_of(
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.from_regex(r"[A-Za-z0-9_.+-]{1,12}", fullmatch=True),
)


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(0, 40),
    data=st.data(),
    metadata=st.dictionaries(metadata_keys, metadata_values, max_size=6),
)
def test_write_read_round_trips_finite_floats(tmp_path_factory, n_rows, data, metadata):
    finite = hnp.arrays(np.float64, n_rows,
                        elements=st.floats(allow_nan=False, allow_infinity=False))
    columns = {"x": data.draw(finite), "y": data.draw(finite)}
    path = tmp_path_factory.mktemp("rt") / "rt.csv"
    write_csv(path, columns, metadata)
    got, meta = read_csv(path)
    for name, values in columns.items():
        # Bit patterns, so -0.0 must come back as -0.0.
        assert np.array_equal(got[name].view(np.uint64), values.view(np.uint64))
    assert meta == {key: format_value(value) for key, value in metadata.items()}
