"""CSV output with '#' metadata headers.

Every file this package writes is self-describing: the header carries the
fully resolved parameters that produced the data, one ``# key = value`` line
each.  Floats are written with repr so identical runs produce identical
bytes.  Rows are formatted in fixed chunks, column by column: an int or
float column once per distinct value (bit pattern) in the chunk, wherever in
it the value repeats, other columns cell by cell.  The chunk's rows are then
written in fixed blocks gathered from those texts.  So the writer holds one
text per distinct value of one chunk, never the text of a whole file, and
the bytes depend on neither the chunk nor the block size.  ``write_csvs``
writes several files chunk by chunk in lockstep: a column array that more
than one of them holds is formatted once per chunk for all of them; each
file's bytes are those it gets written alone.
A failed write leaves every file as it was: each is moved onto its name once all are written.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

_CHUNK_ROWS = 1 << 17  # rows whose distinct numbers are formatted once
_BLOCK_ROWS = 2048  # rows joined into one write


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an int or float column and each cell's index into them.

    Values are told apart by their 64-bit patterns, so -0.0 stays apart from
    0.0.  This is np.unique's return_inverse less its intp temporaries (on an
    83,640-row plate surface, 4 ms and 1.4 MiB of peak less): the index takes
    the smallest unsigned dtype that holds it.
    """
    wide = a.astype({"f": np.float64, "i": np.int64, "u": np.uint64}[a.dtype.kind], copy=False)
    bits = wide.view(np.uint64)
    order = bits.argsort()
    bits = bits[order]
    new = bits[1:] != bits[:-1]  # a sorted cell that starts a new pattern
    unique = np.concatenate([bits[:1], bits[1:][new]])
    inverse = np.zeros(len(bits), np.min_scalar_type(len(unique) - 1))
    inverse[order[1:]] = np.cumsum(new, dtype=inverse.dtype)
    return unique.view(wide.dtype), inverse


def _chunk_texts(a: np.ndarray, suffix: str) -> tuple[np.ndarray, np.ndarray]:
    """format_value + suffix of a 1-d column chunk: texts, and each cell's index into them.

    An int or float column has one text per distinct value, any other column
    one per cell.
    """
    if a.dtype.kind in "fiu":
        # The Python ints and floats of tolist: repr gives format_value's text, only faster.
        values, index = _distinct(a)
        texts = [f"{v!r}{suffix}" for v in values.tolist()]
    else:
        texts, index = [f"{format_value(v)}{suffix}" for v in a.tolist()], np.arange(len(a))
    return np.array(texts, dtype=object), index


def write_csv(
    path: str | os.PathLike,
    columns: Mapping[str, Sequence],
    metadata: Mapping[str, object],
) -> None:
    write_csvs([(path, columns, metadata)])


def write_csvs(
    files: Iterable[tuple[str | os.PathLike, Mapping[str, Sequence], Mapping[str, object]]],
) -> None:
    """Write each (path, columns, metadata) to its CSV, all files chunk by chunk in lockstep.

    A column array that several files hold (the same object) is formatted
    once per chunk for all of them (twice where it ends the rows of one file
    and not of another: a cell's text carries its separator).  Each file's
    bytes are those of ``write_csv`` of that file alone.  A bad table, or a
    path that names a file twice or a directory, raises ValueError before any
    file is opened.
    """
    tables = []
    distinct = {}  # (id of an array, the separator after its cells): the array
    for path, columns, metadata in files:
        names = list(columns)
        arrays = [np.asarray(columns[name]) for name in names]
        if not arrays or any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
            raise ValueError(f"{path}: a file needs one or more columns, all 1-d and of one length")
        real = os.path.realpath(path)
        if real in (named for named, _, _, _ in tables):
            raise ValueError(f"{path}: this file is named twice")
        if os.path.isdir(real):
            raise ValueError(f"{path}: is an existing directory")
        lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
        lines.append(",".join(names))
        # Each cell's text ends in its separator: "," within a row, a newline after the last.
        keys = [(id(a), ",") for a in arrays[:-1]] + [(id(arrays[-1]), "\n")]
        distinct.update(zip(keys, arrays))
        tables.append((real, "\n".join(lines) + "\n", len(arrays[0]), keys))
    temps = []  # each file is written to a new name beside its own, then moved onto it
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for real, header, _, _ in tables:
                temp = f"{real}.{os.urandom(8).hex()}.tmp"  # "x" makes it new, with w's mode
                handles.append(stack.enter_context(open(temp, "x", encoding="utf-8", newline="\n")))
                temps.append(temp)
                handles[-1].write(header)
            n_rows = max((rows for _, _, rows, _ in tables), default=0)
            for chunk in range(0, n_rows, _CHUNK_ROWS):
                texts = {key: _chunk_texts(a[chunk:chunk + _CHUNK_ROWS], key[1])
                         for key, a in distinct.items() if chunk < len(a)}
                for start in range(chunk, min(n_rows, chunk + _CHUNK_ROWS), _BLOCK_ROWS):
                    block = slice(start - chunk, start - chunk + _BLOCK_ROWS)  # cut at the chunk's end
                    for fh, (_, _, rows, keys) in zip(handles, tables):
                        if start < rows:
                            cells = [text[index[block]] for text, index in map(texts.get, keys)]
                            fh.write("".join(np.stack(cells, axis=1).ravel().tolist()))
                del texts  # free this chunk's texts before the next chunk's are built
        for real, _, _, _ in tables:
            os.replace(temps[0], real)
            del temps[0]
    finally:
        for temp in temps:  # each one not moved onto its name
            os.unlink(temp)


def read_csv(path: str | os.PathLike) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Parse a file written by write_csv back into columns and metadata."""
    metadata: dict[str, str] = {}
    rows: list[list[str]] = []
    names: list[str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if names is None:
                names = line.split(",")
            else:
                rows.append(line.split(","))
    if names is None:
        raise ValueError(f"{path}: no column header found")
    data = {}
    for j, name in enumerate(names):
        col = [r[j] for r in rows]
        try:
            data[name] = np.array([float(x) for x in col])
        except ValueError:
            data[name] = np.array(col)
    return data, metadata
