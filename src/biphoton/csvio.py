"""CSV output with '#' metadata headers.

Every file this package writes is self-describing: the header carries the
fully resolved parameters that produced the data, one ``# key = value`` line
each.  Floats are written with repr so identical runs produce identical
bytes.  Rows are written in fixed blocks, each formatted column by column
(float cells once per distinct bit pattern in the block, integer cells by
``str`` of their Python ints), so neither the cell texts nor the rows of a
whole file are ever held at once; the bytes do not depend on the block size.
``write_csvs`` writes several files block by block in lockstep: a column
array that more than one of them holds is formatted once per block, and its
block's text is shared; each file's bytes are those it gets written alone.
A failed write leaves every file as it was: each is moved onto its name once all are written.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from typing import Iterable, Mapping, Sequence

import numpy as np

_BLOCK_ROWS = 2048


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _column_text(a: np.ndarray) -> list[str]:
    """format_value of every cell of a 1-d column, computed column-wise."""
    if a.dtype.kind == "f":
        # Keyed on bits, not values, so -0.0 stays apart from 0.0.
        unique, inverse = np.unique(a.astype(np.float64).view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in unique.view(np.float64).tolist()], dtype=object)
        return text[inverse].tolist()
    # Python ints, bools and strs format as their numpy scalars do, only faster.
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    return list(map(format_value, a.tolist()))


def write_csv(
    path: str | os.PathLike,
    columns: Mapping[str, Sequence],
    metadata: Mapping[str, object],
) -> None:
    write_csvs([(path, columns, metadata)])


def write_csvs(
    files: Iterable[tuple[str | os.PathLike, Mapping[str, Sequence], Mapping[str, object]]],
) -> None:
    """Write each (path, columns, metadata) to its CSV, all files block by block in lockstep.

    A column array that several files hold (the same object) is formatted
    once per block for all of them.  Each file's bytes are those of
    ``write_csv`` of that file alone.  A bad table, or a path that names a
    file twice or a directory, raises ValueError before any file is opened.
    """
    tables = []
    for path, columns, metadata in files:
        names = list(columns)
        arrays = [np.asarray(columns[name]) for name in names]
        if not arrays or any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
            raise ValueError(f"{path}: a file needs one or more columns, all 1-d and of one length")
        real = os.path.realpath(path)
        if real in (named for named, _, _ in tables):
            raise ValueError(f"{path}: this file is named twice")
        if os.path.isdir(real):
            raise ValueError(f"{path}: is an existing directory")
        lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
        lines.append(",".join(names))
        tables.append((real, "\n".join(lines) + "\n", arrays))
    distinct = {id(a): a for _, _, arrays in tables for a in arrays}
    temps = []  # each file is written to a new name beside its own, then moved onto it
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for real, header, _ in tables:
                temp = f"{real}.{secrets.token_hex(8)}.tmp"  # "x" makes it new, with w's mode
                handles.append(stack.enter_context(open(temp, "x", encoding="utf-8", newline="\n")))
                temps.append(temp)
                handles[-1].write(header)
            n_rows = max((len(arrays[0]) for _, _, arrays in tables), default=0)
            for start in range(0, n_rows, _BLOCK_ROWS):
                text = {key: _column_text(a[start:start + _BLOCK_ROWS])
                        for key, a in distinct.items() if start < len(a)}
                for fh, (_, _, arrays) in zip(handles, tables):
                    if start < len(arrays[0]):
                        rows = zip(*(text[id(a)] for a in arrays))
                        fh.write("\n".join(map(",".join, rows)) + "\n")
                del text, rows  # free this block's text before the next block's is built
        for real, _, _ in tables:
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
