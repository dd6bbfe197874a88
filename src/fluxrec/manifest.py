"""Every output file of the CLI in one format: tables, ``key = value`` summaries and the
run manifest.  Tables are formatted a column at a time, by the column's dtype, as ``fmt``."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

import numpy as np

from . import __version__
from .errors import DimensionMismatchError


def fmt(x) -> str:
    """One scalar as written: ints and bools as integers, strings as is, else repr(float(x))."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer, np.bool_)):   # bool is an int
        return str(int(x))
    return repr(float(x))


def _column(values) -> list[str]:
    """fmt of every entry, in one pass per column."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        return list(map(repr, arr.tolist()))
    if arr.dtype.kind in "biu":
        return list(map(str, arr.astype(np.int64).tolist()))
    return list(map(fmt, arr.tolist()))


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table(path, header: str, *columns) -> None:
    """CSV of a header line and one row per entry; every column must have the same length."""
    cells = [_column(c) for c in columns]
    lengths = [len(c) for c in cells]
    if len(set(lengths)) > 1:
        raise DimensionMismatchError(f"columns {header} of unequal lengths {lengths}")
    write_lines(path, [header, *map(",".join, zip(*cells))])


def write_summary(path, values: dict) -> None:
    """One ``key = value`` line per entry, in order."""
    write_lines(path, [f"{key} = {fmt(value)}" for key, value in values.items()])


def write_manifest(path, subcommand: str, config: dict, seeds: list[int], inputs, outputs,
                   started: float) -> None:
    """JSON record of a run: what ran, its inputs (None for an absent optional file) and
    outputs by digest, and its wall time since `started`; written atomically."""
    record = {
        "subcommand": subcommand,
        "config": config,
        "seeds": seeds,
        "input_digests": {str(p): sha256_of(p) for p in inputs if p is not None},
        "output_digests": {str(p): sha256_of(p) for p in outputs},
        "version": __version__,
        "runtime_seconds": time.time() - started,
    }
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".manifest.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
