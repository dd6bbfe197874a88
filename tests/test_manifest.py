import json
import math

import numpy as np
import pytest

from fluxrec.errors import DimensionMismatchError
from fluxrec.manifest import fmt, write_manifest, write_summary, write_table


@pytest.mark.parametrize("value, text", [
    (0.1, "0.1"), (np.float64(0.1), "0.1"), (1e-300, "1e-300"), (np.float32(0.5), "0.5"),
    (math.nan, "nan"), (np.float64(np.nan), "nan"), (math.inf, "inf"), (-np.inf, "-inf"),
    (-0.0, "-0.0"), (np.float64(-0.0), "-0.0"),
    (7, "7"), (np.int64(-3), "-3"), (np.int32(12), "12"),
    (True, "1"), (False, "0"), (np.bool_(True), "1"), (np.bool_(False), "0"),
    ("discrepancy", "discrepancy"), ("1.50", "1.50"),
])
def test_fmt(value, text):
    assert fmt(value) == text


def test_write_table_formats_each_column_as_fmt_does(tmp_path):
    floats = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1.0 / 3.0])
    py_floats = [2.5, -0.0, math.nan, math.inf, 1e300, 0.1 + 0.2]
    ints = np.array([0, -1, 2**40, 3, 4, 5], dtype=np.int64)
    py_ints = [0, 1, -2, 3, 10**12, 5]
    bools = np.array([True, False, True, False, False, True])
    py_bools = [False, True, False, True, True, False]
    words = ["a", "fixed", "x y", "1.0", "", "-"]
    columns = (floats, py_floats, ints, py_ints, bools, py_bools, words)
    path = tmp_path / "t.csv"
    write_table(path, "a,b,c,d,e,f,g", *columns)
    expected = ["a,b,c,d,e,f,g"] + [",".join(fmt(col[i]) for col in columns) for i in range(6)]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    assert expected[3] == "nan,nan,1099511627776,-2,1,0,x y"
    assert expected[4] == "inf,inf,3,3,0,1,1.0"
    assert expected[2] == "-0.0,-0.0,-1,1,0,1,fixed"


def test_write_table_without_rows_writes_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_table(path, "delta,median_error", [], [])
    assert path.read_bytes() == b"delta,median_error\n"


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (3, 3, 0)])
def test_write_table_rejects_unequal_columns_before_writing(tmp_path, lengths):
    path = tmp_path / "t.csv"
    with pytest.raises(DimensionMismatchError, match="unequal lengths"):
        write_table(path, "x", *(np.zeros(n) for n in lengths))
    assert not path.exists()


def test_write_summary(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(path, {"p_hat": 0.25, "rule": "fixed", "n": np.int64(4), "holds": np.bool_(False)})
    assert path.read_text(encoding="utf-8") == "p_hat = 0.25\nrule = fixed\nn = 4\nholds = 0\n"


def test_write_manifest_skips_absent_inputs(tmp_path):
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_text("x")
    out.write_text("y")
    path = tmp_path / "manifest.json"
    write_manifest(path, "spectrum", {"h": 0.1}, [3], [inp, None], [out], started=0.0)
    record = json.loads(path.read_text())
    assert set(record) == {"subcommand", "config", "seeds", "input_digests", "output_digests",
                           "version", "runtime_seconds"}
    assert record["subcommand"] == "spectrum" and record["config"] == {"h": 0.1}
    assert record["seeds"] == [3] and list(record["input_digests"]) == [str(inp)]
    assert list(record["output_digests"]) == [str(out)]
    assert record["runtime_seconds"] > 0.0
    assert not list(tmp_path.glob("*.tmp"))
