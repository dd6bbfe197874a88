"""Property tests of the boundary CSV and config parsers.

Any file text, a mutated valid file or arbitrary text, must give either
a valid object or a FluxRecError with exit code 2, never a raw
exception.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrec import cli
from fluxrec.config import PROBLEM_KEYS, SCHEMAS, parse_config, resolve_field
from fluxrec.errors import FluxRecError
from fluxrec.fem import BoundaryVector
from fluxrec.geometry import GAMMA_A, GAMMA_I, boundary_map, generate_annulus_mesh


@st.composite
def _mutations(draw, lines: list[str], tokens, sep: str) -> str:
    """Delete, duplicate, swap or replace lines, or replace one field of a line."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines.append("")
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "line", "token"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "line":
            lines[i] = draw(st.text(max_size=30))
        else:
            parts = lines[i].split(sep)
            parts[draw(st.integers(0, len(parts) - 1))] = draw(tokens)
            lines[i] = sep.join(parts)
    return "\n".join(lines) + "\n"


_NUMBERS = st.one_of(
    st.sampled_from(["-1", "0", "1", "-0.0", "1e308", "1e-320", "nan", "inf", "-inf", "",
                     " ", "1_0", "0x10", "99999999999999999999999", "9" * 400, "9" * 5000]),
    st.integers(-3, 60).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=5),
)


@pytest.fixture(scope="module")
def small_mesh():
    return generate_annulus_mesh(0.5, 1.0, 0.45)  # 42 vertices


def _read_or_reject(path, text: str, mesh, tag: str) -> None:
    path.write_text(text, encoding="utf-8")
    try:
        q = cli.read_boundary_csv(path, mesh, tag)
    except FluxRecError as exc:
        assert exc.exit_code == 2, repr(exc)
    else:
        assert isinstance(q, BoundaryVector) and q.tag == tag
        assert q.values.shape == (len(boundary_map(mesh, tag)),)
        assert np.isfinite(q.values).all()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tag=st.sampled_from([GAMMA_I, GAMMA_A]))
def test_mutated_boundary_csv_reads_valid_or_exits_2(tmp_path_factory, small_mesh, data, tag):
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    n = len(boundary_map(small_mesh, tag))
    values = np.random.default_rng(n).standard_normal(n)
    cli.write_boundary_csv(path, small_mesh, BoundaryVector(tag, values))
    lines = path.read_text(encoding="utf-8").splitlines()
    _read_or_reject(path, data.draw(_mutations(lines, _NUMBERS, ",")), small_mesh, tag)


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_arbitrary_boundary_csv_text_reads_valid_or_exits_2(tmp_path_factory, small_mesh, text):
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    _read_or_reject(path, text, small_mesh, GAMMA_I)
    _read_or_reject(path, cli.TRACE_CSV_HEADER + "\n" + text, small_mesh, GAMMA_I)


_FULL_CONFIG = """# every rates key, with its default
r_inner = 0.5
r_outer = 1.0
h = 0.1  # mesh size
alpha = 1.0
k = 1.0
f = 0.0
u_a = 0.0
kappa = 0.9
s = 0.5
eps = 0.01
tau_d = 1.5
m0 = 10.0
refine_level = 1
delta_grid = 1e-2, 1e-4, 1e-6
seeds_per_delta = 5
base_seed = 0
flux_seed = 42
rho_rule = fixed
fixed_rho_schedule = 1e-3, 1e-5, 1e-7
"""

_CONFIG_TOKENS = st.one_of(
    _NUMBERS,
    st.sampled_from(sorted(SCHEMAS["rates"]) + ["discrepancy", "fixed", "some/file", "=", "#",
                                                 "1, 2", "3, 2, 1", "1,,", ",", "1e-3, nan"]),
)


def _parse_or_reject(path, text: str, subcommand: str) -> None:
    path.write_text(text, encoding="utf-8")
    schema = SCHEMAS[subcommand]
    try:
        cfg = parse_config(str(path), schema)
    except FluxRecError as exc:
        assert exc.exit_code == 2, repr(exc)
    else:
        assert set(cfg) == set(schema)
        for name, value in cfg.items():
            assert schema[name].check(value) is None, (name, value)
            numbers = value if isinstance(value, tuple) else (value,)
            assert all(np.isfinite(v) for v in numbers if isinstance(v, float)), (name, value)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), subcommand=st.sampled_from(sorted(SCHEMAS)))
def test_mutated_config_parses_valid_or_exits_2(tmp_path_factory, data, subcommand):
    lines = [line for line in _FULL_CONFIG.splitlines()
             if line.startswith("#") or line.split(" ")[0] in SCHEMAS[subcommand]]
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    _parse_or_reject(path, data.draw(_mutations(lines, _CONFIG_TOKENS, " ")), subcommand)


@settings(max_examples=200, deadline=None)
@given(text=st.text(), subcommand=st.sampled_from(sorted(SCHEMAS)))
def test_arbitrary_config_text_parses_valid_or_exits_2(tmp_path_factory, text, subcommand):
    _parse_or_reject(tmp_path_factory.mktemp("cfg") / "run.cfg", text, subcommand)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), subcommand=st.sampled_from(sorted(SCHEMAS)))
def test_any_value_of_a_known_key_parses_valid_or_exits_2(tmp_path_factory, data, subcommand):
    name = data.draw(st.sampled_from(sorted(SCHEMAS[subcommand])))
    text = f"{name} = {data.draw(_CONFIG_TOKENS)}\n"
    _parse_or_reject(tmp_path_factory.mktemp("cfg") / "run.cfg", text, subcommand)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), key=st.sampled_from(["alpha", "k", "f", "u_a"]))
def test_mutated_field_file_resolves_valid_or_exits_2(tmp_path_factory, data, key):
    path = tmp_path_factory.mktemp("field") / "field.txt"
    path.write_text(data.draw(_mutations(["1.5"] * 6, _NUMBERS, " ")), encoding="utf-8")
    try:
        values = resolve_field(str(path), 6, key)
    except FluxRecError as exc:
        assert exc.exit_code == 2, repr(exc)
    else:
        assert values.shape == (6,) and np.isfinite(values).all()
        assert all(PROBLEM_KEYS[key].check(v) is None for v in values.tolist()), values
