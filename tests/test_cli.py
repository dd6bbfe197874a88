import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fluxrec import cli
from fluxrec.config import SCHEMAS, parse_config, resolve_field
from fluxrec.errors import DimensionMismatchError, MalformedFileError, SchemaError, UnknownKeyError
from fluxrec.fem import BoundaryVector
from fluxrec.geometry import GAMMA_A, GAMMA_I, boundary_map, load_mesh
from fluxrec.spectral import build_spectral_basis, synthesize_flux_with_smoothness


def run(argv):
    return cli.dispatch(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """An h = 0.1 mesh, a smooth flux on its GammaI and the forward trace of that flux."""
    d = tmp_path_factory.mktemp("cliwork")
    assert run(["mesh-gen", "--h", "0.1", "--out", str(d / "mesh.txt")]) == 0
    mesh = load_mesh(d / "mesh.txt")
    flux = synthesize_flux_with_smoothness(build_spectral_basis(mesh), 0.5, 0.01, seed=42)
    cli.write_boundary_csv(d / "flux.csv", mesh, flux)
    assert run(["forward", "--mesh", str(d / "mesh.txt"), "--flux", str(d / "flux.csv"),
                "--out-trace", str(d / "trace.csv")]) == 0
    return d


def test_parse_config_defaults(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    cfg = parse_config(str(empty), SCHEMAS["rates"])
    assert cfg["r_inner"] == 0.5
    assert cfg["r_outer"] == 1.0
    assert cfg["alpha"] == 1.0
    assert cfg["k"] == 1.0
    assert cfg["f"] == 0.0
    assert cfg["u_a"] == 0.0
    assert cfg["kappa"] == 0.9
    assert cfg["s"] == 0.5
    assert cfg["eps"] == 0.01
    assert cfg["tau_d"] == 1.5
    assert cfg["m0"] == 10.0


def test_parse_config_domain_guards(tmp_path):
    bad_kappa = tmp_path / "k.cfg"
    bad_kappa.write_text("kappa = 1.5\n")
    with pytest.raises(SchemaError, match="must lie in"):
        parse_config(str(bad_kappa), SCHEMAS["vsc-check"])
    bad_s = tmp_path / "s.cfg"
    bad_s.write_text("s = 0.7\n")
    with pytest.raises(SchemaError, match="must lie in"):
        parse_config(str(bad_s), SCHEMAS["vsc-check"])


@pytest.mark.parametrize("line", ["alpha = inf", "h = inf", "f = nan", "u_a = -inf",
                                  "delta_grid = inf, 1e-3"])
def test_parse_config_rejects_non_finite_numbers(tmp_path, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SchemaError, match="must be finite"):
        parse_config(str(cfg), SCHEMAS["rates"])


def test_parse_config_unknown_key(tmp_path):
    cfg = tmp_path / "u.cfg"
    cfg.write_text("not_a_key = 3\n")
    with pytest.raises(UnknownKeyError):
        parse_config(str(cfg), SCHEMAS["forward"])


def test_parse_config_comments_and_types(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nkappa = 0.8  # trailing\n\ndelta_grid = 1e-2, 1e-3, 1e-4, 1e-5\n")
    values = parse_config(str(cfg), SCHEMAS["rates"])
    assert values["kappa"] == 0.8
    assert values["delta_grid"] == (1e-2, 1e-3, 1e-4, 1e-5)


_READS = {
    "forward": {"alpha", "k", "f", "u_a"},
    "invert": {"alpha", "k", "f", "u_a", "tau_d"},
    "vsc-check": {"alpha", "k", "f", "u_a", "s", "kappa", "eps", "m0"},
    "stability-probe": {"alpha", "k", "kappa"},
}


@pytest.mark.parametrize("subcommand", sorted(_READS))
def test_subcommand_rejects_keys_it_does_not_read(workdir, tmp_path, capsys, subcommand):
    assert set(SCHEMAS[subcommand]) == _READS[subcommand]
    mesh, out = str(workdir / "mesh.txt"), str(tmp_path / "out")
    argv = {
        "forward": ["forward", "--mesh", mesh, "--flux", str(workdir / "flux.csv"),
                    "--out-trace", out],
        "invert": ["invert", "--mesh", mesh, "--data-trace", str(workdir / "trace.csv"),
                   "--delta", "1e-4", "--out", out],
        "vsc-check": ["vsc-check", "--mesh", mesh, "--out", out],
        "stability-probe": ["stability-probe", "--mesh", mesh, "--out", out],
    }[subcommand]
    cfg = tmp_path / "extra.cfg"
    for key in sorted(set(SCHEMAS["rates"]) - _READS[subcommand]):
        cfg.write_text(f"{key} = 3\n")
        assert run([*argv, "--config", str(cfg)]) == 2, key
        assert f"config key '{key}': unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schedule", ["-1, 1e-5, 1e-7, 1e-9", "0, 1e-5, 1e-7, 1e-9",
                                      "1e-3, nan, 1e-7, 1e-9"])
def test_non_positive_rho_schedule_exits_2(tmp_path, capsys, schedule):
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text("delta_grid = 1e-2, 1e-3, 1e-4, 1e-5\nrho_rule = fixed\n"
                   f"fixed_rho_schedule = {schedule}\n")
    assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "config key 'fixed_rho_schedule': entries must be positive and finite" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _bad_mesh_file(path, defect: str):
    """An h = 0.2 mesh file with one unused vertex appended, or one triangle turned clockwise."""
    cli.dispatch(["mesh-gen", "--h", "0.2", "--out", str(path)])
    lines = path.read_text().splitlines()
    n_v = int(lines[0].split()[1])
    if defect == "dangling vertex":
        lines[0] = f"VERTICES {n_v + 1}"
        lines.insert(n_v + 1, "0.0 0.0")
    else:
        a, b, c = lines[n_v + 2].split()
        lines[n_v + 2] = f"{a} {c} {b}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("defect", ["dangling vertex", "clockwise triangle"])
@pytest.mark.parametrize("subcommand", ["spectrum", "forward", "invert"])
def test_invalid_mesh_file_exits_2(tmp_path, capsys, defect, subcommand):
    mesh = tmp_path / "mesh.txt"
    _bad_mesh_file(mesh, defect)
    capsys.readouterr()
    out = str(tmp_path / "out")
    argv = {
        "spectrum": ["spectrum", "--mesh", str(mesh), "--out", out],
        "forward": ["forward", "--mesh", str(mesh), "--flux", "flux.csv", "--out-trace", out],
        "invert": ["invert", "--mesh", str(mesh), "--data-trace", "trace.csv",
                   "--delta", "1e-4", "--out", out],
    }[subcommand]
    assert run(argv) == 2
    err = capsys.readouterr().err
    reason = {"dangling vertex": "vertex 128 lies on no triangle",
              "clockwise triangle": "mesh contains non-positively-oriented triangles"}[defect]
    assert err == f"fluxrec: error: invalid mesh in {mesh}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_huge_coordinate_prints_one_error_line(tmp_path):
    # numpy overflow warnings would reach stderr ahead of the error line
    mesh = tmp_path / "mesh.txt"
    cli.dispatch(["mesh-gen", "--h", "0.2", "--out", str(mesh)])
    lines = mesh.read_text().splitlines()
    lines[int(lines[0].split()[1])] = "1e308 1e308"  # the last vertex
    mesh.write_text("\n".join(lines) + "\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "fluxrec.cli", "spectrum",
                           "--mesh", str(mesh), "--out", str(tmp_path / "spectrum.csv")],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert proc.stderr == (f"fluxrec: error: invalid mesh in {mesh}: "
                           "mesh has non-finite vertex coordinates or edge lengths\n")


def _non_utf8_copy(text: str, path):
    """The text written to path with byte 0xff after the first character of line 2."""
    lines = text.encode().splitlines(keepends=True)
    lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
    path.write_bytes(b"".join(lines))
    return path


@pytest.mark.parametrize("reader", ["mesh", "boundary csv", "config", "field"])
def test_non_utf8_file_is_malformed_at_its_line(workdir, tmp_path, reader):
    mesh = load_mesh(workdir / "mesh.txt")
    source, read = {
        "mesh": ("mesh.txt", load_mesh),
        "boundary csv": ("flux.csv", lambda path: cli.read_boundary_csv(path, mesh, GAMMA_I)),
        "config": ("kappa = 0.8\nalpha = 2.0\n",
                   lambda path: parse_config(str(path), SCHEMAS["forward"])),
        "field": ("1.5\n2.5\n", lambda path: resolve_field(str(path), 2, "alpha")),
    }[reader]
    text = source if "\n" in source else (workdir / source).read_text()
    path = _non_utf8_copy(text, tmp_path / "bad")
    with pytest.raises(MalformedFileError) as err:
        read(path)
    assert (err.value.line_number, err.value.exit_code) == (2, 2)
    assert str(err.value) == f"{path} is not UTF-8 text: cannot decode byte 0xff (line 2)"


def test_non_utf8_mesh_exits_2(workdir, tmp_path, capsys):
    path = _non_utf8_copy((workdir / "mesh.txt").read_text(), tmp_path / "mesh.txt")
    capsys.readouterr()
    assert run(["spectrum", "--mesh", str(path), "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == (f"fluxrec: error: {path} is not UTF-8 text: "
                                       "cannot decode byte 0xff (line 2)\n")


@pytest.mark.parametrize("schedule", ["", "fixed_rho_schedule = 1e-3\n",
                                      "fixed_rho_schedule = 1e-3, 1e-5, 1e-7, 1e-9, 1e-11\n"])
def test_rho_schedule_length_mismatch_exits_2(tmp_path, capsys, schedule):
    # a cross-key error is a schema error like any per-key one
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text("delta_grid = 1e-2, 1e-3, 1e-4, 1e-5\nrho_rule = fixed\n" + schedule)
    assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fluxrec: error: config key 'fixed_rho_schedule': has ")
    assert err.endswith("entries, delta_grid has 4\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["alpha", "k", "f", "u_a"])
def test_rates_rejects_field_file_exits_2(tmp_path, capsys, key):
    # the rate study builds its fields from constants; a path is a schema error
    cfg = tmp_path / "field.cfg"
    cfg.write_text(f"{key} = some/file\n")
    assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key '{key}': cannot parse 'some/file' as float" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_config_malformed(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("kappa 0.8\n")
    with pytest.raises(MalformedFileError):
        parse_config(str(cfg), SCHEMAS["forward"])


@pytest.mark.parametrize("subcommand", ["stability-probe", "vsc-check"])
def test_config_key_set_twice_exits_2(workdir, tmp_path, capsys, subcommand):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("# kappa twice\nkappa = 0.5\n\nkappa = 0.8\n")
    with pytest.raises(MalformedFileError, match=r"key 'kappa' set twice, first at line 2 \(line 4\)"):
        parse_config(str(cfg), SCHEMAS[subcommand])
    capsys.readouterr()
    assert run([subcommand, "--mesh", str(workdir / "mesh.txt"), "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("fluxrec: error: key 'kappa' set twice, first at line 2 "
                                       "(line 4)\n")
    assert not (tmp_path / "out").exists()


def test_resolve_field_file(tmp_path):
    path = tmp_path / "field.txt"
    np.savetxt(path, np.arange(1, 6, dtype=float))
    out = resolve_field(str(path), 5, "alpha")
    np.testing.assert_allclose(out, np.arange(1, 6))
    with pytest.raises(SchemaError):
        resolve_field(str(path), 7, "alpha")
    # alpha must be > 0 in a file as in a constant; f has no domain
    np.savetxt(path, np.arange(5, dtype=float))
    with pytest.raises(SchemaError, match="field file value 0.0 must be > 0"):
        resolve_field(str(path), 5, "alpha")
    np.testing.assert_allclose(resolve_field(str(path), 5, "f"), np.arange(5))


@pytest.mark.parametrize("lines, bad", [(["1.5", "abc", "2.5"], 2), (["1.5", "2.5", "1.5 2.5"], 3),
                                         (["# alpha", "", "1.5", "1.5 2.5  # two"], 4)])
def test_bad_field_file_record_names_its_line(tmp_path, lines, bad):
    # numpy's own text named the wrong row, or suggested `usecols`
    path = tmp_path / "field.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFileError) as err:
        resolve_field(str(path), 3, "alpha")
    assert (err.value.line_number, err.value.exit_code) == (bad, 2)
    message = f"malformed record {lines[bad - 1]!r} in field file for alpha (line {bad})"
    assert str(err.value) == message
    assert not any(word in str(err.value) for word in ("float64", "row", "usecols"))


def test_field_file_skips_blank_lines_and_comments(tmp_path):
    path = tmp_path / "field.txt"
    path.write_text("# alpha on three vertices\n1.5\n\n2.5  # middle\n  \n3.5\n")
    assert resolve_field(str(path), 3, "alpha").tolist() == [1.5, 2.5, 3.5]


@pytest.mark.parametrize("field", [0, 2])
@pytest.mark.parametrize("junk", ["underscore", "non-ascii"])
def test_boundary_csv_rejects_underscores_and_non_ascii_digits_at_their_line(workdir, tmp_path,
                                                                             field, junk):
    # int() and float() read these, the record reader does not: junk exits 2 at its line
    mesh = load_mesh(workdir / "mesh.txt")
    path = tmp_path / "flux.csv"
    n = len(boundary_map(mesh, GAMMA_I))
    cli.write_boundary_csv(path, mesh, BoundaryVector(GAMMA_I, np.ones(n)))
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    digits = parts[0] if field == 0 else "10"  # the record's own index, or the value 10
    parts[field] = ("0_" + digits if junk == "underscore"
                    else "".join(chr(0x660 + int(d)) for d in digits))  # Arabic-Indic digits
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFileError, match="malformed record") as err:
        cli.read_boundary_csv(path, mesh, GAMMA_I)
    assert err.value.line_number == 4


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_file_exits_2(tmp_path):
    assert run(["spectrum", "--mesh", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "out.csv")]) == 2


def test_domain_error_exits_1(tmp_path):
    assert run(["mesh-gen", "--r-inner", "1.0", "--r-outer", "0.5",
                "--h", "0.1", "--out", str(tmp_path / "m.txt")]) == 1


@pytest.mark.parametrize("argv, r_outer, h", [
    (["mesh-gen", "--h", "0.1", "--r-outer", "inf", "--out", "T/m.txt"], "inf", "0.1"),
    (["mesh-gen", "--r-outer", "1e308", "--h", "1e-10", "--out", "T/m.txt"], "1e+308", "1e-10"),
    (["rates", "--config", "T/big.cfg", "--out-dir", "T/rates"], "1e+308", "1e-10"),
])
def test_mesh_size_beyond_float_exits_1(tmp_path, capsys, argv, r_outer, h):
    # 2*pi*r_outer/h_target overflows to inf, which no int() can count
    (tmp_path / "big.cfg").write_text("r_outer = 1e308\nh = 1e-10\n")
    capsys.readouterr()
    assert run([a.replace("T/", f"{tmp_path}/") for a in argv]) == 1
    assert capsys.readouterr().err == ("fluxrec: error: require a finite 2*pi*r_outer/h_target, "
                                       f"got r_outer={r_outer}, h_target={h}\n")
    assert sorted(os.listdir(tmp_path)) == ["big.cfg"]


def _corrupt_boundary_csv(path, mesh, tag, line_number, value):
    cli.write_boundary_csv(path, mesh, BoundaryVector(tag, np.zeros(len(boundary_map(mesh, tag)))))
    lines = path.read_text().splitlines()
    idx, arc, _ = lines[line_number - 1].split(",")
    lines[line_number - 1] = f"{idx},{arc},{value}"
    path.write_text("\n".join(lines) + "\n")


def test_non_finite_data_trace_exits_2(workdir, tmp_path, capsys):
    mesh = load_mesh(workdir / "mesh.txt")
    trace_path = tmp_path / "trace_nan.csv"
    _corrupt_boundary_csv(trace_path, mesh, GAMMA_A, 3, "nan")
    assert run(["invert", "--mesh", str(workdir / "mesh.txt"),
                "--data-trace", str(trace_path), "--delta", "1e-4",
                "--out", str(tmp_path / "inv")]) == 2
    assert "non-finite value 'nan' (line 3)" in capsys.readouterr().err


def test_non_finite_flux_exits_2(workdir, tmp_path, capsys):
    mesh = load_mesh(workdir / "mesh.txt")
    flux_path = tmp_path / "flux_inf.csv"
    _corrupt_boundary_csv(flux_path, mesh, GAMMA_I, 5, "inf")
    assert run(["forward", "--mesh", str(workdir / "mesh.txt"), "--flux", str(flux_path),
                "--out-trace", str(tmp_path / "trace.csv")]) == 2
    assert "non-finite value 'inf' (line 5)" in capsys.readouterr().err


def test_foreign_vertex_index_exits_2(workdir, tmp_path, capsys):
    mesh = load_mesh(workdir / "mesh.txt")
    flux_path = tmp_path / "flux_9999.csv"
    cli.write_boundary_csv(flux_path, mesh, BoundaryVector(
        GAMMA_I, np.zeros(len(boundary_map(mesh, GAMMA_I)))))
    lines = flux_path.read_text().splitlines()
    lines[1:] = ["9999," + line.split(",", 1)[1] for line in lines[1:]]
    flux_path.write_text("\n".join(lines) + "\n")
    assert run(["forward", "--mesh", str(workdir / "mesh.txt"), "--flux", str(flux_path),
                "--out-trace", str(tmp_path / "trace.csv")]) == 2
    assert "vertex_index 9999 where the GammaI loop has vertex" in capsys.readouterr().err


@pytest.mark.parametrize("arc", ["0.5", "nan"])
def test_foreign_arc_coord_exits_2(workdir, tmp_path, capsys, arc):
    mesh = load_mesh(workdir / "mesh.txt")
    flux_path = tmp_path / "flux_arc.csv"
    cli.write_boundary_csv(flux_path, mesh, BoundaryVector(
        GAMMA_I, np.zeros(len(boundary_map(mesh, GAMMA_I)))))
    lines = flux_path.read_text().splitlines()
    idx, _, value = lines[4].split(",")
    lines[4] = f"{idx},{arc},{value}"
    flux_path.write_text("\n".join(lines) + "\n")
    assert run(["forward", "--mesh", str(workdir / "mesh.txt"), "--flux", str(flux_path),
                "--out-trace", str(tmp_path / "trace.csv")]) == 2
    err = capsys.readouterr().err
    assert f"arc_coord {arc} where the GammaI loop has" in err
    assert "(line 5)" in err


def test_arc_coord_within_tolerance_is_accepted(workdir, tmp_path):
    mesh = load_mesh(workdir / "mesh.txt")
    bmap = boundary_map(mesh, GAMMA_I)
    flux_path = tmp_path / "flux_rounded.csv"
    lines = ["vertex_index,arc_coord,value"]
    lines += [f"{i},{arc * (1 + 1e-10):.12g},1.0" for i, arc in zip(bmap.vertex_indices,
                                                                    bmap.arc_coords)]
    flux_path.write_text("\n".join(lines) + "\n")
    assert cli.read_boundary_csv(flux_path, mesh, GAMMA_I).values.tolist() == [1.0] * len(bmap)


@pytest.mark.parametrize("flag, value, message", [
    ("--delta", "nan", "delta must be finite and >= 0, got nan"),
    ("--delta", "inf", "delta must be finite and >= 0, got inf"),
    ("--rho", "nan", "rho must be positive and finite, got nan"),
    ("--rho", "inf", "rho must be positive and finite, got inf"),
])
def test_non_finite_delta_or_rho_exits_1(workdir, tmp_path, capsys, flag, value, message):
    mesh = load_mesh(workdir / "mesh.txt")
    trace_path = tmp_path / "trace.csv"
    cli.write_boundary_csv(trace_path, mesh, BoundaryVector(
        GAMMA_A, np.ones(len(boundary_map(mesh, GAMMA_A)))))
    argv = ["invert", "--mesh", str(workdir / "mesh.txt"), "--data-trace", str(trace_path),
            "--delta", "1e-4", "--out", str(tmp_path / "inv"), flag, value]
    assert run(argv) == 1
    assert f"fluxrec: error: {message}" in capsys.readouterr().err


def _warnings_as_errors_run(argv) -> int:
    # a numpy RuntimeWarning raises here, instead of reaching stderr ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(argv)


@pytest.mark.parametrize("flags, message", [
    (["--delta", "1e160"], "the squared norm of the data overflows float64"),
    (["--delta", "1e160", "--rho", "1"], "the squared norm of the data overflows float64"),
    (["--delta", "1e150", "--rho", "1e-300"],
     "the Tikhonov solution or its residual overflows float64"),
    (["--delta", "1.7e308"], "data trace u_delta has non-finite values"),
], ids=["discrepancy", "fixed-rho", "solution-norm", "noise"])
def test_invert_overflow_exits_1_before_any_output(workdir, tmp_path, capsys, flags, message):
    # an inf norm once left invert_result.csv with exit 0, or was read as an under-resolved mesh
    capsys.readouterr()
    assert _warnings_as_errors_run(["invert", "--mesh", str(workdir / "mesh.txt"),
                                    "--data-trace", str(workdir / "trace.csv"), *flags,
                                    "--out", str(tmp_path / "inv")]) == 1
    assert capsys.readouterr().err == f"fluxrec: error: {message}\n"
    assert not (tmp_path / "inv").exists()


@pytest.mark.parametrize("key", ["alpha", "k"])
@pytest.mark.parametrize("subcommand", ["forward", "invert", "vsc-check", "stability-probe",
                                        "rates"])
def test_an_overflowing_coefficient_prints_one_error_line(workdir, tmp_path, capsys, subcommand,
                                                          key):
    # numpy once warned of the overflow, and splu then called the inf system singular
    (tmp_path / "big.cfg").write_text(f"{key} = 1e308\n")
    mesh, out = str(workdir / "mesh.txt"), str(tmp_path / "out")
    argv = {"forward": ["forward", "--mesh", mesh, "--flux", str(workdir / "flux.csv"),
                        "--out-trace", out],
            "invert": ["invert", "--mesh", mesh, "--data-trace", str(workdir / "trace.csv"),
                       "--delta", "1e-4", "--out", out],
            "vsc-check": ["vsc-check", "--mesh", mesh, "--out", out],
            "stability-probe": ["stability-probe", "--mesh", mesh, "--out", out],
            "rates": ["rates", "--out-dir", out]}[subcommand]
    capsys.readouterr()
    assert _warnings_as_errors_run([*argv, "--config", str(tmp_path / "big.cfg")]) == 1
    assert capsys.readouterr().err == "fluxrec: error: the assembled system overflows float64\n"
    assert sorted(os.listdir(tmp_path)) == ["big.cfg"]


@pytest.mark.parametrize("subcommand", ["mesh-gen", "rates"])
def test_refining_a_tiny_inner_radius_prints_one_error_line(tmp_path, capsys, subcommand):
    # the refined midpoint's radius underflows to 0, and 0/0 is the NaN validate_mesh rejects
    (tmp_path / "tiny.cfg").write_text("r_inner = 1e-200\nh = 0.5\n")
    argv = {"mesh-gen": ["mesh-gen", "--r-inner", "1e-200", "--h", "0.5", "--refine", "1",
                         "--out", str(tmp_path / "m.txt")],
            "rates": ["rates", "--config", str(tmp_path / "tiny.cfg"),
                      "--out-dir", str(tmp_path / "out")]}[subcommand]
    capsys.readouterr()
    assert _warnings_as_errors_run(argv) == 1
    assert capsys.readouterr().err == ("fluxrec: error: mesh has non-finite vertex coordinates "
                                       "or edge lengths\n")
    assert sorted(os.listdir(tmp_path)) == ["tiny.cfg"]


@pytest.mark.parametrize("subcommand", ["spectrum", "rates"])
def test_an_overflowing_loop_operator_prints_one_error_line(tmp_path, capsys, subcommand):
    # the mesh is valid, but the loop operator's entries, about 1/r^2, pass float64; LAPACK
    # once met them as infs, after numpy had warned of the overflow
    (tmp_path / "tiny.cfg").write_text("r_inner = 1e-155\nr_outer = 2e-155\nh = 2.5e-156\n")
    if subcommand == "spectrum":
        assert _warnings_as_errors_run(["mesh-gen", "--r-inner", "1e-155", "--r-outer", "2e-155",
                                        "--h", "2.5e-156", "--out", str(tmp_path / "m.txt")]) == 0
        argv = ["spectrum", "--mesh", str(tmp_path / "m.txt"), "--out", str(tmp_path / "s.csv")]
        left = ["m.txt", "m.txt.manifest.json", "tiny.cfg"]
    else:
        argv = ["rates", "--config", str(tmp_path / "tiny.cfg"), "--out-dir", str(tmp_path / "out")]
        left = ["tiny.cfg"]
    capsys.readouterr()
    assert _warnings_as_errors_run(argv) == 1
    assert capsys.readouterr().err == ("fluxrec: error: the loop operator on GammaI overflows "
                                       "float64\n")
    assert sorted(os.listdir(tmp_path)) == left


@pytest.mark.parametrize("argv, message", [
    (["vsc-check", "--kappa", "2.5"], "argument --kappa: must lie in (0, 1), got 2.5"),
    (["vsc-check", "--s", "0.75"], "argument --s: must lie in (0, 1/2], got 0.75"),
    (["vsc-check", "--s", "nan"], "argument --s: must lie in (0, 1/2], got nan"),
    (["stability-probe", "--kappa", "0"], "argument --kappa: must lie in (0, 1), got 0.0"),
], ids=["vsc-kappa", "vsc-s", "vsc-s-nan", "stability-kappa"])
def test_out_of_domain_flag_exits_2(workdir, tmp_path, capsys, argv, message):
    # the flags share the domain of the config keys they override
    assert run([*argv, "--mesh", str(workdir / "mesh.txt"), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["vsc-check", "stability-probe"])
def test_non_positive_n_samples_exits_2(workdir, tmp_path, capsys, subcommand):
    assert run([subcommand, "--mesh", str(workdir / "mesh.txt"), "--n-samples", "-5",
                "--out", str(tmp_path / "out")]) == 2
    assert "must be a positive integer, got -5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["invert", "vsc-check", "stability-probe"])
def test_negative_seed_exits_2(workdir, tmp_path, capsys, subcommand):
    # rejected by the parser, before the mesh, the basis or K is built
    argv = [subcommand, "--mesh", str(workdir / "mesh.txt"), "--seed", "-1",
            "--out", str(tmp_path / "out")]
    if subcommand == "invert":
        argv += ["--data-trace", str(workdir / "trace.csv"), "--delta", "1e-4"]
    assert run(argv) == 2
    assert "argument --seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["1e-2, 1e-3, 0", "1e-2, 1e-3, -1e-4"])
def test_non_positive_delta_grid_exits_2(tmp_path, capsys, grid):
    # checked at parse time, before the fine solve, K and every earlier row
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"delta_grid = {grid}\n")
    assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "config key 'delta_grid': entries must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["2, 1e-2, 1e-3, 1e-4", "1, 1e-2, 1e-3"])
def test_delta_grid_at_or_above_1_exits_2(tmp_path, capsys, grid):
    # the rate model log(log(1/delta)) is undefined there; rejected before any solve
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"delta_grid = {grid}\n")
    assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "fluxrec: error: config key 'delta_grid': entries must be below 1\n"
    assert not (tmp_path / "out").exists()


def test_infinite_delta_grid_entry_is_reported_as_not_finite(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("delta_grid = inf, 1e-2\n")
    with pytest.raises(SchemaError, match="'delta_grid': must be finite"):
        parse_config(str(cfg), SCHEMAS["rates"])


def test_one_parser_serves_every_dispatch(tmp_path, capsys):
    # the parser is built once per process; each dispatch must behave as with a fresh one
    def fresh(argv):
        try:
            cli.build_parser.__wrapped__().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0), capsys.readouterr()

    assert cli.build_parser() is cli.build_parser()
    usage_error = ["spectrum", "--mesh", "m.txt", "--out", "o.csv", "--bogus"]
    expected = fresh(usage_error)
    assert expected[0] == 2 and "unrecognized arguments: --bogus" in expected[1].err
    assert (run(usage_error), capsys.readouterr()) == expected
    mesh = tmp_path / "m.txt"
    assert run(["mesh-gen", "--h", "0.3", "--out", str(mesh)]) == 0
    assert load_mesh(mesh).n_vertices > 0
    capsys.readouterr()
    for argv in (["--version"], usage_error, ["rates"]):
        expected = fresh(argv)
        assert (run(argv), capsys.readouterr()) == expected


@pytest.mark.parametrize("line", ["base_seed = -5", "flux_seed = -1"])
def test_negative_rates_seed_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(line + "\n")
    assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    key = line.split(" = ")[0]
    assert f"config key '{key}': must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_refine_exits_2(tmp_path, capsys):
    out = tmp_path / "mesh.txt"
    assert run(["mesh-gen", "--h", "0.2", "--refine", "-1", "--out", str(out)]) == 2
    assert "argument --refine: must be a non-negative integer, got -1" \
        in capsys.readouterr().err
    assert not out.exists()


def test_forward_and_invert_pipeline(workdir):
    mesh = load_mesh(workdir / "mesh.txt")
    flux = cli.read_boundary_csv(workdir / "flux.csv", mesh, GAMMA_I)
    back = cli.read_boundary_csv(workdir / "trace.csv", mesh, "GammaA")
    assert np.isfinite(back.values).all()

    assert run(["invert", "--mesh", str(workdir / "mesh.txt"),
                "--data-trace", str(workdir / "trace.csv"),
                "--delta", "1e-4", "--seed", "3",
                "--out", str(workdir / "inv")]) == 0
    assert (workdir / "inv" / "invert_result.csv").exists()
    rec = cli.read_boundary_csv(workdir / "inv" / "flux_rec.csv", mesh, GAMMA_I)
    # low-noise inversion tracks the true flux reasonably well
    rel = np.linalg.norm(rec.values - flux.values) / np.linalg.norm(flux.values)
    assert rel <= 0.5


def test_forward_with_field_file_config(workdir, tmp_path):
    mesh = load_mesh(workdir / "mesh.txt")
    alpha_path = tmp_path / "alpha.txt"
    np.savetxt(alpha_path, np.full(mesh.n_vertices, 2.0))
    cfg = tmp_path / "fw.cfg"
    cfg.write_text(f"alpha = {alpha_path}\nu_a = 1.5\n")
    out = tmp_path / "trace_alpha.csv"
    assert run(["forward", "--mesh", str(workdir / "mesh.txt"),
                "--config", str(cfg), "--flux", str(workdir / "flux.csv"),
                "--out-trace", str(out)]) == 0
    assert out.exists()
    # wrong length field file is a schema error -> exit 2
    short = tmp_path / "short.txt"
    np.savetxt(short, np.ones(3))
    cfg.write_text(f"alpha = {short}\n")
    assert run(["forward", "--mesh", str(workdir / "mesh.txt"),
                "--config", str(cfg), "--flux", str(workdir / "flux.csv"),
                "--out-trace", str(out)]) == 2


@pytest.mark.parametrize("key, value, message", [
    ("alpha", np.inf, "field file values must be finite"),
    ("alpha", -1.0, "field file value -1.0 must be > 0"),
    ("k", 0.0, "field file value 0.0 must be > 0"),
    ("f", np.nan, "field file values must be finite"),
    ("u_a", -np.inf, "field file values must be finite"),
])
def test_field_file_outside_its_domain_exits_2(workdir, tmp_path, capsys, key, value, message):
    # a field file gets its key's domain, as a constant does
    mesh = load_mesh(workdir / "mesh.txt")
    n = mesh.n_vertices if key in ("alpha", "f") else len(boundary_map(mesh, GAMMA_A))
    values = np.ones(n)
    values[n // 2] = value
    field = tmp_path / "field.txt"
    np.savetxt(field, values)
    cfg = tmp_path / "fw.cfg"
    cfg.write_text(f"{key} = {field}\n")
    assert run(["forward", "--mesh", str(workdir / "mesh.txt"), "--config", str(cfg),
                "--flux", str(workdir / "flux.csv"), "--out-trace", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"fluxrec: error: config key '{key}': {message}\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("content, message", [
    ("inf", "field file values must be finite"),
    ("empty", "field file has 0 values, expected {n}"),
])
def test_bad_field_file_prints_one_error_line(workdir, tmp_path, content, message):
    # numpy warnings would reach stderr ahead of the error line
    n = load_mesh(workdir / "mesh.txt").n_vertices
    field = tmp_path / "alpha.txt"
    field.write_text("inf\n" * n if content == "inf" else "")
    cfg = tmp_path / "fw.cfg"
    cfg.write_text(f"alpha = {field}\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "fluxrec.cli", "forward",
                           "--mesh", str(workdir / "mesh.txt"), "--config", str(cfg),
                           "--flux", str(workdir / "flux.csv"),
                           "--out-trace", str(tmp_path / "t.csv")],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 2
    assert proc.stderr == f"fluxrec: error: config key 'alpha': {message.format(n=n)}\n"


def test_spectrum_output(workdir):
    out = workdir / "spectrum.csv"
    assert run(["spectrum", "--mesh", str(workdir / "mesh.txt"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lambda"
    first = float(lines[1].split(",")[1])
    assert first == 1.0


def test_manifest_contents(workdir, tmp_path):
    assert run(["invert", "--mesh", str(workdir / "mesh.txt"),
                "--data-trace", str(workdir / "trace.csv"),
                "--delta", "1e-4", "--seed", "3", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "invert"
    assert manifest["seeds"] == [3]
    assert manifest["version"]
    assert any(p.endswith("mesh.txt") for p in manifest["input_digests"])
    assert any(p.endswith("invert_result.csv") for p in manifest["output_digests"])
    assert manifest["runtime_seconds"] >= 0.0


def _defaults(subcommand: str) -> dict:
    return {name: key.default for name, key in SCHEMAS[subcommand].items()}


# subcommand -> (argv after the name, manifest path, config, seeds, input and output files);
# W is the workdir, T the test's tmp_path and C a config file the case writes there
_MANIFEST_CASES = {
    "mesh-gen": (["--h", "0.2", "--refine", "1", "--out", "T/m.txt"], "T/m.txt.manifest.json",
                 {"r_inner": 0.5, "r_outer": 1.0, "h": 0.2, "refine": 1}, [],
                 [], ["T/m.txt"]),
    "spectrum": (["--mesh", "W/mesh.txt", "--out", "T/s.csv"], "T/s.csv.manifest.json",
                 {}, [], ["W/mesh.txt"], ["T/s.csv"]),
    "forward": (["--mesh", "W/mesh.txt", "--config", "C", "--flux", "W/flux.csv",
                 "--out-trace", "T/u.csv"], "T/u.csv.manifest.json",
                {**_defaults("forward"), "alpha": 2.0}, [],
                ["W/mesh.txt", "W/flux.csv", "C"], ["T/u.csv"]),
    "invert": (["--mesh", "W/mesh.txt", "--data-trace", "W/trace.csv", "--delta", "1e-4",
                "--rho", "1e-6", "--seed", "3", "--out", "T/inv"], "T/inv/manifest.json",
               {**_defaults("invert"), "delta": 1e-4, "rho_flag": 1e-6}, [3],
               ["W/mesh.txt", "W/trace.csv"], ["T/inv/invert_result.csv", "T/inv/flux_rec.csv"]),
    "vsc-check": (["--mesh", "W/mesh.txt", "--config", "C", "--s", "0.25", "--kappa", "0.7",
                   "--n-samples", "20", "--seed", "1", "--out", "T/vsc"], "T/vsc/manifest.json",
                  {**_defaults("vsc-check"), "eps": 0.02, "s": 0.25, "kappa": 0.7,
                   "n_samples": 20}, [1],
                  ["W/mesh.txt", "C"], ["T/vsc/vsc_report.csv", "T/vsc/summary.txt"]),
    "stability-probe": (["--mesh", "W/mesh.txt", "--kappa", "0.8", "--n-samples", "30",
                         "--seed", "2", "--out", "T/stab"], "T/stab/manifest.json",
                        {**_defaults("stability-probe"), "kappa": 0.8, "n_samples": 30}, [2],
                        ["W/mesh.txt"], ["T/stab/stability_report.csv", "T/stab/summary.txt"]),
    "rates": (["--config", "C", "--out-dir", "T/rates"], "T/rates/manifest.json",
              {**_defaults("rates"), "delta_grid": [1e-2, 1e-3, 1e-4, 1e-5],
               "seeds_per_delta": 1}, [0, 1000, 2000, 3000], ["C"],
              ["T/rates/rates.csv", "T/rates/rates_plotdata.csv", "T/rates/summary.txt"]),
}
_CONFIG_TEXT = {"forward": "alpha = 2.0\n", "vsc-check": "kappa = 0.5\neps = 0.02\n",
                "rates": "delta_grid = 1e-2, 1e-3, 1e-4, 1e-5\nseeds_per_delta = 1\n"}


@pytest.mark.parametrize("subcommand", sorted(_MANIFEST_CASES))
def test_every_subcommand_writes_its_manifest(workdir, tmp_path, subcommand):
    argv, where, config, seeds, inputs, outputs = _MANIFEST_CASES[subcommand]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_CONFIG_TEXT.get(subcommand, ""))

    def path(p):
        if p == "C":
            return str(cfg)
        root = {"W/": workdir, "T/": tmp_path}.get(p[:2])
        return p if root is None else str(root / p[2:])

    assert run([subcommand, *map(path, argv)]) == 0
    manifest = json.loads(open(path(where), encoding="utf-8").read())
    assert manifest["subcommand"] == subcommand
    # the config as JSON writes it: a tuple default reads back as a list
    assert manifest["config"] == json.loads(json.dumps(config))
    assert manifest["seeds"] == seeds
    assert set(manifest["input_digests"]) == set(map(path, inputs))
    assert set(manifest["output_digests"]) == set(map(path, outputs))


def test_reruns_are_byte_identical(workdir):
    out1, out2 = workdir / "r1", workdir / "r2"
    cfg = workdir / "rates.cfg"
    cfg.write_text("delta_grid = 1e-2, 1e-3, 1e-4, 1e-5\nseeds_per_delta = 2\n")
    assert run(["rates", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    assert run(["rates", "--config", str(cfg), "--out-dir", str(out2)]) == 0
    for name in ("rates.csv", "rates_plotdata.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert sorted(m1["output_digests"].values()) == sorted(m2["output_digests"].values())


def test_outputs_stay_inside_out_dir(workdir, tmp_path):
    before = set(os.listdir(tmp_path))
    out = tmp_path / "only_here"
    cfg = tmp_path / "r.cfg"
    cfg.write_text("delta_grid = 1e-2, 1e-3, 1e-4, 1e-5\nseeds_per_delta = 1\n")
    assert run(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here", "r.cfg"}
    assert set(os.listdir(out)) == {"rates.csv", "rates_plotdata.csv",
                                    "summary.txt", "manifest.json"}


def test_invert_with_fixed_rho(workdir, tmp_path):
    out = tmp_path / "inv_fixed"
    assert run(["invert", "--mesh", str(workdir / "mesh.txt"),
                "--data-trace", str(workdir / "trace.csv"),
                "--delta", "0", "--rho", "1e-6",
                "--out", str(out)]) == 0
    line = (out / "invert_result.csv").read_text().splitlines()[1]
    assert float(line.split(",")[0]) == 1e-6


def test_rates_default_config(tmp_path):
    out = tmp_path / "rates_default"
    assert run(["rates", "--out-dir", str(out)]) == 0
    for name in ("rates.csv", "rates_plotdata.csv", "summary.txt"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert "p_hat" in summary and "rho_rule = discrepancy" in summary


def test_vsc_and_stability_subcommands(workdir):
    assert run(["vsc-check", "--mesh", str(workdir / "mesh.txt"),
                "--n-samples", "40", "--seed", "1",
                "--out", str(workdir / "vsc")]) == 0
    report = (workdir / "vsc" / "vsc_report.csv").read_text().splitlines()
    assert report[0] == "sample_id,lhs,rhs,margin"
    assert len(report) == 41

    assert run(["stability-probe", "--mesh", str(workdir / "mesh.txt"),
                "--n-samples", "60", "--seed", "1",
                "--out", str(workdir / "stab")]) == 0
    lines = (workdir / "stab" / "stability_report.csv").read_text().splitlines()
    assert lines[0] == "sample_id,trace_norm,h1_norm,m_proxy,bound,slack"
    summary = (workdir / "stab" / "summary.txt").read_text()
    assert "C_fit" in summary and "max_violation" in summary


def test_vsc_check_small_s_fits(workdir, tmp_path):
    # at small s the curve's end D* = ||qd||^2 sits just under k, so (D*/k)^(1/p) stays finite
    for s in ("0.01", "1e-6"):
        out = tmp_path / s
        assert run(["vsc-check", "--mesh", str(workdir / "mesh.txt"), "--n-samples", "200",
                    "--seed", "0", "--s", s, "--out", str(out)]) == 0
        summary = dict(line.split(" = ")
                       for line in (out / "summary.txt").read_text().splitlines())
        assert 0.0 < float(summary["C"]) < math.inf
        assert float(summary["fraction_nonnegative"]) == 1.0


def test_vsc_check_holds_on_a_thin_inner_circle(tmp_path):
    # the fitted C covers the worst deficit on any annulus, so the holdout holds on a thin
    # inner circle too
    mesh, out = tmp_path / "mesh.txt", tmp_path / "vsc"
    assert run(["mesh-gen", "--r-inner", "0.1", "--r-outer", "1.0", "--h", "0.1",
                "--out", str(mesh)]) == 0
    assert run(["vsc-check", "--mesh", str(mesh), "--n-samples", "200", "--seed", "0",
                "--out", str(out)]) == 0
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    assert float(summary["fraction_nonnegative"]) == 1.0
    assert summary["holds_empirically"] == "1"


def test_vsc_check_unrepresentable_c_exits_1(workdir, tmp_path, capsys):
    # at s = 1e-300, 1/p = (1 + 2s) / (4s) is so large that (D/k)^(1/p) leaves float64
    # for any rounding of D/k other than exactly 1
    assert run(["vsc-check", "--mesh", str(workdir / "mesh.txt"), "--n-samples", "200",
                "--seed", "0", "--s", "1e-300", "--out", str(tmp_path / "vsc")]) == 1
    err = capsys.readouterr().err
    assert "at s=1e-300" in err and "not representable" in err
    assert "positive deficit" not in err


@pytest.mark.parametrize("seed", ["0", "1"])
def test_vsc_check_c_set_by_rounding_exits_1(workdir, tmp_path, capsys, seed):
    # at s = 1e-15, 1/p = (1 + 2s) / (4s) turns the 1e-14 rounding of D/k into the C it fits:
    # C/s read 15.8 at seed 0 and 0.149 at seed 1, and both runs exited 0
    assert run(["vsc-check", "--mesh", str(workdir / "mesh.txt"), "--n-samples", "20",
                "--seed", seed, "--s", "1e-15", "--out", str(tmp_path / "vsc")]) == 1
    err = capsys.readouterr().err
    assert "at s=1e-15" in err and "not representable" in err


@pytest.mark.parametrize("n_values", [5, 70])
def test_write_boundary_csv_rejects_a_vector_of_the_wrong_length(workdir, tmp_path, n_values):
    # the h = 0.1 mesh has 63 GammaI vertices; neither a short nor a long vector is cut to fit
    mesh = load_mesh(workdir / "mesh.txt")
    assert len(boundary_map(mesh, GAMMA_I)) == 63
    path = tmp_path / "flux.csv"
    with pytest.raises(DimensionMismatchError, match=rf"\b63\b.*\b{n_values}\b"):
        cli.write_boundary_csv(path, mesh, BoundaryVector(GAMMA_I, np.ones(n_values)))
    assert not path.exists()
