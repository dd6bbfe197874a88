"""Peak traced memory of the mesh file round trip and of one invert run.

tracemalloc counts Python objects and numpy buffers; each bound sits above what the code
needs and below what a whole-file list of lines, a whole-section tuple of numbers or a
64-column block solve would take.
"""

import tracemalloc

import pytest

from fluxrec import cli, geometry
from fluxrec.spectral import build_spectral_basis, synthesize_flux_with_smoothness

MIB = 2 ** 20


def traced_peak(fn):
    """What fn returns, and the peak of traced memory, in bytes, while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def mesh_11k(tmp_path_factory):
    """mesh-pipeline's mesh: h = 0.035 refined once, 11,160 vertices, and its file."""
    mesh = geometry.refine_uniform(geometry.generate_annulus_mesh(0.5, 1.0, 0.035))
    assert mesh.n_vertices == 11160
    path = tmp_path_factory.mktemp("mesh11k") / "mesh.txt"
    geometry.save_mesh(mesh, path)
    return mesh, path


def test_save_mesh_formats_in_row_blocks(mesh_11k, tmp_path):
    # a whole-section tuple of Python floats took 3.1 MiB
    mesh, _ = mesh_11k
    assert traced_peak(lambda: geometry.save_mesh(mesh, tmp_path / "mesh.txt"))[1] <= 1 * MIB


def test_load_mesh_reads_one_section_at_a_time(mesh_11k):
    # the whole file as one list of line strings took 5.4 MiB
    _, path = mesh_11k
    assert traced_peak(lambda: geometry.load_mesh(path))[1] <= 3.5 * MIB


def test_invert_solves_in_small_blocks(tmp_path):
    # at h = 0.05 (n_i = 126) the 64-column blocks took 3.0 MiB
    mesh = geometry.generate_annulus_mesh(0.5, 1.0, 0.05)
    geometry.save_mesh(mesh, tmp_path / "mesh.txt")
    flux = synthesize_flux_with_smoothness(build_spectral_basis(mesh), 0.5, 0.01, seed=0)
    cli.write_boundary_csv(tmp_path / "flux.csv", mesh, flux)
    assert cli.dispatch(["forward", "--mesh", str(tmp_path / "mesh.txt"),
                         "--flux", str(tmp_path / "flux.csv"),
                         "--out-trace", str(tmp_path / "trace.csv")]) == 0
    argv = ["invert", "--mesh", str(tmp_path / "mesh.txt"),
            "--data-trace", str(tmp_path / "trace.csv"), "--delta", "1e-4",
            "--out", str(tmp_path / "inv")]
    exit_code, peak = traced_peak(lambda: cli.dispatch(argv))
    assert exit_code == 0
    assert peak <= 2.5 * MIB
