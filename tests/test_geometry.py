import gc
import weakref

import numpy as np
import pytest

from fluxrec import fem, geometry, inversion, spectral
from fluxrec.errors import InvalidGeometryError, MalformedFileError, MissingTagError
from fluxrec.geometry import (
    GAMMA_A,
    GAMMA_I,
    boundary_map,
    generate_annulus_mesh,
    load_mesh,
    save_mesh,
    triangle_areas,
    validate_mesh,
)


def test_generation_invariants(coarse_mesh):
    validate_mesh(coarse_mesh)
    assert triangle_areas(coarse_mesh.vertices, coarse_mesh.triangles).min() > 0.0
    assert coarse_mesh.h <= 1.5 * 0.1


def test_loops_tagged_and_disjoint(coarse_mesh):
    inner = boundary_map(coarse_mesh, GAMMA_I)
    outer = boundary_map(coarse_mesh, GAMMA_A)
    assert set(inner.vertex_indices).isdisjoint(outer.vertex_indices)
    r_in = np.linalg.norm(coarse_mesh.vertices[inner.vertex_indices], axis=1)
    r_out = np.linalg.norm(coarse_mesh.vertices[outer.vertex_indices], axis=1)
    np.testing.assert_allclose(r_in, 0.5, rtol=1e-12)
    np.testing.assert_allclose(r_out, 1.0, rtol=1e-12)


def test_edge_count_doubles_when_h_halves():
    n_coarse = len(boundary_map(generate_annulus_mesh(0.5, 1.0, 0.1), GAMMA_I))
    n_fine = len(boundary_map(generate_annulus_mesh(0.5, 1.0, 0.05), GAMMA_I))
    assert 1.8 <= n_fine / n_coarse <= 2.2


def test_invalid_geometry_rejected():
    with pytest.raises(InvalidGeometryError):
        generate_annulus_mesh(1.0, 0.5, 0.1)
    with pytest.raises(InvalidGeometryError):
        generate_annulus_mesh(0.5, 1.0, 0.6)


def test_refine_quadruples_triangles(coarse_mesh, fine_mesh):
    assert fine_mesh.n_triangles == 4 * coarse_mesh.n_triangles
    validate_mesh(fine_mesh)


def test_refine_halves_h(coarse_mesh, fine_mesh):
    assert 0.45 <= fine_mesh.h / coarse_mesh.h <= 0.55


def test_refined_boundary_on_circle(fine_mesh):
    for tag, r in ((GAMMA_I, 0.5), (GAMMA_A, 1.0)):
        idx = boundary_map(fine_mesh, tag).vertex_indices
        radii = np.linalg.norm(fine_mesh.vertices[idx], axis=1)
        np.testing.assert_allclose(radii, r, rtol=1e-12)


def test_boundary_weights_sum_to_perimeter(coarse_mesh):
    for tag in (GAMMA_I, GAMMA_A):
        bmap = boundary_map(coarse_mesh, tag)
        pts = coarse_mesh.vertices[bmap.vertex_indices]
        edges = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        assert abs(bmap.weights.sum() - edges.sum()) <= 1e-12 * edges.sum()


def test_outer_perimeter_near_two_pi():
    mesh = generate_annulus_mesh(0.5, 1.0, 0.05)
    bmap = boundary_map(mesh, GAMMA_A)
    assert abs(bmap.perimeter - 2.0 * np.pi) <= 0.01 * 2.0 * np.pi


def test_weights_invariant_under_cyclic_relabel(coarse_mesh):
    # relabel vertices so a different loop vertex gets the smallest index;
    # the per-vertex weight multiset must not change
    bmap = boundary_map(coarse_mesh, GAMMA_I)
    perm = np.arange(coarse_mesh.n_vertices)
    a, b = bmap.vertex_indices[0], bmap.vertex_indices[len(bmap) // 2]
    perm[[a, b]] = perm[[b, a]]
    inv = np.argsort(perm)
    relabeled = geometry.Mesh(
        coarse_mesh.vertices[inv].copy(),
        perm[coarse_mesh.triangles].copy(),
        perm[coarse_mesh.boundary_edges].copy(),
        coarse_mesh.boundary_tags.copy(),
        coarse_mesh.h,
    )
    bmap2 = boundary_map(relabeled, GAMMA_I)
    assert np.allclose(sorted(bmap.weights), sorted(bmap2.weights))
    assert abs(bmap.perimeter - bmap2.perimeter) < 1e-12


def test_missing_tag_error(coarse_mesh):
    with pytest.raises(MissingTagError):
        boundary_map(coarse_mesh, "NoSuchTag")


def test_save_load_roundtrip(tmp_path, coarse_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(coarse_mesh, path)
    back = load_mesh(path)
    assert (back.vertices == coarse_mesh.vertices).all()
    assert (back.triangles == coarse_mesh.triangles).all()
    assert (back.boundary_edges == coarse_mesh.boundary_edges).all()
    assert (back.boundary_tags == coarse_mesh.boundary_tags).all()
    assert back.h == coarse_mesh.h


def test_load_truncated_file(tmp_path, coarse_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(coarse_mesh, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]))
    with pytest.raises(MalformedFileError) as err:
        load_mesh(path)
    assert err.value.line_number is not None


def test_load_bad_tag(tmp_path, coarse_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(coarse_mesh, path)
    text = path.read_text().replace(GAMMA_A, "GammaX", 1)
    path.write_text(text)
    with pytest.raises(MalformedFileError):
        load_mesh(path)


def test_load_garbage(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("VERTICES 2\n0.0 0.0\nnot a number here\n")
    with pytest.raises(MalformedFileError) as err:
        load_mesh(path)
    assert err.value.line_number == 3


def _derived_data_of_a_dropped_mesh() -> weakref.ref:
    mesh = generate_annulus_mesh(0.5, 1.0, 0.2)
    boundary_map(mesh, GAMMA_I)
    boundary_map(mesh, GAMMA_A)
    fem._norm_matrices(mesh)
    fem._tagged_edges(mesh, GAMMA_I)
    fem._tagged_edges(mesh, GAMMA_A)
    spectral.build_spectral_basis(mesh)
    inversion.build_forward_operator(mesh, fem.ProblemData.from_constants(mesh))
    assert {(fem._tagged_edges.__wrapped__, GAMMA_I),
            (fem._tagged_edges.__wrapped__, GAMMA_A)} <= mesh.memo.keys()
    return weakref.ref(mesh)


def test_derived_data_dies_with_its_mesh():
    # reference counting alone must free the mesh: no memoized value may
    # keep it alive or point back at it
    gc.disable()
    try:
        assert _derived_data_of_a_dropped_mesh()() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("fn, args", [
    (boundary_map, (GAMMA_I,)),
    (fem._norm_matrices, ()),
    (spectral.build_spectral_basis, ()),
    (fem._tagged_edges, (GAMMA_A,)),
])
def test_memo_returns_the_same_object_and_counts(fn, args):
    gc.disable()
    try:
        mesh = generate_annulus_mesh(0.5, 1.0, 0.2)
        before = fn.cache_info()
        first = fn(mesh, *args)
        missed = fn.cache_info()
        assert fn(mesh, *args) is first
        hit = fn.cache_info()
        del mesh, first
        dropped = fn.cache_info()
    finally:
        gc.enable()
    assert (missed.hits, missed.misses, missed.currsize) \
        == (before.hits, before.misses + 1, before.currsize + 1)
    assert (hit.hits, hit.misses, hit.currsize) == (missed.hits + 1, missed.misses, missed.currsize)
    assert dropped.currsize == before.currsize
