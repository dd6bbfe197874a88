import gc
import weakref

import numpy as np
import pytest
from conftest import (
    ORACLE_MESHES,
    copying_edge_keys,
    joined_save_mesh,
    loop_annulus_mesh,
    loop_edge_table,
    loop_load_mesh,
    loop_refine_uniform,
    loop_validate_mesh,
    oracle_mesh,
    whole_file_load_mesh,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxrec import fem, geometry, inversion, spectral
from fluxrec.errors import FluxRecError, InvalidGeometryError, MalformedFileError, MissingTagError
from fluxrec.geometry import (
    GAMMA_A,
    GAMMA_I,
    boundary_map,
    generate_annulus_mesh,
    load_mesh,
    refine_uniform,
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


def test_weights_and_arcs_are_built_from_edge_lengths_bitwise(coarse_mesh):
    for tag in (GAMMA_I, GAMMA_A):
        bmap = boundary_map(coarse_mesh, tag)
        pts = coarse_mesh.vertices[bmap.vertex_indices]
        length = bmap.edge_lengths
        # edge j joins map vertices j and j + 1, its length a row of one axis-1 norm
        assert length.tobytes() == np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).tobytes()
        assert bmap.weights.tobytes() == (0.5 * (length + np.roll(length, 1))).tobytes()
        assert bmap.arc_coords.tobytes() == np.concatenate(([0.0], np.cumsum(length[:-1]))).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            length[0] = 1.0


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


@pytest.mark.parametrize("record", ["garbage here", "duplicate"])
def test_load_rejects_records_after_the_boundary_edges(tmp_path, record):
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.2), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [" ", lines[-1] if record == "duplicate" else record]) + "\n")
    with pytest.raises(MalformedFileError) as err:
        load_mesh(path)
    assert err.value.line_number == len(lines) + 2
    assert err.value.exit_code == 2


def test_load_accepts_trailing_blank_lines(tmp_path, coarse_mesh):
    path = tmp_path / "mesh.txt"
    save_mesh(coarse_mesh, path)
    path.write_text(path.read_text() + "\n   \n\t\n")
    assert load_mesh(path).vertices.tobytes() == coarse_mesh.vertices.tobytes()


@pytest.mark.parametrize("section, record", [("TRIANGLES", "0 1 99999999999999999999999"),
                                             ("BOUNDARY_EDGES", "-1 0 GammaI"),
                                             ("BOUNDARY_EDGES", "0 378 GammaA")])
def test_load_rejects_a_vertex_index_out_of_range(tmp_path, coarse_mesh, section, record):
    path = tmp_path / "mesh.txt"
    save_mesh(coarse_mesh, path)
    lines = path.read_text().splitlines()
    lines[next(i for i, line in enumerate(lines) if line.startswith(section)) + 1] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFileError, match="vertex index out of range"):
        load_mesh(path)


@pytest.mark.parametrize("section, record", [("TRIANGLES", "0 1 99999999999999999999999"),
                                             ("TRIANGLES", "0 1 999"),
                                             ("BOUNDARY_EDGES", "-1 0 GammaI"),
                                             ("BOUNDARY_EDGES", "0 1 GammaX")])
def test_load_reports_the_line_of_the_bad_record(tmp_path, section, record):
    # a record in the middle of its section, not the first or the last
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.3), path)
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(section))
    bad = header + 1 + int(lines[header].split()[1]) // 2
    lines[bad] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFileError) as err:
        load_mesh(path)
    assert err.value.line_number == bad + 1
    assert bad + 1 < len(lines)


def _derived_data_of_a_dropped_mesh() -> weakref.ref:
    mesh = generate_annulus_mesh(0.5, 1.0, 0.2)
    boundary_map(mesh, GAMMA_I)
    boundary_map(mesh, GAMMA_A)
    fem._norm_matrices(mesh)
    spectral.build_spectral_basis(mesh)
    inversion.build_forward_operator(mesh, fem.ProblemData.from_constants(mesh))
    assert {(boundary_map.__wrapped__, GAMMA_I), (boundary_map.__wrapped__, GAMMA_A),
            (fem.flux_load_matrix.__wrapped__,)} <= mesh.memo.keys()
    return weakref.ref(mesh)


def test_each_loop_is_walked_once_per_mesh():
    walks = geometry._walk_loop.cache_info().misses
    mesh = generate_annulus_mesh(0.5, 1.0, 0.2)  # validate_mesh walks both loops
    assert geometry._walk_loop.cache_info().misses == walks + 2
    for tag in (GAMMA_I, GAMMA_A):
        assert set(boundary_map(mesh, tag).vertex_indices.tolist()) \
            == set(geometry._walk_loop.__wrapped__(mesh, tag))
    validate_mesh(mesh)
    refine_uniform(mesh)                        # a new mesh: its own two walks
    assert geometry._walk_loop.cache_info().misses == walks + 4


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
    (fem.flux_load_matrix, ()),
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


def _assert_bitwise(mesh, vertices, triangles, boundary_edges, boundary_tags):
    for name, want in (("vertices", vertices), ("triangles", triangles),
                       ("boundary_edges", boundary_edges), ("boundary_tags", boundary_tags)):
        got = getattr(mesh, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name


def _assert_same_mesh(mesh, oracle):
    _assert_bitwise(mesh, oracle.vertices, oracle.triangles, oracle.boundary_edges,
                    oracle.boundary_tags)
    assert mesh.h == oracle.h


@pytest.mark.parametrize("h", [0.2, 0.1, 0.035])
def test_generation_matches_loop_oracle_bitwise(h):
    _assert_bitwise(generate_annulus_mesh(0.5, 1.0, h), *loop_annulus_mesh(0.5, 1.0, h))


@pytest.mark.parametrize("h, times", [(0.2, 1), (0.1, 2), (0.035, 1)])
def test_refine_matches_dict_oracle_bitwise(h, times):
    mesh = oracle = generate_annulus_mesh(0.5, 1.0, h)
    for _ in range(times):
        mesh, oracle = refine_uniform(mesh), loop_refine_uniform(oracle)
        _assert_same_mesh(mesh, oracle)


@pytest.mark.parametrize("r_inner, h, refine", [
    (0.5, 0.1, 0), (0.5, 0.05, 0), (0.5, 0.035, 0), (0.5, 0.025, 0),
    (0.5, 0.1, 1), (0.5, 0.05, 1), (0.5, 0.1, 2), (0.5, 0.025, 1),
    (0.3, 0.1, 0), (0.3, 0.05, 1), (0.7, 0.1, 0), (0.7, 0.035, 1),
])
def test_vectorized_lengths_match_per_row_norms_bitwise(r_inner, h, refine):
    mesh = generate_annulus_mesh(r_inner, 1.0, h)
    for _ in range(refine):
        mesh = refine_uniform(mesh)
    v = mesh.vertices
    radius = geometry._row_norms(v)
    assert radius.tobytes() == np.array([np.linalg.norm(p) for p in v]).tobytes()
    for tag in (GAMMA_I, GAMMA_A):
        a, b, length = fem._loop_edges(mesh, tag)
        oracle = np.array([float(np.linalg.norm(v[j] - v[i])) for i, j in zip(a, b)])
        assert length.tobytes() == oracle.tobytes()
    # the old per-side formula: the largest root of the summed squares
    d = v[mesh.triangles] - v[np.roll(mesh.triangles, -1, axis=1)]
    assert mesh.h == float(np.sqrt((d * d).sum(axis=-1)).max())


def _mesh(vertices, triangles, boundary_edges, boundary_tags) -> geometry.Mesh:
    vertices, triangles = np.asarray(vertices, dtype=float), np.asarray(triangles, dtype=np.int64)
    return geometry.Mesh(vertices, triangles, np.asarray(boundary_edges, dtype=np.int64),
                         np.asarray(boundary_tags), geometry._max_edge_length(vertices, triangles))


def test_refine_of_a_permuted_mesh_matches_dict_oracle_bitwise(coarse_mesh):
    # relabelled vertices, shuffled triangles with rotated corners and shuffled boundary
    # edges: first-encounter edge numbering no longer follows the structured order
    rng = np.random.default_rng(7)
    perm = rng.permutation(coarse_mesh.n_vertices)
    tris = perm[coarse_mesh.triangles][rng.permutation(coarse_mesh.n_triangles)]
    tris = np.take_along_axis(tris, (np.arange(3) + rng.integers(0, 3, (len(tris), 1))) % 3,
                              axis=1)
    order = rng.permutation(len(coarse_mesh.boundary_edges))
    mesh = _mesh(coarse_mesh.vertices[np.argsort(perm)], tris,
                 perm[coarse_mesh.boundary_edges][order], coarse_mesh.boundary_tags[order])
    validate_mesh(mesh)
    _assert_same_mesh(refine_uniform(mesh), loop_refine_uniform(mesh))
    _assert_same_mesh(refine_uniform(refine_uniform(mesh)),
                      loop_refine_uniform(loop_refine_uniform(mesh)))


def _tagged_interior_edge(v, t, e, g):
    a, _, c = t[0]  # the diagonal of the first quad lies inside the annulus
    return v, t, np.vstack((e, [[a, c]])), np.append(g, GAMMA_I)


def _untagged_boundary_edge(v, t, e, g):
    return v, t, e[:-1], g[:-1]


def _edge_on_three_triangles(v, t, e, g):
    a, d, c = t[0]
    mid = 0.5 * (v[a] + v[c])
    return np.vstack((v, mid + 0.3 * (v[d] - mid))), np.vstack((t, [[a, len(v), c]])), e, g


def _clockwise_triangle(v, t, e, g):
    t = t.copy()
    t[5] = t[5, [0, 2, 1]]
    return v, t, e, g


def _dangling_vertex(v, t, e, g):
    return np.vstack((v, [[0.0, 0.0]])), t, e, g


def _missing_tag(v, t, e, g):
    return v, t, e, np.full_like(g, GAMMA_A)


def _non_finite_vertex(v, t, e, g):
    v = v.copy()
    v[3, 1] = np.inf
    return v, t, e, g


def _overflowing_edge(v, t, e, g):
    v = v.copy()
    v[-1] = (1e308, 0.0)  # finite, and positively oriented, but the edge length overflows
    return v, t, e, g


DEFECTS = {
    "tagged interior edge": (_tagged_interior_edge, "boundary edge (0, 33) not on exactly one"),
    "untagged boundary edge": (_untagged_boundary_edge, "tagged edges do not match"),
    "edge on three triangles": (_edge_on_three_triangles, "edge (0, 33) on 3 triangles"),
    "clockwise triangle": (_clockwise_triangle, "mesh contains non-positively-oriented"),
    "dangling vertex": (_dangling_vertex, "vertex 128 lies on no triangle"),
    "missing tag": (_missing_tag, "missing boundary tag GammaI"),
    "non-finite vertex": (_non_finite_vertex, "mesh has non-finite vertex coordinates"),
    "overflowing edge length": (_overflowing_edge, "mesh has non-finite vertex coordinates"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_validation_errors_match_dict_oracle(defect):
    build, message = DEFECTS[defect]
    base = generate_annulus_mesh(0.5, 1.0, 0.2)
    mesh = _mesh(*build(base.vertices, base.triangles, base.boundary_edges, base.boundary_tags))
    with pytest.raises(FluxRecError) as got:
        validate_mesh(mesh)
    with pytest.raises(FluxRecError) as want:
        loop_validate_mesh(mesh)
    assert type(got.value) is type(want.value) is InvalidGeometryError
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(message)


def _outcome(validate, mesh):
    """The type and text of the error validate raises on mesh; None if it raises none."""
    try:
        validate(mesh)
    except FluxRecError as exc:
        return type(exc), str(exc)
    return None


def _shuffled(rng, t, e, g):
    """The triangle rows, and the boundary edges with their tags, in a random order."""
    order = rng.permutation(len(e))
    return t[rng.permutation(len(t))], e[order], g[order]


@settings(max_examples=150, deadline=None)
@given(defects=st.lists(st.sampled_from(["tagged interior edge", "untagged boundary edge",
                                         "edge on three triangles"]), min_size=2, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_edge_defects_are_named_at_their_first_occurrence(defects, seed):
    # each defect lands on the first triangle row or the last boundary edge of a fresh
    # shuffle, so crowded edges and stray or missing tagged edges meet in any file order
    rng = np.random.default_rng(seed)
    base = generate_annulus_mesh(0.5, 1.0, 0.2)
    v, t, e, g = base.vertices, base.triangles, base.boundary_edges, base.boundary_tags
    for defect in defects:
        v, t, e, g = DEFECTS[defect][0](v, *_shuffled(rng, t, e, g))
    mesh = _mesh(v, *_shuffled(rng, np.asarray(t), np.asarray(e), np.asarray(g)))
    got = _outcome(validate_mesh, mesh)
    assert got == _outcome(loop_validate_mesh, mesh)
    assert got is None or got[0] is InvalidGeometryError


@pytest.mark.parametrize("h, refine, shuffle", [(0.2, 0, False), (0.1, 1, False), (0.2, 2, False),
                                                (0.2, 0, True), (0.1, 1, True)])
def test_edge_table_matches_the_first_encounter_oracle_bitwise(h, refine, shuffle):
    mesh = generate_annulus_mesh(0.5, 1.0, h)
    for _ in range(refine):
        mesh = refine_uniform(mesh)
    t, e = mesh.triangles, mesh.boundary_edges
    if shuffle:
        t, e, _ = _shuffled(np.random.default_rng(11), t, e, mesh.boundary_tags)
        e = e[:, ::-1]  # a pair names its edge from either end
    for got, want in zip(geometry._edge_table(t, e), loop_edge_table(t, e), strict=True):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_edge_keys_match_the_copying_oracle_bitwise(tmp_path, name):
    mesh = oracle_mesh(name, tmp_path)
    no_pairs = np.empty((0, 2), dtype=np.int64)
    for t, e in ((mesh.triangles, mesh.boundary_edges), (mesh.triangles, no_pairs),
                 (mesh.triangles[:0], no_pairs)):
        (got, base), (want, want_base) = geometry._edge_keys(t, e), copying_edge_keys(t, e)
        assert (got.dtype, got.shape, got.tobytes(), base) == (want.dtype, want.shape,
                                                               want.tobytes(), want_base)


@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_save_mesh_matches_the_joining_oracle_bytewise(tmp_path, name):
    mesh = oracle_mesh(name, tmp_path)
    save_mesh(mesh, tmp_path / "sections.txt")
    joined_save_mesh(mesh, tmp_path / "joined.txt")
    assert (tmp_path / "sections.txt").read_bytes() == (tmp_path / "joined.txt").read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_load_rejects_an_invalid_mesh_naming_the_path(tmp_path, defect):
    build, message = DEFECTS[defect]
    base = generate_annulus_mesh(0.5, 1.0, 0.2)
    path = tmp_path / "mesh.txt"
    save_mesh(_mesh(*build(base.vertices, base.triangles, base.boundary_edges,
                           base.boundary_tags)), path)
    with pytest.raises(MalformedFileError) as err:
        load_mesh(path)
    assert str(err.value).startswith(f"invalid mesh in {path}: {message}")
    assert err.value.exit_code == 2


@pytest.fixture(scope="module")
def small_mesh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.45), path)  # 42 vertices
    return path


def _load_or_reject(path, text: str) -> None:
    """Any mesh text loads into a valid mesh or fails with an exit-2 FluxRecError."""
    path.write_text(text, encoding="utf-8")
    try:
        mesh = load_mesh(path)
    except FluxRecError as exc:
        assert exc.exit_code == 2, repr(exc)
    else:
        validate_mesh(mesh)


_TOKENS = st.one_of(
    st.sampled_from(["-1", "0", "1", "41", "42", "-0.0", "1e308", "nan", "inf", "GammaI",
                     "GammaA", "", "99999999999999999999999"]),
    st.integers(-2, 45).map(str),
    st.text(max_size=4),
)


@st.composite
def _mutations(draw, lines: list[str]) -> str:
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
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
            lines[i] = draw(st.text(max_size=20))
        else:
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(_TOKENS)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_mesh_file_loads_valid_or_exits_2(small_mesh_file, data):
    lines = small_mesh_file.read_text(encoding="utf-8").splitlines()
    _load_or_reject(small_mesh_file.with_name("mutated.txt"), data.draw(_mutations(lines)))


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_arbitrary_mesh_text_loads_valid_or_exits_2(small_mesh_file, text):
    _load_or_reject(small_mesh_file.with_name("arbitrary.txt"), text)


def _assert_same_outcome(path, oracle_load=loop_load_mesh) -> None:
    """load_mesh and an oracle loader give one mesh, bitwise, or one FluxRecError."""
    outcomes = []
    for load in (load_mesh, oracle_load):
        try:
            outcomes.append(load(path))
        except FluxRecError as exc:
            outcomes.append(exc)
    new, oracle = outcomes
    assert type(new) is type(oracle), (new, oracle)
    if isinstance(oracle, FluxRecError):
        assert (str(new), new.line_number) == (str(oracle), oracle.line_number)
        return
    for name in ("vertices", "triangles", "boundary_edges", "boundary_tags"):
        a, b = getattr(new, name), getattr(oracle, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert new.h == oracle.h


# every mesh the tests and the benchmark workloads write; the last three r_inner are
# mesh-pipeline's draws 0.5 + 0.01 * U[0, 1) for op seeds 10000, 10001 and 20000
_WRITTEN_MESHES = ([(0.5, h, 0) for h in (0.3, 0.2, 0.1, 0.05)] + [(0.5, 0.035, 1)]
                   + [(0.5 + 0.01 * float(np.random.default_rng(seed).random()), 0.035, 1)
                      for seed in (10000, 10001, 20000)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r_inner, h, refine", _WRITTEN_MESHES)
def test_load_matches_the_per_line_oracle_bitwise(tmp_path, r_inner, h, refine):
    mesh = generate_annulus_mesh(r_inner, 1.0, h)
    for _ in range(refine):
        mesh = refine_uniform(mesh)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    _assert_same_outcome(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edits", [
    {"VERTICES": ""}, {"VERTICES": "  \t"}, {"TRIANGLES": ""}, {"VERTICES": "1.0"},
    {"VERTICES": "1.0 2.0 3.0"}, {"VERTICES": "1e400 -1e400"}, {"VERTICES": "nan Infinity"},
    {"TRIANGLES": "0 1 1.0"}, {"TRIANGLES": "0 1"}, {"TRIANGLES": "+0 -0 00"},
    {"TRIANGLES": "0 1 9223372036854775807"}, {"TRIANGLES": "0 1 9223372036854775808"},
    {"TRIANGLES": "0 1 -9223372036854775809 ", "BOUNDARY_EDGES": "0 1 GammaX"},
    {"TRIANGLES": "0 1 99999999999999999999999", "BOUNDARY_EDGES": "0 1 2 GammaI"},
    {"TRIANGLES": "0 1 99999999999999999999999 x"},
    {"VERTICES": "0.0 0.0\u00a0", "TRIANGLES": "0\u20001\t2"},
    # numpy 2.4.6's integer parser segfaulted, in some runs, on this unassigned code point
    {"TRIANGLES": "\U00052651 29 15"}, {"TRIANGLES": "1 \u00e9 15"},
])
def test_load_matches_the_per_line_oracle_on_defects(tmp_path, edits):
    # each edit replaces the record in the middle of its section; an index beyond int64
    # in TRIANGLES must not hide a malformed record that the per-line parser meets first
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.3), path)
    lines = path.read_text().splitlines()
    for section, record in edits.items():
        header = next(i for i, line in enumerate(lines) if line.startswith(section))
        lines[header + 1 + int(lines[header].split()[1]) // 2] = record
    path.write_text("\n".join(lines) + "\n")
    _assert_same_outcome(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("section, record", [("VERTICES", "1_0 0.0"), ("VERTICES", "\uff13 0.0"),
                                             ("TRIANGLES", "0 1 1_0"), ("TRIANGLES", "0 1 \u0663"),
                                             ("BOUNDARY_EDGES", "0_1 2 GammaI"),
                                             ("BOUNDARY_EDGES", "\u0661 2 GammaI")])
def test_load_rejects_underscores_and_non_ascii_digits_at_their_line(tmp_path, section, record):
    # float() and int() read these, the section parser does not: junk now exits 2 at its line
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.3), path)
    lines = path.read_text().splitlines()
    bad = next(i for i, line in enumerate(lines) if line.startswith(section)) + 2
    lines[bad] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedFileError, match="malformed record") as err:
        load_mesh(path)
    assert err.value.line_number == bad + 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("section", ["VERTICES", "TRIANGLES", "BOUNDARY_EDGES"])
@pytest.mark.parametrize("digits", ["underscore", "arabic-indic"])
def test_load_rejects_a_header_count_outside_the_number_grammar(tmp_path, section, digits):
    # int() reads '6_3' and '\u0666\u0663' as 63; the count follows the records' grammar
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.3), path)
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(section))
    count = lines[header].split()[1]
    count = (f"{count[0]}_{count[1:]}" if digits == "underscore"
             else count.translate({ord("0") + d: 0x660 + d for d in range(10)}))
    lines[header] = f"{section} {count}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_same_outcome(path)
    with pytest.raises(MalformedFileError) as err:
        load_mesh(path)
    assert str(err.value) == f"bad {section} count {count!r} (line {header + 1})"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("record", ["0 1 GammaI\x00", "0 1 GammaI" + "x" * 40, "0 1 Gamma\u00cf",
                                    "99999999999999999999999 1 GammaX", "0 1\x1fGammaA",
                                    "0 1 2 GammaI", "0 -1 GammaI", "0 1"])
def test_load_matches_the_per_line_oracle_on_edge_records(tmp_path, record):
    # a tag is read whole, a trailing NUL included, and reported in its own text
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.3), path)
    lines = path.read_text().splitlines()
    lines[next(i for i, line in enumerate(lines) if line.startswith("BOUNDARY_EDGES")) + 2] = record
    path.write_text("\n".join(lines) + "\n")
    _assert_same_outcome(path)
    with pytest.raises(MalformedFileError):
        load_mesh(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("section", ["VERTICES", "TRIANGLES", "BOUNDARY_EDGES"])
def test_load_reports_a_short_section_after_the_last_line(tmp_path, section):
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.3), path)
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith(section))
    path.write_text("\n".join(lines[:header + 3]) + "\n")
    _assert_same_outcome(path)
    with pytest.raises(MalformedFileError, match="unexpected end of file") as err:
        load_mesh(path)
    assert err.value.line_number == header + 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, line", [("VERTICES 1\n\nTRIANGLES 0\nBOUNDARY_EDGES 0\n", 2),
                                        ("VERTICES 0\nTRIANGLES 2\n \n\t\n", 3)])
def test_load_reports_a_blank_record_without_warnings(tmp_path, text, line):
    # loadtxt warns when every line it gets is blank
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(MalformedFileError, match="malformed record") as err:
        load_mesh(path)
    assert err.value.line_number == line


def _read_by_float_only(token: str) -> bool:
    """A number with underscores or non-ASCII digits: float() reads it, loadtxt does not."""
    try:
        float(token)
    except ValueError:
        return False
    return "_" in token or not token.isascii()


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_mesh_file_matches_the_per_line_oracle(small_mesh_file, data):
    lines = small_mesh_file.read_text(encoding="utf-8").splitlines()
    text = data.draw(_mutations(lines))
    assume(not any(_read_by_float_only(token) for token in text.split()))
    path = small_mesh_file.with_name("mutated_oracle.txt")
    path.write_text(text, encoding="utf-8")
    _assert_same_outcome(path)


# load_mesh decodes the file in blocks of geometry._READ_BYTES; 7-byte blocks end inside
# records, line breaks and multi-byte characters
_READ_BYTES = [7, geometry._READ_BYTES]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("read_bytes", _READ_BYTES)
@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_load_matches_the_whole_file_oracle_bitwise(tmp_path, monkeypatch, name, read_bytes):
    path = tmp_path / "mesh.txt"
    save_mesh(oracle_mesh(name, tmp_path), path)
    monkeypatch.setattr(geometry, "_READ_BYTES", read_bytes)
    _assert_same_outcome(path, whole_file_load_mesh)


def _record_line(lines: list[bytes], section: bytes) -> int:
    """The index of the middle record of a section."""
    header = next(i for i, line in enumerate(lines) if line.startswith(section))
    return header + 1 + int(lines[header].split()[1]) // 2


def _inside_record(sep: bytes, section: bytes):
    def edit(lines):
        i = _record_line(lines, section)
        lines[i] = lines[i].replace(b" ", sep, 1)
        return lines
    return edit


def _between_records(sep: bytes, section: bytes):
    def edit(lines):
        i = _record_line(lines, section)
        lines[i:i + 2] = [lines[i] + sep + lines[i + 1]]
        return lines
    return edit


def _replace_record(section: bytes, record: bytes):
    def edit(lines):
        lines[_record_line(lines, section)] = record
        return lines
    return edit


def _cut_after_record(section: bytes):
    def edit(lines):
        return lines[:_record_line(lines, section)]
    return edit


def _count(section: bytes, count: bytes):
    def edit(lines):
        header = next(i for i, line in enumerate(lines) if line.startswith(section))
        lines[header] = section + b" " + count
        return lines
    return edit


_SECTIONS = (b"VERTICES", b"TRIANGLES", b"BOUNDARY_EDGES")
_SEPARATORS = {"crlf": b"\r\n", "cr": b"\r", "vt": b"\x0b", "ff": b"\x0c", "fs": b"\x1c",
               "nel": "\x85".encode(), "ls": "\u2028".encode()}
_MALFORMED = {
    **{f"{name}-inside-{section.decode()}": _inside_record(sep, section)
       for name, sep in _SEPARATORS.items() for section in _SECTIONS},
    **{f"{name}-between-{section.decode()}": _between_records(sep, section)
       for name, sep in _SEPARATORS.items() for section in _SECTIONS},
    **{f"non-utf8-{section.decode()}": _inside_record(b" \xff", section) for section in _SECTIONS},
    **{f"split-char-{section.decode()}": _inside_record(b" \xe2\x82", section)
       for section in _SECTIONS},
    "arabic-indic-triangle": _replace_record(b"TRIANGLES", "0 1 \u0663".encode()),
    "arabic-indic-edge": _replace_record(b"BOUNDARY_EDGES", "\u0661 2 GammaI".encode()),
    **{f"truncated-{section.decode()}": _cut_after_record(section) for section in _SECTIONS},
    **{f"count-beyond-int64-{section.decode()}": _count(section, b"99999999999999999999")
       for section in _SECTIONS},
    "trailing-record": lambda lines: lines + [b"0 1 GammaI", b""],
    "trailing-record-after-blanks": lambda lines: lines + [b" ", b"\t", b"x", b""],
    "trailing-non-utf8": lambda lines: lines + [b"", b"\xc3"],
    "crlf-file": lambda lines: [b"\r\n".join(lines)],
    "cr-file": lambda lines: [b"\r".join(lines)],
    "two-bad-bytes": lambda lines: [lines[0], lines[1] + b"\xff", *lines[2:-2],
                                    lines[-2] + b"\x80", lines[-1]],
    "bad-byte-after-a-malformed-record": lambda lines: [lines[0], b"not a vertex", *lines[2:-2],
                                                        lines[-2] + b"\xff", lines[-1]],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("read_bytes", _READ_BYTES)
@pytest.mark.parametrize("defect", sorted(_MALFORMED))
def test_load_matches_the_whole_file_oracle_on_defects(tmp_path, monkeypatch, defect,
                                                       read_bytes):
    # the same mesh, bitwise, or the same error at the same line: line breaks are those of
    # str.splitlines, and a byte that is not UTF-8 is reported before any other fault
    path = tmp_path / "mesh.txt"
    save_mesh(generate_annulus_mesh(0.5, 1.0, 0.3), path)
    path.write_bytes(b"\n".join(_MALFORMED[defect](path.read_bytes().split(b"\n"))))
    monkeypatch.setattr(geometry, "_READ_BYTES", read_bytes)
    _assert_same_outcome(path, whole_file_load_mesh)
