"""Annular triangulations with tagged boundary loops.

The domain is a concentric annulus centred at the origin.  The inner
boundary loop carries the tag ``GammaI`` (inaccessible side, where the
unknown flux lives), the outer loop ``GammaA`` (accessible side, where
measurements live).  Both loops are inscribed polygons whose vertices
lie exactly on the generating circles.
"""

from __future__ import annotations

import functools
import weakref
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometryError, MalformedFileError, MissingTagError

GAMMA_I = "GammaI"
GAMMA_A = "GammaA"
VALID_TAGS = (GAMMA_I, GAMMA_A)

CacheInfo = namedtuple("CacheInfo", "hits misses currsize")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation with tagged boundary edges.

    Attributes
    ----------
    vertices : (n_v, 2) float array
    triangles : (n_t, 3) int array, positively oriented
    boundary_edges : (n_b, 2) int array
    boundary_tags : (n_b,) str array, entries in {GammaI, GammaA}
    h : float, maximum edge length
    memo : dict, results of the :func:`per_mesh` functions for this mesh
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    h: float
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.boundary_edges, self.boundary_tags):
            arr.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def per_mesh(fn):
    """Memoize ``fn(mesh, *args)`` in ``mesh.memo``: each result lives as long as its mesh.

    A result must not refer back to its mesh; the reference cycle would
    keep a dropped mesh alive until the cycle collector runs.  The
    wrapper's ``cache_info()`` gives (hits, misses, currsize), where
    currsize counts the live meshes that hold a result.
    """
    hits = misses = 0
    holders = weakref.WeakSet()

    @functools.wraps(fn)
    def memoized(mesh, *args):
        nonlocal hits, misses
        key = (fn, *args)
        try:
            value = mesh.memo[key]
        except KeyError:
            misses += 1
            value = mesh.memo[key] = fn(mesh, *args)
            holders.add(mesh)
        else:
            hits += 1
        return value

    memoized.cache_info = lambda: CacheInfo(hits, misses, len(holders))
    return memoized


@dataclass(frozen=True, eq=False)
class BoundaryIndexMap:
    """Ordered traversal of one boundary loop with lumped arc weights.

    ``vertex_indices`` walks the loop once, counterclockwise, starting
    from the smallest vertex index.  ``weights[k]`` is half the sum of
    the two edge lengths adjacent to vertex k (so weights sum to the
    polygon perimeter), and ``arc_coords[k]`` is the cumulative arc
    length from the start vertex.
    """

    tag: str
    vertex_indices: np.ndarray
    weights: np.ndarray
    arc_coords: np.ndarray

    def __post_init__(self):
        for arr in (self.vertex_indices, self.weights, self.arc_coords):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.vertex_indices)

    @property
    def perimeter(self) -> float:
        return float(self.weights.sum())


def _cross_z(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas; positive for counterclockwise triangles."""
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    # huge finite coordinates overflow to inf or NaN, which validate_mesh rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * _cross_z(p1 - p0, p2 - p0)


def _max_edge_length(vertices: np.ndarray, triangles: np.ndarray) -> float:
    ends = np.roll(triangles, -1, axis=1)
    x, y = vertices[:, 0], vertices[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # as in triangle_areas
        dx, dy = x[triangles] - x[ends], y[triangles] - y[ends]
        # sqrt is monotone, so the root of the largest square is the largest length
        return float(np.sqrt((dx * dx + dy * dy).max(initial=0.0)))


def generate_annulus_mesh(r_inner: float, r_outer: float, h_target: float) -> Mesh:
    """Structured triangulation of the annulus r_inner <= |x| <= r_outer.

    The inner polygon is tagged GammaI, the outer GammaA.  All boundary
    vertices lie exactly on their circle, and the maximum edge length is
    at most 1.5 * h_target.
    """
    if not (0.0 < r_inner < r_outer):
        raise InvalidGeometryError(
            f"require 0 < r_inner < r_outer, got r_inner={r_inner}, r_outer={r_outer}"
        )
    if not (0.0 < h_target < r_outer - r_inner):
        raise InvalidGeometryError(
            f"require 0 < h_target < r_outer - r_inner, got h_target={h_target}"
        )

    n_theta = max(8, int(np.ceil(2.0 * np.pi * r_outer / h_target)))
    n_r = max(2, int(np.ceil((r_outer - r_inner) / h_target)))
    radii = np.linspace(r_inner, r_outer, n_r + 1)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta

    vertices = np.empty(((n_r + 1) * n_theta, 2))
    vertices[:, 0] = (radii[:, None] * np.cos(theta)).ravel()
    vertices[:, 1] = (radii[:, None] * np.sin(theta)).ravel()

    # ring j, sector i: the quad (a, b, c, d) = (i, i+1) on ring j, (i+1, i) on ring j+1
    i = np.arange(n_theta)
    ip = (i + 1) % n_theta
    base = n_theta * np.arange(n_r)[:, None]
    a, b = base + i, base + ip
    c, d = b + n_theta, a + n_theta
    triangles = np.stack((a, d, c, a, c, b), axis=-1).reshape(-1, 3)

    loop = np.stack((i, ip), axis=1)
    boundary_edges = np.concatenate((loop, loop + n_r * n_theta))
    boundary_tags = np.asarray([GAMMA_I] * n_theta + [GAMMA_A] * n_theta)

    mesh = Mesh(vertices, triangles, boundary_edges, boundary_tags,
                _max_edge_length(vertices, triangles))
    validate_mesh(mesh)
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four by its edge midpoints.

    Midpoints of boundary edges are projected back onto the circle of
    their loop (radius taken as the mean endpoint radius, assuming
    circles centred at the origin); tags are inherited by both halves.
    """
    v, n_v = mesh.vertices, mesh.n_vertices
    edges, side_edge, _, boundary_edge = _edge_table(mesh.triangles, mesh.boundary_edges)
    midpoints = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
    radius = _row_norms(v)
    r = 0.5 * (radius[mesh.boundary_edges[:, 0]] + radius[mesh.boundary_edges[:, 1]])
    on_loop = midpoints[boundary_edge]
    midpoints[boundary_edge] = on_loop * (r / _row_norms(on_loop))[:, None]

    (a, b, c), (mab, mbc, mca) = mesh.triangles.T, (n_v + side_edge).T
    triangles = np.stack((a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca),
                         axis=1).reshape(-1, 3)
    (a, b), m = mesh.boundary_edges.T, n_v + boundary_edge
    vertices = np.concatenate((v, midpoints))
    refined = Mesh(vertices, triangles, np.stack((a, m, m, b), axis=1).reshape(-1, 2),
                   np.repeat(mesh.boundary_tags, 2), _max_edge_length(vertices, triangles))
    validate_mesh(refined)
    return refined


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bitwise equal to np.linalg.norm of that row (both ddot)."""
    return np.sqrt(np.vecdot(x, x))


def _edge_table(triangles: np.ndarray, pairs: np.ndarray):
    """Edges of a triangulation and of extra vertex pairs, numbered in first-encounter order.

    Sides are read row by row as (a, b), (b, c), (c, a), then the pairs.  Returns the
    sorted endpoints of each edge, the (n_t, 3) edge of each side, each edge's triangle
    count and the edge of each pair.
    """
    sides = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    a, b = np.concatenate((sides, pairs.reshape(-1, 2))).T
    keys = np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1)
    base = int(keys.max(initial=0)) + 1
    _, first, inverse = np.unique(keys[:, 0] * base + keys[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    edge = rank[inverse]
    n_s = len(sides)
    counts = np.bincount(edge[:n_s], minlength=order.size)
    return keys[first[order]], edge[:n_s].reshape(-1, 3), counts, edge[n_s:]


def validate_mesh(mesh: Mesh) -> None:
    """Check all Mesh invariants, raising InvalidGeometryError on failure."""
    if not (np.isfinite(mesh.vertices).all() and np.isfinite(mesh.h)):
        raise InvalidGeometryError("mesh has non-finite vertex coordinates or edge lengths")
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    if not (areas > 0.0).all():
        raise InvalidGeometryError("mesh contains non-positively-oriented triangles")
    unused = np.flatnonzero(np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices) == 0)
    if unused.size:
        raise InvalidGeometryError(f"vertex {unused[0]} lies on no triangle")

    edges, _, counts, tagged = _edge_table(mesh.triangles, mesh.boundary_edges)
    crowded = np.flatnonzero(counts > 2)
    if crowded.size:
        raise InvalidGeometryError(
            f"edge {tuple(edges[crowded[0]].tolist())} on {counts[crowded[0]]} triangles")
    stray = np.flatnonzero(counts[tagged] != 1)
    if stray.size:
        key = tuple(edges[tagged[stray[0]]].tolist())
        raise InvalidGeometryError(f"boundary edge {key} not on exactly one triangle")
    if np.unique(tagged).size != np.count_nonzero(counts == 1):
        raise InvalidGeometryError("tagged edges do not match the triangulation boundary")

    loops = {}
    for tag in VALID_TAGS:
        sel = mesh.boundary_tags == tag
        if not sel.any():
            raise InvalidGeometryError(f"missing boundary tag {tag}")
        loops[tag] = _walk_loop(mesh, tag)
    if set(loops[GAMMA_I]) & set(loops[GAMMA_A]):
        raise InvalidGeometryError("GammaI and GammaA loops share a vertex")


@per_mesh
def _walk_loop(mesh: Mesh, tag: str) -> tuple[int, ...]:
    """Walk the edges tagged ``tag`` as one closed loop, once per mesh; raise if they are not one."""
    edges = mesh.boundary_edges[mesh.boundary_tags == tag]
    adj: dict[int, list[int]] = {}
    for a, b in edges.tolist():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v, nbrs in adj.items():
        if len(nbrs) != 2:
            raise InvalidGeometryError(f"boundary vertex {v} has {len(nbrs)} tagged neighbours")

    start = min(adj)
    order = [start]
    prev, cur = None, start
    while True:
        n1, n2 = adj[cur]
        nxt = n2 if n1 == prev else n1
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
        if len(order) > len(edges):
            raise InvalidGeometryError("tagged edges do not close into a single loop")
    if len(order) != len(edges):
        raise InvalidGeometryError("tagged edges form more than one loop")
    return tuple(order)


@per_mesh
def boundary_map(mesh: Mesh, tag: str) -> BoundaryIndexMap:
    """Ordered counterclockwise traversal of one tagged loop.

    Returns lumped arc-length weights (half the sum of the adjacent edge
    lengths per vertex) and cumulative arc coordinates.
    """
    if tag not in VALID_TAGS:
        raise MissingTagError(f"unknown tag {tag!r}")
    sel = mesh.boundary_tags == tag
    if not sel.any():
        raise MissingTagError(f"mesh has no edges tagged {tag}")

    order = list(_walk_loop(mesh, tag))
    pts = mesh.vertices[order]
    signed_area = 0.5 * float(_cross_z(pts, np.roll(pts, -1, axis=0)).sum())
    if signed_area < 0.0:
        order = [order[0]] + order[:0:-1]
        pts = mesh.vertices[order]

    edge_len = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    weights = 0.5 * (edge_len + np.roll(edge_len, 1))
    arc = np.concatenate(([0.0], np.cumsum(edge_len[:-1])))
    return BoundaryIndexMap(tag, np.asarray(order, dtype=np.int64), weights, arc)


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format (VERTICES/TRIANGLES/BOUNDARY_EDGES)."""
    text = (f"VERTICES {mesh.n_vertices}\n"
            + "%r %r\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist())
            + f"TRIANGLES {mesh.n_triangles}\n"
            + "%d %d %d\n" * mesh.n_triangles % tuple(mesh.triangles.ravel().tolist())
            + f"BOUNDARY_EDGES {len(mesh.boundary_edges)}\n"
            + "".join(f"{a} {b} {tag}\n" for (a, b), tag in
                      zip(mesh.boundary_edges.tolist(), mesh.boundary_tags.tolist())))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_records(lines: list[str], width: int, dtype) -> np.ndarray | None:
    """The lines as one (len(lines), width) array from one loadtxt call; None if one is bad."""
    if not lines:
        return np.empty((0, width), dtype)
    if not lines[0].strip():
        # loadtxt skips blank lines, and warns when it finds nothing else
        return None
    if dtype is not float and not "".join(lines).isascii():
        # numpy 2.4.6's integer parser can segfault on non-ASCII characters (on U+52651
        # in about 3 runs of 10), so it gets the same tokens with '?' for non-ASCII
        lines = [" ".join(line.split()).encode("ascii", "replace").decode() for line in lines]
    try:
        arr = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    return arr if arr.shape == (len(lines), width) else None


def _first_bad_record(lines: list[str], width: int, dtype) -> int:
    """Bisect on prefixes of lines, which fail as a whole, for the first line that is no record."""
    lo, hi = 0, len(lines)  # prefix lo parses, prefix hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _read_records(lines[:mid], width, dtype) is None:
            hi = mid
        else:
            lo = mid
    return lo


def _beyond_int64(line: str, width: int) -> bool:
    """Whether line holds width integers that int() reads, one of them outside int64."""
    try:
        values = [int(p) for p in line.split()]
    except ValueError:
        return False
    return len(values) == width and not all(-2**63 <= v < 2**63 for v in values)


def load_mesh(path) -> Mesh:
    """Read and validate a mesh written by :func:`save_mesh`; round trip is bit-exact."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()

    pos = 0

    def expect_header(name: str) -> int:
        nonlocal pos
        if pos >= len(raw):
            raise MalformedFileError(f"missing {name} section", pos + 1)
        parts = raw[pos].split()
        if len(parts) != 2 or parts[0] != name:
            raise MalformedFileError(f"expected '{name} <count>'", pos + 1)
        try:
            count = int(parts[1])
        except ValueError:
            raise MalformedFileError(f"bad {name} count {parts[1]!r}", pos + 1) from None
        pos += 1
        return count

    def section(count: int, width: int, dtype) -> np.ndarray:
        """The count records after the header, read by one loadtxt call."""
        nonlocal pos
        lines = raw[pos:pos + max(count, 0)]
        records = _read_records(lines, width, dtype)
        if records is None:
            readable = lines
            if dtype is not float:
                # an index beyond int64 reads as -1, which the range check reports at its line
                readable = [" -1" * width if _beyond_int64(line, width) else line
                            for line in lines]
                records = _read_records(readable, width, dtype)
            if records is None:
                bad = _first_bad_record(readable, width, dtype)
                raise MalformedFileError(f"malformed record {lines[bad]!r}", pos + bad + 1)
        if len(lines) < count:
            raise MalformedFileError("unexpected end of file", len(raw) + 1)
        pos += len(lines)
        return records

    n_v = expect_header("VERTICES")
    vertices = section(n_v, 2, float)
    n_t = expect_header("TRIANGLES")
    first_triangle_line = pos + 1
    tris = section(n_t, 3, np.int64)
    n_b = expect_header("BOUNDARY_EDGES")
    first_edge_line = pos + 1

    records = []
    for ln in range(pos, pos + n_b):
        if ln >= len(raw):
            raise MalformedFileError("unexpected end of file", len(raw) + 1)
        try:
            a, b, tag = raw[ln].split()
            records.append((int(a), int(b), tag))
        except ValueError:
            raise MalformedFileError(f"malformed record {raw[ln]!r}", ln + 1) from None
    pos += len(records)
    edges, tags = [], []
    for j, (a, b, tag) in enumerate(records):
        if tag not in VALID_TAGS:
            raise MalformedFileError(f"unknown boundary tag {tag!r}", first_edge_line + j)
        edges.append((a, b))
        tags.append(tag)
    for ln in range(pos, len(raw)):
        if raw[ln].strip():
            raise MalformedFileError(f"unexpected record {raw[ln]!r} after the boundary edges",
                                     ln + 1)

    def vertex_ids(records, width: int, first_line: int) -> np.ndarray:
        """The records as an index array; the first naming no vertex is reported by its line."""
        try:
            ids = np.asarray(records, dtype=np.int64).reshape(-1, width)
            bad = np.flatnonzero(((ids < 0) | (ids >= n_v)).any(axis=1))
        except OverflowError:
            bad = [i for i, rec in enumerate(records) if not all(0 <= v < n_v for v in rec)]
        if len(bad):
            raise MalformedFileError("vertex index out of range", first_line + int(bad[0]))
        return ids

    triangles = vertex_ids(tris, 3, first_triangle_line)
    boundary_edges = vertex_ids(edges, 2, first_edge_line)
    mesh = Mesh(vertices, triangles, boundary_edges, np.asarray(tags),
                _max_edge_length(vertices, triangles))
    try:
        validate_mesh(mesh)
    except InvalidGeometryError as exc:
        raise MalformedFileError(f"invalid mesh in {path}: {exc}") from None
    return mesh
