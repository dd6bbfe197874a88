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
    return 0.5 * _cross_z(p1 - p0, p2 - p0)


def _max_edge_length(vertices: np.ndarray, triangles: np.ndarray) -> float:
    h = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        d = vertices[triangles[:, a]] - vertices[triangles[:, b]]
        h = max(h, float(np.sqrt((d * d).sum(axis=1)).max()))
    return h


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
    for j, r in enumerate(radii):
        vertices[j * n_theta:(j + 1) * n_theta, 0] = r * np.cos(theta)
        vertices[j * n_theta:(j + 1) * n_theta, 1] = r * np.sin(theta)

    triangles = []
    for j in range(n_r):
        base, top = j * n_theta, (j + 1) * n_theta
        for i in range(n_theta):
            ip = (i + 1) % n_theta
            a, b = base + i, base + ip
            c, d = top + ip, top + i
            triangles.append((a, d, c))
            triangles.append((a, c, b))
    triangles = np.asarray(triangles, dtype=np.int64)

    inner = [(i, (i + 1) % n_theta) for i in range(n_theta)]
    outer_base = n_r * n_theta
    outer = [(outer_base + i, outer_base + (i + 1) % n_theta) for i in range(n_theta)]
    boundary_edges = np.asarray(inner + outer, dtype=np.int64)
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
    vertices = list(map(tuple, mesh.vertices))
    midpoint_index: dict[tuple[int, int], int] = {}

    boundary_keys = {}
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        boundary_keys[(min(a, b), max(a, b))] = tag

    def midpoint(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        idx = midpoint_index.get(key)
        if idx is not None:
            return idx
        pm = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        if key in boundary_keys:
            r = 0.5 * (np.linalg.norm(mesh.vertices[a]) + np.linalg.norm(mesh.vertices[b]))
            pm = pm * (r / np.linalg.norm(pm))
        idx = len(vertices)
        vertices.append((pm[0], pm[1]))
        midpoint_index[key] = idx
        return idx

    triangles = []
    for a, b, c in mesh.triangles:
        mab, mbc, mca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        triangles.extend(((a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)))

    edges, tags = [], []
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        m = midpoint_index[(min(a, b), max(a, b))]
        edges.extend(((a, m), (m, b)))
        tags.extend((tag, tag))

    new_vertices = np.asarray(vertices)
    new_triangles = np.asarray(triangles, dtype=np.int64)
    refined = Mesh(new_vertices, new_triangles,
                   np.asarray(edges, dtype=np.int64), np.asarray(tags),
                   _max_edge_length(new_vertices, new_triangles))
    validate_mesh(refined)
    return refined


def validate_mesh(mesh: Mesh) -> None:
    """Check all Mesh invariants, raising InvalidGeometryError on failure."""
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    if not (areas > 0.0).all():
        raise InvalidGeometryError("mesh contains non-positively-oriented triangles")

    edge_count: dict[tuple[int, int], int] = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1

    tagged = set()
    for a, b in mesh.boundary_edges:
        key = (min(a, b), max(a, b))
        if edge_count.get(key, 0) != 1:
            raise InvalidGeometryError(f"boundary edge {key} not on exactly one triangle")
        tagged.add(key)
    topological = {k for k, c in edge_count.items() if c == 1}
    if tagged != topological:
        raise InvalidGeometryError("tagged edges do not match the triangulation boundary")

    loops = {}
    for tag in VALID_TAGS:
        sel = mesh.boundary_tags == tag
        if not sel.any():
            raise InvalidGeometryError(f"missing boundary tag {tag}")
        loops[tag] = _walk_loop(mesh, mesh.boundary_edges[sel])
    if set(loops[GAMMA_I]) & set(loops[GAMMA_A]):
        raise InvalidGeometryError("GammaI and GammaA loops share a vertex")


def _walk_loop(mesh: Mesh, edges: np.ndarray) -> list[int]:
    """Traverse tagged edges as a single closed loop; raise if they are not one."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(int(a), []).append(int(b))
        adj.setdefault(int(b), []).append(int(a))
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
    return order


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

    order = _walk_loop(mesh, mesh.boundary_edges[sel])
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
    lines = [f"VERTICES {mesh.n_vertices}"]
    lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices)
    lines.append(f"TRIANGLES {mesh.n_triangles}")
    lines.extend(f"{a} {b} {c}" for a, b, c in mesh.triangles)
    lines.append(f"BOUNDARY_EDGES {len(mesh.boundary_edges)}")
    lines.extend(
        f"{a} {b} {tag}" for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags)
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    """Read a mesh written by :func:`save_mesh`; round trip is bit-exact."""
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

    def take(count: int, parser):
        nonlocal pos
        out = []
        for _ in range(count):
            if pos >= len(raw):
                raise MalformedFileError("unexpected end of file", len(raw) + 1)
            try:
                out.append(parser(raw[pos].split()))
            except (ValueError, IndexError):
                raise MalformedFileError(f"malformed record {raw[pos]!r}", pos + 1) from None
            pos += 1
        return out

    n_v = expect_header("VERTICES")
    verts = take(n_v, lambda p: (float(p[0]), float(p[1])) if len(p) == 2 else _bad())
    n_t = expect_header("TRIANGLES")
    tris = take(n_t, lambda p: (int(p[0]), int(p[1]), int(p[2])) if len(p) == 3 else _bad())
    n_b = expect_header("BOUNDARY_EDGES")

    edges, tags = [], []
    for a, b, tag in take(n_b, lambda p: (int(p[0]), int(p[1]), p[2]) if len(p) == 3 else _bad()):
        if tag not in VALID_TAGS:
            raise MalformedFileError(f"unknown boundary tag {tag!r}", pos)
        edges.append((a, b))
        tags.append(tag)

    vertices = np.asarray(verts)
    triangles = np.asarray(tris, dtype=np.int64)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= n_v):
        raise MalformedFileError("triangle references a vertex out of range", pos)
    return Mesh(vertices, triangles, np.asarray(edges, dtype=np.int64),
                np.asarray(tags), _max_edge_length(vertices, triangles))


def _bad():
    raise ValueError
