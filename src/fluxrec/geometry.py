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
    from the smallest vertex index.  ``edge_lengths[j]`` is the length of
    edge j, which joins map vertices j and j + 1 (cyclically).
    ``weights[k]`` is half the sum of the two edge lengths adjacent to
    vertex k (so weights sum to the polygon perimeter), and
    ``arc_coords[k]`` is the cumulative arc length from the start vertex.

    The lengths are rows of np.linalg.norm(..., axis=1); fem's boundary
    matrices round them as per-edge norms (``_row_norms``), one ulp away
    on a few edges.  Both stay: the tests' edge-loop oracles pin fem's,
    and moving these rotates the loop eigenbasis within its cos/sin
    pairs, which moves q-dagger and the ``rates`` bytes.
    """

    tag: str
    vertex_indices: np.ndarray
    edge_lengths: np.ndarray
    weights: np.ndarray
    arc_coords: np.ndarray

    def __post_init__(self):
        for arr in (self.vertex_indices, self.edge_lengths, self.weights, self.arc_coords):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.vertex_indices)

    @property
    def perimeter(self) -> float:
        return float(self.weights.sum())


@dataclass(eq=False)
class BoundaryVector:
    """Values on one boundary loop, in BoundaryIndexMap order."""

    tag: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def _cross_z(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas; positive for counterclockwise triangles."""
    (x0, x1, x2), (y0, y1, y2) = _corner_coordinates(vertices, triangles)
    # huge finite coordinates overflow to inf or NaN, which validate_mesh rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))


def _max_edge_length(vertices: np.ndarray, triangles: np.ndarray) -> float:
    xs, ys = _corner_coordinates(vertices, triangles)
    longest = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # as in triangle_areas
        for a, b in ((0, 1), (1, 2), (2, 0)):
            dx, dy = xs[a] - xs[b], ys[a] - ys[b]
            dx *= dx
            dy *= dy
            dx += dy
            # np.maximum, unlike max(), keeps a NaN wherever it stands
            longest = np.maximum(longest, dx.max(initial=0.0))
    # sqrt is monotone, so the root of the largest square is the largest length
    return float(np.sqrt(longest))


def _corner_coordinates(vertices: np.ndarray, triangles: np.ndarray):
    """The x and the y of each triangle corner, as three 1-D arrays each."""
    x, y = vertices[:, 0], vertices[:, 1]
    corners = triangles.T
    return [x[c] for c in corners], [y[c] for c in corners]


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
    # the sector count exceeds the ring count, so one finiteness check covers both
    sectors = 2.0 * np.pi * float(r_outer) / float(h_target)
    if not np.isfinite(sectors):
        raise InvalidGeometryError(
            f"require a finite 2*pi*r_outer/h_target, got r_outer={r_outer}, h_target={h_target}"
        )

    n_theta = max(8, int(np.ceil(sectors)))
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
    with np.errstate(divide="ignore", invalid="ignore"):  # validate_mesh rejects 0/0, a NaN
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


def _edge_keys(triangles: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, int]:
    """One int64 key min * base + max per side and per vertex pair, and the base.

    Sides are read row by row as (a, b), (b, c), (c, a), then the pairs; two sides or pairs
    share a key exactly when they join the same two vertices.
    """
    n_s = triangles.size
    a, b = np.empty(n_s + len(pairs), np.int64), np.empty(n_s + len(pairs), np.int64)
    side_a, side_b = a[:n_s].reshape(-1, 3), b[:n_s].reshape(-1, 3)  # views, filled in place
    side_a[:] = triangles
    side_b[:, :2], side_b[:, 2] = triangles[:, 1:], triangles[:, 0]
    a[n_s:], b[n_s:] = pairs[:, 0], pairs[:, 1]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b, out=b)
    base = int(hi.max(initial=0)) + 1
    lo *= base
    lo += hi
    return lo, base


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """True where a sorted array holds a value the entry before it does not."""
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _edge_table(triangles: np.ndarray, pairs: np.ndarray):
    """Edges of a triangulation and of extra vertex pairs, numbered in first-encounter order.

    Sides are read row by row as (a, b), (b, c), (c, a), then the pairs.  Returns the
    sorted endpoints of each edge, the (n_t, 3) edge of each side, each edge's triangle
    count and the edge of each pair.
    """
    keys, base = _edge_keys(triangles, pairs)
    order = np.argsort(keys, kind="stable")
    starts = _run_starts(keys[order])
    first = order[starts]  # each edge's first side or pair, in key order
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    number = np.cumsum(is_first) - 1  # at a first occurrence, its edge's number
    edge = np.empty(len(keys), dtype=np.intp)
    edge[order] = number[first][np.cumsum(starts) - 1]
    n_s = triangles.size
    counts = np.bincount(edge[:n_s], minlength=len(first))
    ends = keys[is_first]
    return (np.stack((ends // base, ends % base), axis=1), edge[:n_s].reshape(-1, 3), counts,
            edge[n_s:])


def validate_mesh(mesh: Mesh) -> None:
    """Check all Mesh invariants, raising InvalidGeometryError at the first that fails.

    The checks run in this order:

    1. every vertex coordinate and the maximum edge length h are finite;
    2. every triangle has positive signed area;
    3. every vertex lies on a triangle;
    4. no edge lies on more than two triangles;
    5. every tagged edge lies on exactly one triangle;
    6. the tagged edges are exactly the edges on one triangle;
    7. each of GammaI and GammaA tags one closed loop;
    8. the two loops share no vertex.

    A fault is named at its first occurrence in file order: the lowest unused vertex, the
    edge of the first crowded side (triangles row by row, sides (a, b), (b, c), (c, a)),
    the first stray tagged edge.  Edges are counted on sorted keys, not numbered.
    """
    if not (np.isfinite(mesh.vertices).all() and np.isfinite(mesh.h)):
        raise InvalidGeometryError("mesh has non-finite vertex coordinates or edge lengths")
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    if not (areas > 0.0).all():
        raise InvalidGeometryError("mesh contains non-positively-oriented triangles")
    unused = np.flatnonzero(np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices) == 0)
    if unused.size:
        raise InvalidGeometryError(f"vertex {unused[0]} lies on no triangle")

    keys, base = _edge_keys(mesh.triangles, mesh.boundary_edges)
    sides, tagged = keys[:mesh.triangles.size], keys[mesh.triangles.size:]
    edges = np.sort(sides)
    starts = np.flatnonzero(_run_starts(edges))
    edges, counts = edges[starts], np.diff(starts, append=len(sides))
    crowded = counts > 2
    if crowded.any():
        key = sides[np.isin(sides, edges[crowded])][0]
        count = counts[np.searchsorted(edges, key)]
        # bincount has rejected negative indices, so a side key splits back into its ends
        raise InvalidGeometryError(f"edge {(int(key // base), int(key % base))} "
                                   f"on {count} triangles")
    # a pair's count sits at its insertion point if its key is there; the padding counts 0
    at = np.searchsorted(edges, tagged)
    on = np.where(np.append(edges, 0)[at] == tagged, np.append(counts, 0)[at], 0)
    stray = np.flatnonzero(on != 1)
    if stray.size:
        a, b = mesh.boundary_edges[stray[0]].tolist()
        raise InvalidGeometryError(f"boundary edge {(min(a, b), max(a, b))} "
                                   "not on exactly one triangle")
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
    return BoundaryIndexMap(tag, np.asarray(order, dtype=np.int64), edge_len, weights, arc)


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format (VERTICES/TRIANGLES/BOUNDARY_EDGES)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # section by section: the whole text is never held at once
        fh.write(f"VERTICES {mesh.n_vertices}\n")
        fh.write("%r %r\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist()))
        fh.write(f"TRIANGLES {mesh.n_triangles}\n")
        fh.write("%d %d %d\n" * mesh.n_triangles % tuple(mesh.triangles.ravel().tolist()))
        fh.write(f"BOUNDARY_EDGES {len(mesh.boundary_edges)}\n")
        fh.write("".join(f"{a} {b} {tag}\n" for (a, b), tag in
                         zip(mesh.boundary_edges.tolist(), mesh.boundary_tags.tolist())))


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; a file that is not UTF-8 is a MalformedFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; a stand-in for it ends the count on its line
        head = exc.object[:exc.start].decode("utf-8") + "?"
        raise MalformedFileError(f"{path} is not UTF-8 text: cannot decode byte "
                                 f"0x{exc.object[exc.start]:02x}", len(head.splitlines())) from None


def read_records(lines: list[str], columns: tuple[type, ...],
                 delimiter: str | None = None) -> np.ndarray:
    """The longest prefix of lines that are records, as one structured array.

    Field i holds column i as int64 (int), float64 (float) or a whole token (str).  A valid
    file is read by one loadtxt call; else a bisection on prefixes, which fail as a whole,
    finds the first line that is no record, at index len(result).  An int column that int()
    reads beyond int64 reads as -1.
    """
    dtype = np.dtype([("", {int: np.int64, float: np.float64, str: object}[column])
                      for column in columns])

    def parse(lines: list[str]) -> np.ndarray | None:
        """The lines as records from one loadtxt call; None if one is bad."""
        if not lines:
            return np.empty(0, dtype)
        if not lines[0].strip():
            # loadtxt skips blank lines, and warns when it finds nothing else
            return None
        if delimiter is not None:
            # loadtxt strips U+001F around a field, as str.split() does; int() and float() do not
            lines = [line.replace("\x1f", "?") for line in lines]
        if int in columns and not all(map(str.isascii, lines)):
            # numpy 2.4.6's integer parser can segfault on non-ASCII characters (on U+52651
            # in about 3 runs of 10), so it gets the same tokens with '?' for non-ASCII
            lines = [" ".join(line.split()).encode("ascii", "replace").decode() for line in lines]
        try:
            records = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
        except ValueError:
            return None
        return records if len(records) == len(lines) else None

    records = parse(lines)
    if records is None and int in columns:
        lines = [_int64_or_minus_one(line, columns, delimiter) for line in lines]
        records = parse(lines)
    if records is None:
        lo, hi = 0, len(lines)  # prefix lo parses, prefix hi does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if parse(lines[:mid]) is None else (mid, hi)
        records = parse(lines[:lo])
    return records


def _int64_or_minus_one(line: str, columns, delimiter) -> str:
    """The line with -1 for each int field that int() reads outside int64, if all int() read."""
    fields = line.split(delimiter)
    try:
        big = [column is int and not -2**63 <= int(text) < 2**63
               for text, column in zip(fields, columns, strict=True)]
    except ValueError:  # a field int() does not read, or a field too many or too few
        return line
    return (delimiter or " ").join("-1" if b else text for text, b in zip(fields, big))


def load_mesh(path) -> Mesh:
    """Read and validate a mesh written by :func:`save_mesh`; round trip is bit-exact."""
    raw = read_lines(path)
    pos = 0

    def expect_header(name: str) -> int:
        nonlocal pos
        if pos >= len(raw):
            raise MalformedFileError(f"missing {name} section", pos + 1)
        parts = raw[pos].split()
        if len(parts) != 2 or parts[0] != name:
            raise MalformedFileError(f"expected '{name} <count>'", pos + 1)
        if not len(read_records(parts[1:], (int,))):  # the one number grammar
            raise MalformedFileError(f"bad {name} count {parts[1]!r}", pos + 1)
        pos += 1
        return int(parts[1])  # as the grammar reads it, a count beyond int64 included

    def section(count: int, columns: tuple[type, ...]) -> np.ndarray:
        """The count records after the header, read by one loadtxt call."""
        nonlocal pos
        lines = raw[pos:pos + max(count, 0)]
        records = read_records(lines, columns)
        if len(records) < len(lines):
            bad = len(records)
            raise MalformedFileError(f"malformed record {lines[bad]!r}", pos + bad + 1)
        if len(lines) < count:
            raise MalformedFileError("unexpected end of file", len(raw) + 1)
        pos += len(lines)
        return records

    n_v = expect_header("VERTICES")
    vertices = section(n_v, (float, float)).view((np.float64, 2))
    n_t = expect_header("TRIANGLES")
    first_triangle_line = pos + 1
    tris = section(n_t, (int, int, int)).view((np.int64, 3))
    n_b = expect_header("BOUNDARY_EDGES")
    first_edge_line = pos + 1
    edges = section(n_b, (int, int, str))
    tags = edges["f2"]
    unknown = np.flatnonzero(~np.isin(tags, VALID_TAGS))
    if unknown.size:
        ln = first_edge_line + int(unknown[0])
        raise MalformedFileError(f"unknown boundary tag {raw[ln - 1].split()[2]!r}", ln)
    for ln in range(pos, len(raw)):
        if raw[ln].strip():
            raise MalformedFileError(f"unexpected record {raw[ln]!r} after the boundary edges",
                                     ln + 1)

    def vertex_ids(ids: np.ndarray, first_line: int) -> np.ndarray:
        """Raise at the line of the first record naming no vertex; beyond int64 reads as -1."""
        bad = np.flatnonzero(((ids < 0) | (ids >= n_v)).any(axis=1))
        if bad.size:
            raise MalformedFileError("vertex index out of range", first_line + int(bad[0]))
        return ids

    triangles = vertex_ids(tris, first_triangle_line)
    boundary_edges = vertex_ids(np.stack((edges["f0"], edges["f1"]), axis=1),
                                first_edge_line)
    mesh = Mesh(vertices, triangles, boundary_edges, np.asarray(tags.tolist()),
                _max_edge_length(vertices, triangles))
    try:
        validate_mesh(mesh)
    except InvalidGeometryError as exc:
        raise MalformedFileError(f"invalid mesh in {path}: {exc}") from None
    return mesh
