"""Text-file exchange of conforming mixed-dimensional meshes.

Format (version 1), line oriented, ``#`` starts a comment::

    fracfv-mesh 1
    ambient <N>
    subdomains <count>
    subdomain <index>
    dim <d>
    aperture <a>
    nodes <n_nodes>
    <x> [<y> [<z>]]                   # one line per node, 17 significant digits
    cells <n_cells> simplex|explicit
    <node> <node> ...                 # one line per cell
    faces <n_faces>                   # mandatory for explicit, optional for simplex
    <cell_plus> <cell_minus> : <node> <node> ...
    end
    interfaces <count>
    interface <higher> <lower> <n_pairs>
    <face> <cell>                     # one line per pair
    end

Cells declared ``simplex`` must list exactly d+1 nodes; their facets are
derived automatically when no ``faces`` block is present. ``explicit`` cells
(boxes, general polytopes) require the ``faces`` block, where ``cell_minus``
is ``-1`` on one-sided faces and polygon nodes are listed in boundary order.
Geometry (centroids, measures, normals) is recomputed on load; face normals
point outward from ``cell_plus``.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import scipy.sparse as sps

from ..errors import MeshFormatError
from .grids import SubdomainGrid, cell_faces_of
from .mdmesh import InterfaceMap, MixedDimensionalMesh

FORMAT_NAME = "fracfv-mesh"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Geometry of general cells described by nodes and faces
# ---------------------------------------------------------------------------


def _by_length(lists: list[list[int]]):
    """For each length among ``lists``: the positions of the lists of that
    length, and those lists stacked as one integer array."""
    lengths = np.fromiter(map(len, lists), dtype=int, count=len(lists))
    for length in np.unique(lengths):
        positions = np.flatnonzero(lengths == length)
        stacked = np.array([lists[i] for i in positions], dtype=int)
        yield positions, stacked.reshape(positions.size, length)


def _incidence(node_lists: list[list[int]], n_nodes: int) -> sps.csc_matrix:
    """Boolean incidence, sparse (n_nodes, len(node_lists)), of entities
    given by their node lists."""
    counts = np.fromiter(map(len, node_lists), dtype=int, count=len(node_lists))
    rows = np.fromiter(itertools.chain.from_iterable(node_lists), dtype=int, count=counts.sum())
    cols = np.repeat(np.arange(len(node_lists)), counts)
    return sps.csc_matrix(
        (np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n_nodes, len(node_lists))
    )


def _polygon_geometry(nodes: np.ndarray, face_node_lists: list[list[int]]):
    """Areas, unit normals and centroids of planar polygons in 3D.

    Each polygon (nodes in boundary order) is split into a fan of triangles
    about its node mean; all polygons with the same node count are done at once.
    """
    n_faces = len(face_node_lists)
    areas, normals, centroids = np.zeros(n_faces), np.zeros((n_faces, 3)), np.zeros((n_faces, 3))
    for faces, node_rows in _by_length(face_node_lists):
        pts = nodes[node_rows]
        ahead = np.roll(pts, -1, axis=1)
        ref = pts.mean(axis=1, keepdims=True)
        cross = np.cross(pts - ref, ahead - ref)
        tri_areas = 0.5 * np.linalg.norm(cross, axis=2)
        area = tri_areas.sum(axis=1)
        if area.min() <= 0.0:
            raise MeshFormatError("degenerate polygon face")
        total = 0.5 * cross.sum(axis=1)
        areas[faces] = area
        normals[faces] = total / np.linalg.norm(total, axis=1, keepdims=True)
        weighted = np.einsum("fk,fkd->fd", tri_areas, ref + pts + ahead) / 3.0
        centroids[faces] = weighted / area[:, None]
    return areas, normals, centroids


def _build_grid_from_entities(
    dim: int,
    ambient: int,
    nodes: np.ndarray,
    cell_node_lists: list[list[int]],
    face_node_lists: list[list[int]],
    face_cells: list[tuple[int, int]],
    aperture: float,
    kind: str,
) -> SubdomainGrid:
    n_cells = len(cell_node_lists)
    n_faces = len(face_node_lists)
    n_nodes = nodes.shape[0]

    cell_centres = np.zeros((n_cells, ambient))
    for cells, node_rows in _by_length(cell_node_lists):
        cell_centres[cells] = nodes[node_rows].mean(axis=1)

    # Face centroids, measures and unit normals, then normals oriented
    # outward from the plus cell.
    table = np.asarray(face_cells, dtype=int).reshape(n_faces, 2)
    c_plus, c_minus = table.T
    face_normals = None  # unless the face alone fixes it, the adjacent cell does
    if dim == 3:
        face_measures, face_normals, face_centres = _polygon_geometry(nodes, face_node_lists)
    elif dim == 2:
        if any(len(node_list) != 2 for node_list in face_node_lists):
            raise MeshFormatError("faces of 2D cells must have two nodes")
        ends = nodes[np.array(face_node_lists, dtype=int).reshape(n_faces, 2)]
        edges = ends[:, 1] - ends[:, 0]
        face_measures = np.linalg.norm(edges, axis=1)
        if n_faces and face_measures.min() <= 0:
            raise MeshFormatError("zero-length face")
        face_centres = ends.mean(axis=1)
        along = edges / face_measures[:, None]
        if ambient == 2:
            face_normals = np.column_stack([along[:, 1], -along[:, 0]])
    else:  # point faces of 1D cells; 0D cells have no faces
        face_centres = nodes[[node_list[0] for node_list in face_node_lists]]
        face_centres = face_centres.reshape(n_faces, ambient)
        face_measures = np.ones(n_faces)
    outward = face_centres - cell_centres[np.where(c_plus >= 0, c_plus, c_minus)]
    if face_normals is None:
        if dim == 2:  # in-plane perpendicular of an edge of a 2D cell in 3D
            face_normals = outward - np.sum(outward * along, axis=1, keepdims=True) * along
        else:
            face_normals = outward
        lengths = np.linalg.norm(face_normals, axis=1)
        if n_faces and lengths.min() <= 0:
            raise MeshFormatError(f"cannot orient face {int(np.argmin(lengths))}")
        face_normals = face_normals / lengths[:, None]
    # Flip normals that point into their anchor cell; a face stored with only
    # a minus side keeps its normal pointing into that side.
    flip = (np.sum(face_normals * outward, axis=1) < 0) != (c_plus < 0)
    face_normals[flip] *= -1.0

    # Cell volumes by the divergence theorem over outward-oriented faces.
    if dim == 0:
        cell_measures = np.ones(n_cells)
    else:
        cf = cell_faces_of(table, n_cells).tocoo()
        offsets = face_centres[cf.row] - cell_centres[cf.col]
        contrib = face_measures[cf.row] * np.sum(face_normals[cf.row] * offsets, axis=1)
        cell_measures = np.bincount(cf.col, weights=cf.data * contrib / dim, minlength=n_cells)
    if dim > 0 and n_faces and cell_measures.min() <= 0:
        bad = int(np.argmin(cell_measures))
        raise MeshFormatError(f"cell {bad} has non-positive volume {cell_measures[bad]:.3e}")

    return SubdomainGrid(
        dim=dim,
        ambient_dim=ambient,
        nodes=nodes,
        cell_centres=cell_centres,
        geometric_cell_measures=cell_measures,
        face_centres=face_centres,
        face_normals=face_normals,
        geometric_face_measures=face_measures,
        face_cells=table,
        face_nodes=_incidence(face_node_lists, n_nodes),
        cell_nodes=_incidence(cell_node_lists, n_nodes),
        aperture=aperture,
        internal_boundary=np.zeros(n_faces, dtype=bool),
        kind=kind,
    )


def _derive_simplex_faces(dim: int, cell_node_lists: list[list[int]]):
    """Facets of a simplex mesh: all d-subsets of each cell's d+1 nodes,
    numbered in order of first appearance, with the first cell that lists a
    facet on its plus side."""
    cells = np.sort(np.reshape(cell_node_lists, (-1, dim + 1)), axis=1)
    facets = cells[:, list(itertools.combinations(range(dim + 1), dim))].reshape(-1, dim)
    # Equal facets sort next to each other, in cell order: lexsort is stable.
    order = np.lexsort(facets.T[::-1])
    again = np.flatnonzero(np.all(np.diff(facets[order], axis=0) == 0, axis=1)) + 1
    third = again[np.isin(again - 1, again)]
    if third.size:
        key = tuple(facets[order[third].min()].tolist())
        raise MeshFormatError(f"facet {key} shared by more than two cells")
    first = np.ones(order.size, dtype=bool)
    first[order[again]] = False
    face_cells = np.full((np.count_nonzero(first), 2), -1)
    face_cells[:, 0] = np.flatnonzero(first) // (dim + 1)
    face_cells[np.cumsum(first)[order[again - 1]] - 1, 1] = order[again] // (dim + 1)
    return facets[first].tolist(), face_cells


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


class _Lines:
    def __init__(self, text: str):
        self.lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                self.lines.append(line)
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise MeshFormatError("unexpected end of mesh document")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, keyword: str, count: int = 0, kind=int) -> list:
        """The tokens after ``keyword``, which must open the next line, the
        first ``count`` of them read as numbers of type ``kind``."""
        line = self.next()
        parts = line.split()
        if parts[0] != keyword:
            raise MeshFormatError(f"expected {keyword!r}, found {parts[0]!r}")
        return _numbers(line, " ".join(parts[1 : count + 1]), count, kind) + parts[count + 1 :]

    def peek_keyword(self) -> str:
        if self.pos >= len(self.lines):
            return ""
        return self.lines[self.pos].split()[0]


def _numbers(line: str, part: str | None = None, count: int | None = None, kind=int) -> list:
    """The numbers of type ``kind`` in ``part`` of ``line`` (all of it by
    default), of which there must be ``count`` if given; MeshFormatError
    names the line."""
    try:
        values = [kind(v) for v in (line if part is None else part).split()]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise MeshFormatError(f"malformed line {line!r}")
    return values


def _check_range(indices, stop: int, what: str, start: int = 0) -> None:
    """Raise MeshFormatError unless every index lies in [start, stop)."""
    indices = np.fromiter(indices, dtype=int)
    outside = indices[(indices < start) | (indices >= stop)]
    if outside.size:
        raise MeshFormatError(f"{what} {outside[0]} is out of range [{start}, {stop})")


def load_mesh(path) -> MixedDimensionalMesh:
    """Read a conforming mixed-dimensional mesh and validate all invariants.

    Raises:
        MeshFormatError: An unreadable file, or structural problems in the
            document.
        ConformityError: Interface pairs that do not match geometrically.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read mesh document {path}: {exc}") from exc
    lines = _Lines(text)
    header = lines.next().split()
    if header != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise MeshFormatError(f"unsupported mesh header {' '.join(header)!r}")
    ambient = lines.expect("ambient", 1)[0]
    n_sub = lines.expect("subdomains", 1)[0]

    subdomains: list[SubdomainGrid] = []
    for expected in range(n_sub):
        idx = lines.expect("subdomain", 1)[0]
        if idx != expected:
            raise MeshFormatError(f"subdomain {expected} out of order (found {idx})")
        dim = lines.expect("dim", 1)[0]
        aperture = lines.expect("aperture", 1, float)[0]
        n_nodes = lines.expect("nodes", 1)[0]
        nodes = np.empty((n_nodes, ambient))
        for i in range(n_nodes):
            vals = _numbers(lines.next(), kind=float)
            if len(vals) != ambient:
                raise MeshFormatError(f"node {i}: expected {ambient} coordinates")
            nodes[i] = vals
        cell_head = lines.expect("cells", 1)
        n_cells, cell_type = cell_head[0], " ".join(cell_head[1:])
        if cell_type not in ("simplex", "explicit"):
            raise MeshFormatError(f"unknown cell type {cell_type!r}")
        cell_node_lists = []
        for c in range(n_cells):
            node_list = _numbers(lines.next())
            if cell_type == "simplex" and dim > 0 and len(node_list) != dim + 1:
                raise MeshFormatError(
                    f"subdomain {idx} cell {c} is not a {dim}-simplex "
                    f"({len(node_list)} nodes, expected {dim + 1})"
                )
            cell_node_lists.append(node_list)
        _check_range(itertools.chain(*cell_node_lists), n_nodes, f"subdomain {idx} cell node")

        if lines.peek_keyword() == "faces":
            n_faces = lines.expect("faces", 1)[0]
            face_node_lists, face_cells = [], []
            for f in range(n_faces):
                line = lines.next()
                left, colon, right = line.partition(":")
                if not colon:
                    raise MeshFormatError(f"face line {line!r} has no ':'")
                face_cells.append(tuple(_numbers(line, left, 2)))
                face_node_lists.append(_numbers(line, right))
            _check_range(itertools.chain(*face_node_lists), n_nodes, f"subdomain {idx} face node")
            _check_range(itertools.chain(*face_cells), n_cells, f"subdomain {idx} face cell", -1)
        elif cell_type == "simplex" and dim > 0:
            face_node_lists, face_cells = _derive_simplex_faces(dim, cell_node_lists)
        elif dim == 0:
            face_node_lists, face_cells = [], []
        else:
            raise MeshFormatError(f"subdomain {idx}: explicit cells require a faces block")
        lines.expect("end")
        kind = "simplex" if cell_type == "simplex" else "cartesian"
        subdomains.append(
            _build_grid_from_entities(
                dim, ambient, nodes, cell_node_lists, face_node_lists, face_cells, aperture, kind
            )
        )

    n_intf = lines.expect("interfaces", 1)[0]
    interfaces = []
    for _ in range(n_intf):
        higher, lower, n_pairs = lines.expect("interface", 3)[:3]
        _check_range((higher, lower), n_sub, "interface subdomain")
        pairs = np.empty((n_pairs, 2), dtype=int)
        for i in range(n_pairs):
            pairs[i] = _numbers(lines.next(), count=2)
        _check_range(pairs[:, 0], subdomains[higher].n_faces, f"interface {higher} {lower} face")
        _check_range(pairs[:, 1], subdomains[lower].n_cells, f"interface {higher} {lower} cell")
        interfaces.append(InterfaceMap(higher, lower, pairs))
        subdomains[higher].internal_boundary[pairs[:, 0]] = True
    lines.expect("end")

    mesh = MixedDimensionalMesh(subdomains, interfaces)
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def _ordered_face_nodes(grid: SubdomainGrid) -> np.ndarray:
    """The nodes of every face, face by face as in the CSC ``face_nodes``,
    with the nodes of each 3D polygon ordered along its boundary.

    Polygons are sorted by angle about their node mean in an orthonormal
    basis of their plane; all polygons with the same node count share one
    stacked SVD.
    """
    fn = grid.face_nodes.tocsc()
    nodes, widths = fn.indices.copy(), np.diff(fn.indptr)
    if grid.dim < 3:
        return nodes
    for width in np.unique(widths[widths > 3]):
        slots = fn.indptr[:-1][widths == width, None] + np.arange(width)
        node_rows = nodes[slots]
        shifted = grid.nodes[node_rows] - grid.nodes[node_rows].mean(axis=1, keepdims=True)
        _, _, vt = np.linalg.svd(shifted, full_matrices=False)
        angles = np.arctan2(
            np.einsum("fkd,fd->fk", shifted, vt[:, 1]), np.einsum("fkd,fd->fk", shifted, vt[:, 0])
        )
        nodes[slots] = np.take_along_axis(node_rows, np.argsort(angles, axis=1), axis=1)
    return nodes


def _index_lines(widths: np.ndarray, values: np.ndarray, prefix: str = "") -> str:
    """One line per entry of ``widths``: ``prefix``, then that many integers
    from ``values`` separated by spaces. The ``%d`` fields of ``prefix`` take
    their integers from ``values`` first."""
    unique, which = np.unique(widths, return_inverse=True)
    formats = np.array([prefix + " ".join(["%d"] * w) + "\n" for w in unique.tolist()])
    return "".join(formats[which]) % tuple(values.tolist())


def save_mesh(mesh: MixedDimensionalMesh, path) -> None:
    """Write a mesh with explicit faces so split topologies round-trip."""
    with open(path, "w") as handle:
        handle.write(f"{FORMAT_NAME} {FORMAT_VERSION}\n")
        handle.write(f"ambient {mesh.ambient_dim}\nsubdomains {len(mesh.subdomains)}\n")
        for idx, grid in enumerate(mesh.subdomains):
            handle.write(f"subdomain {idx}\ndim {grid.dim}\naperture {grid.aperture:.17g}\n")
            handle.write(f"nodes {grid.n_nodes}\n")
            np.savetxt(handle, grid.nodes, fmt="%.17g")
            cell_type = "simplex" if grid.kind == "simplex" else "explicit"
            handle.write(f"cells {grid.n_cells} {cell_type}\n")
            cn = grid.cell_nodes.tocsc()
            handle.write(_index_lines(np.diff(cn.indptr), cn.indices))
            if grid.n_faces or grid.dim > 0:
                handle.write(f"faces {grid.n_faces}\n")
                indptr = grid.face_nodes.tocsc().indptr
                values = np.insert(
                    _ordered_face_nodes(grid), np.repeat(indptr[:-1], 2), grid.face_cells.ravel()
                )
                handle.write(_index_lines(np.diff(indptr), values, "%d %d : "))
            handle.write("end\n")
        handle.write(f"interfaces {len(mesh.interfaces)}\n")
        for intf in mesh.interfaces:
            handle.write(f"interface {intf.higher} {intf.lower} {intf.n_pairs}\n")
            np.savetxt(handle, intf.face_cell_pairs, fmt="%d")
        handle.write("end\n")
