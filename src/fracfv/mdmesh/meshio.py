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

    fn_rows = [n for l in face_node_lists for n in l]
    fn_cols = [f for f, l in enumerate(face_node_lists) for _ in l]
    face_nodes = sps.csc_matrix(
        (np.ones(len(fn_rows), dtype=bool), (fn_rows, fn_cols)), shape=(n_nodes, n_faces)
    )
    cn_rows = [n for l in cell_node_lists for n in l]
    cn_cols = [c for c, l in enumerate(cell_node_lists) for _ in l]
    cell_nodes = sps.csc_matrix(
        (np.ones(len(cn_rows), dtype=bool), (cn_rows, cn_cols)), shape=(n_nodes, n_cells)
    )

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
        face_nodes=face_nodes,
        cell_nodes=cell_nodes,
        aperture=aperture,
        internal_boundary=np.zeros(n_faces, dtype=bool),
        kind=kind,
    )


def _derive_simplex_faces(dim: int, cell_node_lists: list[list[int]]):
    """Facets of a simplex mesh: all d-subsets of each cell's d+1 nodes."""
    face_index: dict[tuple, int] = {}
    face_node_lists: list[list[int]] = []
    face_cells: list[list[int]] = []
    for c, cell_nodes in enumerate(cell_node_lists):
        for facet in itertools.combinations(sorted(cell_nodes), dim):
            key = tuple(facet)
            f = face_index.get(key)
            if f is None:
                face_index[key] = f = len(face_node_lists)
                face_node_lists.append(list(facet))
                face_cells.append([c, -1])
            else:
                if face_cells[f][1] != -1:
                    raise MeshFormatError(f"facet {key} shared by more than two cells")
                face_cells[f][1] = c
    return face_node_lists, [tuple(fc) for fc in face_cells]


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
        MeshFormatError: Structural problems in the document.
        ConformityError: Interface pairs that do not match geometrically.
    """
    text = Path(path).read_text()
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


def _ordered_face_nodes(grid: SubdomainGrid) -> list[np.ndarray]:
    """Each face's nodes, ordered along the polygon boundary for 3D polygons.

    Polygons are sorted by angle about their node mean in an orthonormal
    basis of their plane; all polygons with the same node count share one
    stacked SVD.
    """
    fn = grid.face_nodes.tocsc()
    node_lists = [fn.indices[a:b] for a, b in zip(fn.indptr[:-1], fn.indptr[1:])]
    if grid.dim < 3:
        return node_lists
    for faces, node_rows in _by_length(node_lists):
        if node_rows.shape[1] <= 3:
            continue
        shifted = grid.nodes[node_rows] - grid.nodes[node_rows].mean(axis=1, keepdims=True)
        _, _, vt = np.linalg.svd(shifted, full_matrices=False)
        angles = np.arctan2(
            np.einsum("fkd,fd->fk", shifted, vt[:, 1]), np.einsum("fkd,fd->fk", shifted, vt[:, 0])
        )
        ordered = np.take_along_axis(node_rows, np.argsort(angles, axis=1), axis=1)
        for f, row in zip(faces, ordered):
            node_lists[f] = row
    return node_lists


def save_mesh(mesh: MixedDimensionalMesh, path) -> None:
    """Write a mesh with explicit faces so split topologies round-trip."""
    out = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    out.append(f"ambient {mesh.ambient_dim}")
    out.append(f"subdomains {len(mesh.subdomains)}")
    for idx, grid in enumerate(mesh.subdomains):
        out.append(f"subdomain {idx}")
        out.append(f"dim {grid.dim}")
        out.append(f"aperture {grid.aperture:.17g}")
        out.append(f"nodes {grid.n_nodes}")
        for row in grid.nodes:
            out.append(" ".join(f"{v:.17g}" for v in row))
        cell_type = "simplex" if grid.kind == "simplex" else "explicit"
        out.append(f"cells {grid.n_cells} {cell_type}")
        for node_list in grid.cell_node_lists():
            out.append(" ".join(str(n) for n in node_list))
        if grid.n_faces or grid.dim > 0:
            out.append(f"faces {grid.n_faces}")
            for (c_plus, c_minus), node_list in zip(grid.face_cells, _ordered_face_nodes(grid)):
                node_str = " ".join(str(n) for n in node_list)
                out.append(f"{c_plus} {c_minus} : {node_str}")
        out.append("end")
    out.append(f"interfaces {len(mesh.interfaces)}")
    for intf in mesh.interfaces:
        out.append(f"interface {intf.higher} {intf.lower} {intf.n_pairs}")
        for face, cell in intf.face_cell_pairs:
            out.append(f"{face} {cell}")
    out.append("end")
    Path(path).write_text("\n".join(out) + "\n")
