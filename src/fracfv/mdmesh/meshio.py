"""Text-file exchange of conforming mixed-dimensional meshes.

Format (version 1), line oriented, ``#`` starts a comment::

    fracfv-mesh 1
    ambient <N>                       # 1, 2 or 3
    subdomains <count>                # at least 1
    subdomain <index>                 # 0, 1, 2, ... in turn
    dim <d>                           # 0 <= d <= N
    aperture <a>                      # positive; 1 for the first subdomain
    nodes <n_nodes>
    <x> [<y> [<z>]]                   # one line of N coordinates per node, 17 significant digits
    cells <n_cells> simplex|explicit
    <node> <node> ...                 # one line per cell
    faces <n_faces>                   # mandatory for explicit, optional for simplex
    <cell_plus> <cell_minus> : <node> <node> ...
    end
    interfaces <count>
    interface <higher> <lower> <n_pairs>
    <face> <cell>                     # one line per pair
    end                               # the last line of the document

Counts, dimensions and indices are non-negative integers, and every number
is finite. Cells declared
``simplex`` must list exactly d+1 nodes; their facets are derived
automatically when no ``faces`` block is present. ``explicit`` cells
(boxes, general polytopes) require the ``faces`` block, where ``cell_minus``
is ``-1`` on one-sided faces and polygon nodes are listed in boundary order,
each once. Geometry (centroids, measures, normals) is recomputed on load by
``grids.build_grid``, the builder of generated grids too; face normals point
outward from ``cell_plus``.
"""
from __future__ import annotations

import contextlib
import itertools
from pathlib import Path

import numpy as np

from ..errors import MeshFormatError
from .grids import SubdomainGrid, build_grid
from .mdmesh import InterfaceMap, MixedDimensionalMesh

FORMAT_NAME = "fracfv-mesh"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def _derive_simplex_faces(dim: int, cell_nodes):
    """Facets of a simplex mesh: all d-subsets of each cell's d+1 nodes,
    numbered in order of first appearance, with the first cell that lists a
    facet on its plus side. Returns the (n_faces, d) facet nodes and the
    (n_faces, 2) face-cell table."""
    cells = np.sort(np.reshape(cell_nodes, (-1, dim + 1)), axis=1)
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
    return facets[first], face_cells


def _take(lines, count: int) -> list[str]:
    """The next ``count`` entries of the iterator ``lines``."""
    block = list(itertools.islice(lines, count))
    if len(block) < count:
        raise MeshFormatError("unexpected end of mesh document")
    return block


def _parse_block(texts, kind=int, width: int | None = None, lines=None):
    """The pointer array whose entries ``i`` and ``i + 1`` bound the numbers
    of ``texts[i]``, and all those numbers as one array of type ``kind``.

    All texts are converted at once. Only when that fails, a number is not
    finite, or a text does not hold ``width`` numbers, is each tried in turn,
    so that MeshFormatError quotes the first failing entry of ``lines``
    (``texts`` by default).
    """
    widths = np.fromiter(map(len, map(str.split, texts)), dtype=int, count=len(texts))
    try:
        values = np.array(" ".join(texts).split(), dtype=kind)
        if (width is None or np.all(widths == width)) and np.isfinite(values).all():
            return np.concatenate(([0], np.cumsum(widths))), values
    except ValueError:
        pass
    for text, line in zip(texts, lines or texts):
        with contextlib.suppress(ValueError):
            numbers = np.array(text.split(), dtype=kind)
            if width in (None, numbers.size):
                if np.isfinite(numbers).all():
                    continue
                raise MeshFormatError(f"non-finite number in line {line!r}")
        raise MeshFormatError(f"malformed line {line!r}")


def _expect(line: str | None, keyword: str, count: int = 0, kind=int, start=0, stop=np.inf):
    """The tokens after ``keyword``, which must open ``line``, the first
    ``count`` of them read as numbers of type ``kind``; integers among them
    must lie in [start, stop)."""
    if line is None:
        raise MeshFormatError("unexpected end of mesh document")
    parts = line.split()
    if parts[0] != keyword:
        raise MeshFormatError(f"expected {keyword!r}, found {parts[0]!r}")
    values = _parse_block([" ".join(parts[1 : count + 1])], kind, count, [line])[1]
    if kind is int:
        _check_range(values, stop, f"line {line!r}: value", start)
    return values.tolist() + parts[count + 1 :]


def _check_range(indices, stop: int, what: str, start: int = 0) -> None:
    """Raise MeshFormatError unless every index lies in [start, stop)."""
    indices = np.asarray(indices)
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
    lines = filter(None, (raw.split("#", 1)[0].strip() for raw in text.splitlines()))
    header = next(lines, "").split()
    if header != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise MeshFormatError(f"unsupported mesh header {' '.join(header)!r}")
    ambient = _expect(next(lines, None), "ambient", 1, start=1, stop=4)[0]
    n_sub = _expect(next(lines, None), "subdomains", 1, start=1)[0]

    subdomains: list[SubdomainGrid] = []
    for expected in range(n_sub):
        idx = _expect(next(lines, None), "subdomain", 1)[0]
        if idx != expected:
            raise MeshFormatError(f"subdomain {expected} out of order (found {idx})")
        low = 0 if expected else ambient  # the first subdomain has the ambient dimension
        dim = _expect(next(lines, None), "dim", 1, start=low, stop=ambient + 1)[0]
        aperture = _expect(next(lines, None), "aperture", 1, float)[0]
        n_nodes = _expect(next(lines, None), "nodes", 1)[0]
        nodes = _parse_block(_take(lines, n_nodes), float, ambient)[1].reshape(n_nodes, ambient)
        cell_head = _expect(next(lines, None), "cells", 1)
        n_cells, cell_type = cell_head[0], " ".join(cell_head[1:])
        if cell_type not in ("simplex", "explicit"):
            raise MeshFormatError(f"unknown cell type {cell_type!r}")
        cell_lines = _take(lines, n_cells)
        cell_ptr, cell_idx = cell_nodes = _parse_block(cell_lines)
        if cell_type == "simplex":
            wrong = np.flatnonzero(np.diff(cell_ptr) != dim + 1)
            if wrong.size:
                c, line = wrong[0], cell_lines[wrong[0]]
                raise MeshFormatError(f"subdomain {idx} cell {c} is not a {dim}-simplex: {line!r}")
        _check_range(cell_idx, n_nodes, f"subdomain {idx} cell node")

        line = next(lines, None)
        if line is not None and line.split()[0] == "faces":
            n_faces = _expect(line, "faces", 1)[0]
            face_lines = _take(lines, n_faces)
            missing = [face_line for face_line in face_lines if ":" not in face_line]
            if missing:
                raise MeshFormatError(f"face line {missing[0]!r} has no ':'")
            halves = [face_line.split(":", 1) for face_line in face_lines]
            face_cells = _parse_block([h[0] for h in halves], int, 2, face_lines)[1].reshape(-1, 2)
            face_nodes = _parse_block([h[1] for h in halves], lines=face_lines)
            _check_range(face_nodes[1], n_nodes, f"subdomain {idx} face node")
            _check_range(face_cells, n_cells, f"subdomain {idx} face cell", -1)
            line = next(lines, None)
        elif cell_type == "simplex" and dim > 0:
            facets, face_cells = _derive_simplex_faces(dim, cell_idx)
            face_nodes = (np.arange(0, facets.size + 1, dim), facets.ravel())
        elif dim == 0:
            face_nodes, face_cells = (np.zeros(1, int), np.zeros(0, int)), np.zeros((0, 2), int)
        else:
            raise MeshFormatError(f"subdomain {idx}: explicit cells require a faces block")
        _expect(line, "end")
        kind = "simplex" if cell_type == "simplex" else "cartesian"
        subdomains.append(
            build_grid(dim, nodes, cell_nodes, face_nodes, face_cells, aperture, kind)
        )

    n_intf = _expect(next(lines, None), "interfaces", 1)[0]
    interfaces = []
    for _ in range(n_intf):
        higher, lower, n_pairs = _expect(next(lines, None), "interface", 3)[:3]
        _check_range((higher, lower), n_sub, "interface subdomain")
        pairs = _parse_block(_take(lines, n_pairs), int, 2)[1].reshape(n_pairs, 2)
        _check_range(pairs[:, 0], subdomains[higher].n_faces, f"interface {higher} {lower} face")
        _check_range(pairs[:, 1], subdomains[lower].n_cells, f"interface {higher} {lower} cell")
        interfaces.append(InterfaceMap(higher, lower, pairs))
        subdomains[higher].internal_boundary[pairs[:, 0]] = True
    _expect(next(lines, None), "end")
    extra = next(lines, None)
    if extra is not None:
        raise MeshFormatError(f"unexpected line {extra!r} after the final 'end'")

    mesh = MixedDimensionalMesh(subdomains, interfaces)
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


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
                fn = grid.face_nodes.tocsc()
                line_starts = np.repeat(fn.indptr[:-1], 2)
                values = np.insert(fn.indices, line_starts, grid.face_cells.ravel())
                handle.write(_index_lines(np.diff(fn.indptr), values, "%d %d : "))
            handle.write("end\n")
        handle.write(f"interfaces {len(mesh.interfaces)}\n")
        for intf in mesh.interfaces:
            handle.write(f"interface {intf.higher} {intf.lower} {intf.n_pairs}\n")
            np.savetxt(handle, intf.face_cell_pairs, fmt="%d")
        handle.write("end\n")
