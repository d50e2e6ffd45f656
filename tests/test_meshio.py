"""Mesh document format: import, export, round-trips and error paths.

The per-row writer that ``save_mesh`` replaced, the line reader that
``load_mesh`` replaced and the dictionary loop that derived simplex facets are
kept here as reference oracles.
"""

import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNIT_SQUARE_CELL, write_kuhn_mesh, write_triangle_square_mesh
from fracfv.errors import ConformityError, MeshError, MeshFormatError
from fracfv.harness.cases import case4_problem, case11_problem, case13_problem
from fracfv.harness.cli import main
from fracfv.mdmesh import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    load_mesh,
    save_mesh,
)
from fracfv.mdmesh.grids import SubdomainGrid, cell_faces_of, validate_grid
from fracfv.mdmesh.mdmesh import InterfaceMap, MixedDimensionalMesh
from fracfv.mdmesh.meshio import _derive_simplex_faces

TRIANGLE_PAIR = """fracfv-mesh 1
ambient 2
subdomains 1
subdomain 0
dim 2
aperture 1
nodes 4
0 0
1 0
0 1
1 1
cells 2 simplex
0 1 2
1 3 2
end
interfaces 0
end
"""


# ---------------------------------------------------------------------------
# Reference oracles: the per-row writer and the facet loop
# ---------------------------------------------------------------------------


def _face_node_lists(grid):
    """Each face's nodes in the order the grid stores them, 3D polygons'
    along their boundary."""
    fn = grid.face_nodes.tocsc()
    return [fn.indices[a:b] for a, b in zip(fn.indptr[:-1], fn.indptr[1:])]


def loop_save_mesh(mesh, path):
    out = ["fracfv-mesh 1", f"ambient {mesh.ambient_dim}", f"subdomains {len(mesh.subdomains)}"]
    for idx, grid in enumerate(mesh.subdomains):
        out.append(f"subdomain {idx}")
        out.append(f"dim {grid.dim}")
        out.append(f"aperture {grid.aperture:.17g}")
        out.append(f"nodes {grid.n_nodes}")
        for row in grid.nodes:
            out.append(" ".join(f"{v:.17g}" for v in row))
        cell_type = "simplex" if grid.kind == "simplex" else "explicit"
        out.append(f"cells {grid.n_cells} {cell_type}")
        cn = grid.cell_nodes.tocsc()
        for c in range(grid.n_cells):
            out.append(" ".join(str(n) for n in cn.indices[cn.indptr[c] : cn.indptr[c + 1]]))
        if grid.n_faces or grid.dim > 0:
            out.append(f"faces {grid.n_faces}")
            for (c_plus, c_minus), node_list in zip(grid.face_cells, _face_node_lists(grid)):
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


def loop_derive_simplex_faces(dim, cell_node_lists):
    face_index = {}
    face_node_lists = []
    face_cells = []
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


def _assert_faces_match_loop(dim, cells):
    try:
        expected = loop_derive_simplex_faces(dim, cells)
    except MeshFormatError as exc:
        with pytest.raises(MeshFormatError) as raised:
            _derive_simplex_faces(dim, cells)
        assert str(raised.value) == str(exc)
        return
    faces, face_cells = _derive_simplex_faces(dim, cells)
    assert faces.tolist() == expected[0]
    assert face_cells.tolist() == [list(fc) for fc in expected[1]]



# ---------------------------------------------------------------------------
# Reference oracle: the line reader and the grid build from Python lists
# ---------------------------------------------------------------------------


def _loop_by_length(lists):
    lengths = np.fromiter(map(len, lists), dtype=int, count=len(lists))
    for length in np.unique(lengths):
        positions = np.flatnonzero(lengths == length)
        stacked = np.array([lists[i] for i in positions], dtype=int)
        yield positions, stacked.reshape(positions.size, length)


def _loop_incidence(node_lists, n_nodes):
    """CSC incidence whose column i holds ``node_lists[i]`` in list order."""
    indptr = np.cumsum([0] + [len(node_list) for node_list in node_lists])
    rows = np.fromiter(itertools.chain.from_iterable(node_lists), dtype=int, count=indptr[-1])
    return sps.csc_matrix(
        (np.ones(rows.size, dtype=bool), rows, indptr), shape=(n_nodes, len(node_lists))
    )


def _loop_polygons(nodes, face_node_lists):
    n_faces = len(face_node_lists)
    areas, normals, centroids = np.zeros(n_faces), np.zeros((n_faces, 3)), np.zeros((n_faces, 3))
    for faces, node_rows in _loop_by_length(face_node_lists):
        pts = nodes[node_rows]
        ahead = np.roll(pts, -1, axis=1)
        ref = pts.mean(axis=1, keepdims=True)
        cross = np.cross(pts - ref, ahead - ref)
        tri_areas = 0.5 * np.linalg.norm(cross, axis=2)
        area = tri_areas.sum(axis=1)
        total = 0.5 * cross.sum(axis=1)
        areas[faces] = area
        normals[faces] = total / np.linalg.norm(total, axis=1, keepdims=True)
        weighted = np.einsum("fk,fkd->fd", tri_areas, ref + pts + ahead) / 3.0
        centroids[faces] = weighted / area[:, None]
    return areas, normals, centroids


def _loop_build_grid(
    dim, ambient, nodes, cell_node_lists, face_node_lists, face_cells, aperture, kind
):
    n_cells, n_faces = len(cell_node_lists), len(face_node_lists)
    cell_centres = np.zeros((n_cells, ambient))
    for cells, node_rows in _loop_by_length(cell_node_lists):
        cell_centres[cells] = nodes[node_rows].mean(axis=1)
    table = np.asarray(face_cells, dtype=int).reshape(n_faces, 2)
    c_plus, c_minus = table.T
    face_normals = None
    if dim == 3:
        face_measures, face_normals, face_centres = _loop_polygons(nodes, face_node_lists)
    elif dim == 2:
        ends = nodes[np.array(face_node_lists, dtype=int).reshape(n_faces, 2)]
        edges = ends[:, 1] - ends[:, 0]
        face_measures = np.linalg.norm(edges, axis=1)
        face_centres = ends.mean(axis=1)
        along = edges / face_measures[:, None]
        if ambient == 2:
            face_normals = np.column_stack([along[:, 1], -along[:, 0]])
    else:
        face_centres = nodes[[node_list[0] for node_list in face_node_lists]]
        face_centres = face_centres.reshape(n_faces, ambient)
        face_measures = np.ones(n_faces)
    outward = face_centres - cell_centres[np.where(c_plus >= 0, c_plus, c_minus)]
    if face_normals is None:
        if dim == 2:
            face_normals = outward - np.sum(outward * along, axis=1, keepdims=True) * along
        else:
            face_normals = outward
        face_normals = face_normals / np.linalg.norm(face_normals, axis=1)[:, None]
    flip = (np.sum(face_normals * outward, axis=1) < 0) != (c_plus < 0)
    face_normals[flip] *= -1.0
    if dim == 0:
        cell_measures = np.ones(n_cells)
    else:
        cf = cell_faces_of(table, n_cells).tocoo()
        offsets = face_centres[cf.row] - cell_centres[cf.col]
        contrib = face_measures[cf.row] * np.sum(face_normals[cf.row] * offsets, axis=1)
        cell_measures = np.bincount(cf.col, weights=cf.data * contrib / dim, minlength=n_cells)
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
        face_nodes=_loop_incidence(face_node_lists, nodes.shape[0]),
        cell_nodes=_loop_incidence([sorted(set(c)) for c in cell_node_lists], nodes.shape[0]),
        aperture=aperture,
        internal_boundary=np.zeros(n_faces, dtype=bool),
        kind=kind,
    )


def loop_load_mesh(path):
    """The line-by-line reader that ``load_mesh`` replaced, without its
    checks: every node, cell, face and pair line is parsed on its own into
    Python lists, and each grid is built from those lists."""
    stripped = (raw.split("#", 1)[0].strip() for raw in Path(path).read_text().splitlines())
    lines = iter([line for line in stripped if line])

    def expect(keyword, count=0, kind=int):
        parts = next(lines).split()
        assert parts[0] == keyword
        return [kind(v) for v in parts[1 : count + 1]] + parts[count + 1 :]

    assert next(lines).split() == ["fracfv-mesh", "1"]
    ambient = expect("ambient", 1)[0]
    subdomains = []
    for _ in range(expect("subdomains", 1)[0]):
        expect("subdomain", 1)
        dim = expect("dim", 1)[0]
        aperture = expect("aperture", 1, float)[0]
        nodes = np.empty((expect("nodes", 1)[0], ambient))
        for i in range(nodes.shape[0]):
            nodes[i] = [float(v) for v in next(lines).split()]
        n_cells, cell_type = expect("cells", 1)
        cells = [[int(v) for v in next(lines).split()] for _ in range(n_cells)]
        line = next(lines)
        if line.split()[0] == "faces":
            faces, face_cells = [], []
            for _ in range(int(line.split()[1])):
                left, _, right = next(lines).partition(":")
                face_cells.append(tuple(int(v) for v in left.split()))
                faces.append([int(v) for v in right.split()])
            line = next(lines)
        elif dim > 0:
            faces, face_cells = loop_derive_simplex_faces(dim, cells)
        else:
            faces, face_cells = [], []
        assert line.split() == ["end"]
        kind = "simplex" if cell_type == "simplex" else "cartesian"
        subdomains.append(
            _loop_build_grid(dim, ambient, nodes, cells, faces, face_cells, aperture, kind)
        )
    interfaces = []
    for _ in range(expect("interfaces", 1)[0]):
        higher, lower, n_pairs = expect("interface", 3)
        pairs = np.empty((n_pairs, 2), dtype=int)
        for i in range(n_pairs):
            pairs[i] = [int(v) for v in next(lines).split()]
        interfaces.append(InterfaceMap(higher, lower, pairs))
        subdomains[higher].internal_boundary[pairs[:, 0]] = True
    assert expect("end") == [] and next(lines, None) is None
    return MixedDimensionalMesh(subdomains, interfaces)


def _assert_identical(a, b, name):
    assert type(a) is type(b), name
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    else:
        assert a == b, name


def _assert_same_mesh(mesh, oracle, skip=()):
    """``mesh`` is ``oracle`` bit for bit: every grid field not named in
    ``skip`` with its dtype, the CSC arrays of the node incidences, and the
    interface pairs."""
    assert len(mesh.subdomains) == len(oracle.subdomains)
    for grid, expected in zip(mesh.subdomains, oracle.subdomains):
        for field in dataclasses.fields(grid):
            if field.name in skip:
                continue
            a, b = getattr(grid, field.name), getattr(expected, field.name)
            if sps.issparse(b):
                assert a.format == b.format == "csc", field.name
                for part in ("indptr", "indices", "data"):
                    _assert_identical(getattr(a, part), getattr(b, part), field.name)
            else:
                _assert_identical(a, b, field.name)
    assert len(mesh.interfaces) == len(oracle.interfaces)
    for intf, expected in zip(mesh.interfaces, oracle.interfaces):
        assert (intf.higher, intf.lower) == (expected.higher, expected.lower)
        _assert_identical(intf.face_cell_pairs, expected.face_cell_pairs, "face_cell_pairs")


def _assert_loads_like_loop(path):
    """``load_mesh`` gives the oracle's mesh bit for bit."""
    _assert_same_mesh(load_mesh(path), loop_load_mesh(path))


def test_triangle_pair_import(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(TRIANGLE_PAIR)
    mesh = load_mesh(path)
    assert len(mesh.subdomains) == 1
    g = mesh.subdomains[0]
    assert g.n_cells == 2
    assert g.n_faces == 5
    assert np.allclose(g.geometric_cell_measures, 0.5)
    assert g.kind == "simplex"


def test_cartesian_fracture_round_trip(tmp_path):
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0), (0.0, 1.0)),
        fractures=[FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "v")],
    )
    mesh = build_cartesian_with_fractures(spec, (2, 1))
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert len(loaded.subdomains) == len(mesh.subdomains)
    assert len(loaded.interfaces) == len(mesh.interfaces)
    for g1, g2 in zip(mesh.subdomains, loaded.subdomains):
        assert (g1.n_cells, g1.n_faces, g1.n_nodes) == (g2.n_cells, g2.n_faces, g2.n_nodes)
        assert np.array_equal(g1.nodes, g2.nodes)  # 17 digits round-trip exactly
        assert np.allclose(g1.cell_volumes, g2.cell_volumes, rtol=1e-14, atol=0)
        assert np.allclose(g1.face_areas, g2.face_areas, rtol=1e-14, atol=0)
        assert np.allclose(g1.face_centres, g2.face_centres, atol=1e-15)
        assert np.allclose(g1.face_normals, g2.face_normals, atol=1e-14)
        assert (g1.cell_faces != g2.cell_faces).nnz == 0
        assert np.array_equal(g1.internal_boundary, g2.internal_boundary)
    for i1, i2 in zip(mesh.interfaces, loaded.interfaces):
        assert (i1.higher, i1.lower) == (i2.higher, i2.lower)
        assert np.array_equal(i1.face_cell_pairs, i2.face_cell_pairs)


def test_three_dimensional_round_trip(tmp_path):
    spec = FractureNetworkSpec(
        domain=((0.0, 1.0),) * 3,
        fractures=[FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-3, 1.0, "f")],
    )
    mesh = build_cartesian_with_fractures(spec, 2)
    path = tmp_path / "mesh3d.txt"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    for g1, g2 in zip(mesh.subdomains, loaded.subdomains):
        assert np.allclose(g1.cell_volumes, g2.cell_volumes, rtol=1e-13, atol=0)
        assert np.allclose(g1.face_areas, g2.face_areas, rtol=1e-13, atol=0)
        assert np.allclose(np.abs(g1.face_normals), np.abs(g2.face_normals), atol=1e-13)
    loaded.validate()


def _loop_polygon_geometry(pts):
    """Oracle: area, unit normal and centroid of one polygon, one fan
    triangle at a time."""
    ref = pts.mean(axis=0)
    total, centroid_acc, area_acc = np.zeros(3), np.zeros(3), 0.0
    for a, b in zip(pts, np.roll(pts, -1, axis=0)):
        cross = np.cross(a - ref, b - ref)
        tri_area = 0.5 * np.linalg.norm(cross)
        total += 0.5 * cross
        centroid_acc += tri_area * (ref + a + b) / 3.0
        area_acc += tri_area
    return area_acc, total / np.linalg.norm(total), centroid_acc / area_acc


def _assert_polygon_faces_match_loop(grid, face_node_lists):
    oracle = [_loop_polygon_geometry(grid.nodes[nodes]) for nodes in face_node_lists]
    areas = np.array([o[0] for o in oracle])
    normals = np.array([o[1] for o in oracle])
    centroids = np.array([o[2] for o in oracle])
    assert np.abs(grid.geometric_face_measures - areas).max() <= 1e-14 * areas.max()
    assert np.abs(grid.face_centres - centroids).max() <= 1e-14 * np.abs(centroids).max()
    # Loaded normals are oriented outward from the plus cell; the oracle's are not.
    signs = np.sign(np.sum(grid.face_normals * normals, axis=1))[:, None]
    assert np.abs(grid.face_normals - signs * normals).max() <= 1e-14


def test_polygon_geometry_matches_loop_on_case13_round_trip(tmp_path):
    _, mesh = case13_problem(resolution=8)
    path = tmp_path / "case13.txt"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    for original, grid in zip(mesh.subdomains, loaded.subdomains):
        if grid.dim == 3:
            _assert_polygon_faces_match_loop(grid, _face_node_lists(original))


def test_polygon_geometry_matches_loop_on_perturbed_tetrahedra(tmp_path):
    # Kuhn triangulation of a 3 x 3 x 3 cube grid, interior nodes perturbed.
    cubes = 3
    path = tmp_path / "kuhn.txt"
    cells = write_kuhn_mesh(path, cubes, seed=20240917)
    grid = load_mesh(path).subdomains[0]
    faces, _ = _derive_simplex_faces(3, cells)
    assert grid.n_cells == 6 * cubes**3
    _assert_polygon_faces_match_loop(grid, faces)


def test_conformity_error_names_pair(tmp_path):
    # A 1D fracture cell whose centroid does not match the paired faces.
    text = """fracfv-mesh 1
ambient 2
subdomains 2
subdomain 0
dim 2
aperture 1
nodes 6
0 0
0 1
0.5 0
0.5 1
1 0
1 1
cells 2 explicit
0 1 2 3
2 3 4 5
faces 8
-1 0 : 0 1
0 -1 : 2 3
1 -1 : 4 5
-1 0 : 0 2
0 -1 : 1 3
-1 1 : 2 4
1 -1 : 3 5
1 -1 : 2 3
end
subdomain 1
dim 1
aperture 0.01
nodes 2
0.5 0.2
0.5 1.2
cells 1 explicit
0 1
faces 2
-1 0 : 0
0 -1 : 1
end
interfaces 1
interface 0 1 2
1 0
7 0
end
"""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConformityError, match="face 1"):
        load_mesh(path)


def test_non_simplex_cell_rejected(tmp_path):
    text = TRIANGLE_PAIR.replace("cells 2 simplex\n0 1 2\n1 3 2", "cells 1 simplex\n0 1 3 2")
    path = tmp_path / "quad.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match="simplex"):
        load_mesh(path)


def test_explicit_cells_require_faces(tmp_path):
    text = TRIANGLE_PAIR.replace("cells 2 simplex", "cells 2 explicit")
    path = tmp_path / "nofaces.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match="faces"):
        load_mesh(path)


def test_unit_square_cell_loads(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(UNIT_SQUARE_CELL)
    g = load_mesh(path).subdomains[0]
    assert g.face_cells.tolist() == [[0, -1]] * 4
    assert np.isclose(g.cell_volumes[0], 1.0, rtol=1e-14)


@pytest.mark.parametrize(
    "text,message",
    [
        (UNIT_SQUARE_CELL.replace("0 -1 : 2 0", "5 -1 : 2 0"), "face cell 5"),
        (TRIANGLE_PAIR.replace("nodes 4", "nodes 3").replace("1 1\n", "")
         .replace("cells 2 simplex\n0 1 2\n1 3 2", "cells 1 simplex\n0 1 7"), "cell node 7"),
        (TRIANGLE_PAIR.replace("interfaces 0", "interfaces 1\ninterface 0 3 1\n0 0"),
         "interface subdomain 3"),
    ],
    ids=["face-cell", "cell-node", "interface-subdomain"],
)
def test_index_out_of_range_rejected(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=message):
        load_mesh(path)


@pytest.mark.parametrize(
    "text,message",
    [
        (UNIT_SQUARE_CELL.replace("0 -1 : 2 0", "0 -1 2 0"), "has no ':'"),
        (UNIT_SQUARE_CELL.replace("0 1 3 2", "0 1 3 two"), "malformed line '0 1 3 two'"),
        (UNIT_SQUARE_CELL.replace("0 -1 : 2 0", "0 -1.5 : 2 0"), "malformed line '0 -1.5 : 2 0'"),
    ],
    ids=["face-without-colon", "non-integer-cell-node", "non-integer-face-cell"],
)
def test_malformed_index_token_rejected(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=message):
        load_mesh(path)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("nodes 4", "nodes four", "malformed line 'nodes four'"),
        ("\n1 0\n", "\none 0\n", "malformed line 'one 0'"),
        ("fracfv-mesh 1", "fracfv-mesh x", "unsupported mesh header 'fracfv-mesh x'"),
        ("aperture 1", "aperture wide", "malformed line 'aperture wide'"),
    ],
    ids=["count", "coordinate", "header-version", "aperture"],
)
def test_non_numeric_token_rejected(tmp_path, old, new, message):
    path = tmp_path / "bad.txt"
    path.write_text(UNIT_SQUARE_CELL.replace(old, new))
    with pytest.raises(MeshFormatError, match=message):
        load_mesh(path)


@pytest.mark.parametrize(
    "old,new",
    [
        ("aperture 1", "aperture nan"),
        ("\n1 0\n", "\ninf 0\n"),
        ("\n0 1\n", "\n0 -Infinity\n"),
        ("\n1 1\n", "\n1 NaN\n"),
    ],
    ids=["aperture-nan", "coordinate-inf", "coordinate-minus-infinity", "coordinate-nan"],
)
def test_non_finite_number_rejected(tmp_path, old, new):
    path = tmp_path / "bad.txt"
    path.write_text(UNIT_SQUARE_CELL.replace(old, new))
    line = new.strip()
    with pytest.raises(MeshFormatError, match=re.escape(f"non-finite number in line {line!r}")):
        load_mesh(path)


def _saved_with_aperture(tmp_path, mesh, dim, aperture):
    """The saved document of ``mesh`` with the aperture of its first
    subdomain of dimension ``dim`` replaced."""
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    text, count = re.subn(
        rf"(dim {dim}\naperture )\S+", rf"\g<1>{aperture}", path.read_text(), count=1
    )
    assert count == 1
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "build,dim,aperture,error,message",
    [
        # The fracture of a 2D one-fracture mesh.
        (lambda: _fractured(2), 1, "nan", MeshFormatError, "non-finite number in line 'aperture nan'"),
        # Case 1.1's point, where a^(N - d) is positive for a negative a.
        (lambda: case11_problem(4)[1], 0, "-0.01", MeshError, "aperture -0.01 is not finite"),
    ],
    ids=["fracture-nan", "point-negative"],
)
def test_saved_mesh_with_bad_aperture_rejected(tmp_path, build, dim, aperture, error, message):
    path = _saved_with_aperture(tmp_path, build(), dim, aperture)
    with pytest.raises(error, match=re.escape(message)):
        load_mesh(path)


@pytest.mark.parametrize("aperture", [np.nan, np.inf, -0.01])
def test_validate_grid_requires_finite_positive_aperture(aperture):
    point = case11_problem(4)[1].subdomains[-1]
    assert point.dim == 0
    validate_grid(point)
    with pytest.raises(MeshError, match="is not finite and positive"):
        validate_grid(dataclasses.replace(point, aperture=aperture))


# A square cell, then a point subdomain whose one 0-simplex lists three nodes.
POINT_OF_THREE_NODES = UNIT_SQUARE_CELL.replace("subdomains 1", "subdomains 2").replace(
    "end\ninterfaces 0",
    "end\nsubdomain 1\ndim 0\naperture 0.1\nnodes 3\n0.5 0.5\n0.4 0.5\n0.5 0.4\n"
    "cells 1 simplex\n0 1 2\nend\ninterfaces 0",
)
# One point subdomain on its own; ambient is filled in.
LONE_POINT = "\n".join(
    ["fracfv-mesh 1", "ambient {}", "subdomains 1", "subdomain 0", "dim 0", "aperture 1",
     "nodes 1", "{}", "cells 1 simplex", "0", "end", "interfaces 0", "end", ""]
)


@pytest.mark.parametrize(
    "text,message",
    [
        (UNIT_SQUARE_CELL.replace("nodes 4", "nodes -1"), "line 'nodes -1'"),
        (TRIANGLE_PAIR.replace("interfaces 0", "interfaces 1\ninterface 0 0 -1"),
         "line 'interface 0 0 -1'"),
        (UNIT_SQUARE_CELL.replace("dim 2", "dim 5"), "line 'dim 5'"),
        (LONE_POINT.format(2, "0.5 0.5"), "line 'dim 0'"),
        (LONE_POINT.format(4, "0 0 0 0"), "line 'ambient 4'"),
        ("fracfv-mesh 1\nambient 2\nsubdomains 0\ninterfaces 0\nend\n", "line 'subdomains 0'"),
        (POINT_OF_THREE_NODES, "subdomain 1 cell 0 is not a 0-simplex: '0 1 2'"),
        (UNIT_SQUARE_CELL + "subdomain 1\n", "'subdomain 1' after the final 'end'"),
    ],
    ids=[
        "negative-count", "negative-pair-count", "dim-above-ambient", "first-dim-below-ambient",
        "ambient-above-3", "no-subdomains", "point-simplex-of-three-nodes", "text-after-end",
    ],
)
def test_malformed_document_rejected(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=re.escape(message)):
        load_mesh(path)


# One unit-cube cell with explicit faces, each polygon in boundary order.
UNIT_CUBE_CELL = "\n".join(
    ["fracfv-mesh 1", "ambient 3", "subdomains 1", "subdomain 0", "dim 3", "aperture 1", "nodes 8"]
    + [f"{i & 1} {i >> 1 & 1} {i >> 2}" for i in range(8)]
    + ["cells 1 explicit", "0 1 2 3 4 5 6 7", "faces 6", "0 -1 : 0 2 6 4", "0 -1 : 1 3 7 5",
       "0 -1 : 0 1 5 4", "0 -1 : 2 3 7 6", "0 -1 : 0 1 3 2", "0 -1 : 4 5 7 6", "end",
       "interfaces 0", "end", ""]
)
# One unit segment whose faces are its end nodes; node 2 lies at its centre.
UNIT_SEGMENT_CELL = "\n".join(
    ["fracfv-mesh 1", "ambient 1", "subdomains 1", "subdomain 0", "dim 1", "aperture 1", "nodes 3",
     "0", "1", "0.5", "cells 1 explicit", "0 1", "faces 2", "0 -1 : 0", "0 -1 : 1", "end",
     "interfaces 0", "end", ""]
)


@pytest.mark.parametrize(
    "text", [UNIT_CUBE_CELL, UNIT_SEGMENT_CELL, UNIT_SQUARE_CELL], ids=["cube", "segment", "square"]
)
def test_unit_cell_documents_load(tmp_path, text):
    path = tmp_path / "cell.txt"
    path.write_text(text)
    assert np.isclose(load_mesh(path).subdomains[0].cell_volumes[0], 1.0, rtol=1e-14)


def test_face_listing_a_node_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "cell.txt"
    path.write_text(UNIT_CUBE_CELL.replace(": 0 1 3 2", ": 0 1 3 2 2"))
    assert main(["validate-mesh", str(path)]) == 2
    assert "face 4 lists a node twice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        (UNIT_CUBE_CELL.replace(": 0 1 3 2", ": 0 1 1 0"), "degenerate polygon face"),
        (UNIT_SQUARE_CELL.replace(": 0 1\n", ": 0 1 3\n"), "faces of 2D cells must have two nodes"),
        (UNIT_SQUARE_CELL.replace(": 0 1\n", ": 0 0\n"), "zero-length face"),
        (UNIT_SEGMENT_CELL.replace(": 0\n", ": 0 1\n"), "point faces must have one node"),
        (UNIT_SEGMENT_CELL.replace(": 1\n", ": 2\n"), "cannot orient face 1"),
        (UNIT_SQUARE_CELL.split("faces 4")[0] + "faces 1\n0 -1 : 0 3\nend\ninterfaces 0\nend\n",
         "cell 0 has non-positive volume"),
        (TRIANGLE_PAIR.split("0 1\n1 1")[0], "unexpected end of mesh document"),
        (TRIANGLE_PAIR.split("subdomain 0")[0], "unexpected end of mesh document"),
        (TRIANGLE_PAIR.replace("dim 2", "dims 2"), "expected 'dim', found 'dims'"),
        (TRIANGLE_PAIR.replace("subdomain 0", "subdomain 1"), "subdomain 0 out of order (found 1)"),
    ],
    ids=[
        "degenerate-polygon", "edge-of-three-nodes", "zero-length-edge", "point-face-of-two-nodes",
        "face-at-cell-centre", "zero-volume", "end-in-node-block", "end-before-subdomain",
        "wrong-keyword", "subdomain-out-of-order",
    ],
)
def test_degenerate_or_truncated_document_rejected(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=re.escape(message)):
        load_mesh(path)


def test_missing_cell_type_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(UNIT_SQUARE_CELL.replace("cells 1 explicit", "cells 1"))
    with pytest.raises(MeshFormatError, match="unknown cell type"):
        load_mesh(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.txt"
    path.write_text("some-other-format 3\n")
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_perturbed_triangle_mesh_validates(tmp_path):
    path = tmp_path / "tri2.txt"
    write_triangle_square_mesh(path, perturb=0.8)
    mesh = load_mesh(path)
    mesh.validate()
    g = mesh.subdomains[0]
    assert np.isclose(g.geometric_cell_measures.sum(), 1.0, rtol=1e-12)


def _fractured(dim):
    fracture = FracturePatch(dim - 1, 0.5, ((0.0, 1.0),) * (dim - 1), 1e-3, 1.0, "f")
    spec = FractureNetworkSpec(domain=((0.0, 1.0),) * dim, fractures=[fracture])
    return build_cartesian_with_fractures(spec, 2)


def _kuhn(tmp_path):
    write_kuhn_mesh(tmp_path / "kuhn.txt", 3, seed=9)
    return load_mesh(tmp_path / "kuhn.txt")


SAVED_MESHES = pytest.mark.parametrize(
    "build",
    [
        lambda tmp_path: _fractured(2),
        lambda tmp_path: _fractured(3),
        lambda tmp_path: case13_problem(resolution=4)[1],
        lambda tmp_path: case4_problem()[1],
        _kuhn,
    ],
    ids=["fracture-2d", "fracture-3d", "case13", "case4", "kuhn"],
)


@SAVED_MESHES
def test_save_mesh_matches_loop(tmp_path, build):
    mesh = build(tmp_path)
    save_mesh(mesh, tmp_path / "mesh.txt")
    loop_save_mesh(mesh, tmp_path / "loop.txt")
    assert (tmp_path / "mesh.txt").read_bytes() == (tmp_path / "loop.txt").read_bytes()


@SAVED_MESHES
def test_saved_mesh_loads_like_loop(tmp_path, build):
    save_mesh(build(tmp_path), tmp_path / "mesh.txt")
    _assert_loads_like_loop(tmp_path / "mesh.txt")


@pytest.mark.parametrize("name", ["triangle-pair", "unit-square-cell", "kuhn"])
def test_document_loads_like_loop(tmp_path, name):
    path = tmp_path / "mesh.txt"
    if name == "kuhn":
        write_kuhn_mesh(path, 3, seed=9)
    else:
        path.write_text(TRIANGLE_PAIR if name == "triangle-pair" else UNIT_SQUARE_CELL)
    _assert_loads_like_loop(path)


@pytest.fixture(scope="module")
def layout_documents(tmp_path_factory):
    """A folder to write into, and documents whose layout the property test
    varies: two hand-written and two saved, one 2D and one 3D with a fracture."""
    folder = tmp_path_factory.mktemp("layout")
    texts = {"triangle-pair": TRIANGLE_PAIR, "unit-square-cell": UNIT_SQUARE_CELL}
    for dim in (2, 3):
        save_mesh(_fractured(dim), folder / "saved.txt")
        texts[f"fracture-{dim}d"] = (folder / "saved.txt").read_text()
    return folder, texts


# How one line is laid out: comment or blank lines before it, its indent, the
# whitespace between its tokens, its ':' and what trails it.
LINE_LAYOUT = st.tuples(
    st.lists(st.sampled_from(["", "  \t ", "# comment", "\t# 1 2 : 3"]), max_size=2),
    st.sampled_from(["", " ", "\t "]),
    st.sampled_from([" ", "   ", "\t", " \t "]),
    st.sampled_from([" : ", ":", ":\t", "\t: "]),
    st.sampled_from(["", "  ", "\t", "# trailing", " #: 4 5"]),
)


def _relaid(text, layouts):
    out = []
    for line, (before, indent, gap, colon, tail) in zip(text.splitlines(), layouts):
        left, has_colon, right = line.partition(":")
        body = gap.join(left.split()) + (colon + gap.join(right.split()) if has_colon else "")
        out += before + [indent + body + tail]
    return "\n".join(out) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_layout_leaves_the_mesh_unchanged(layout_documents, data):
    folder, texts = layout_documents
    text = texts[data.draw(st.sampled_from(sorted(texts)))]
    n_lines = len(text.splitlines())
    layouts = data.draw(st.lists(LINE_LAYOUT, min_size=n_lines, max_size=n_lines))
    path = folder / "relaid.txt"
    path.write_text(_relaid(text, layouts))
    _assert_loads_like_loop(path)


@st.composite
def fractured_networks(draw):
    """A 2D or 3D network of one to three fractures, some crossing, on axes
    of two to four cells of random widths."""
    dim = draw(st.sampled_from([2, 3]))
    widths = st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4)
    axes = [np.concatenate([[0.0], np.cumsum(draw(widths))]) for _ in range(dim)]
    planes = set()
    for _ in range(draw(st.integers(1, 3))):
        axis = draw(st.integers(0, dim - 1))
        planes.add((axis, draw(st.integers(1, axes[axis].size - 2))))
    patches = []
    for axis, index in sorted(planes):
        extents = []
        for k in range(dim):
            if k != axis:
                lo = draw(st.integers(0, axes[k].size - 2))
                hi = draw(st.integers(lo + 1, axes[k].size - 1))
                extents.append((axes[k][lo], axes[k][hi]))
        patches.append(FracturePatch(axis, axes[axis][index], tuple(extents), 1e-3, 1.0))
    spec = FractureNetworkSpec(tuple((0.0, a[-1]) for a in axes), patches)
    return build_cartesian_with_fractures(spec, axes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mesh=fractured_networks())
def test_saved_network_reloads_bit_for_bit(tmp_path_factory, mesh):
    folder = tmp_path_factory.mktemp("round-trip")
    save_mesh(mesh, folder / "saved.txt")
    loaded = load_mesh(folder / "saved.txt")
    save_mesh(loaded, folder / "again.txt")
    assert (folder / "saved.txt").read_bytes() == (folder / "again.txt").read_bytes()
    _assert_same_mesh(loaded, mesh, skip={"metadata"})


def test_derived_faces_match_loop_on_preset_simplex_meshes(tmp_path):
    _assert_faces_match_loop(3, write_kuhn_mesh(tmp_path / "kuhn.txt", 3, seed=4))
    _assert_faces_match_loop(2, write_triangle_square_mesh(tmp_path / "tri.txt")[1])
    _assert_faces_match_loop(1, [[0, 1], [2, 1], [2, 3]])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            st.lists(
                st.lists(st.integers(0, 6), min_size=dim + 1, max_size=dim + 1, unique=True),
                min_size=1,
                max_size=8,
            ),
        )
    )
)
def test_derived_faces_match_loop_on_random_cells(case):
    _assert_faces_match_loop(*case)


def test_facet_shared_by_three_cells_rejected():
    cells = [[0, 1, 2], [1, 0, 3], [4, 1, 0], [3, 0, 5]]
    with pytest.raises(MeshFormatError, match=r"facet \(0, 1\) shared by more than two cells"):
        _derive_simplex_faces(2, cells)
    _assert_faces_match_loop(2, cells)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_file_rejected(tmp_path, kind):
    path = tmp_path / "mesh.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(TRIANGLE_PAIR.encode() + b"# \xff\xfe\n")
    with pytest.raises(MeshFormatError, match=re.escape(f"cannot read mesh document {path}")):
        load_mesh(path)
