"""Mesh document format: import, export, round-trips and error paths.

The per-row writer that ``save_mesh`` replaced and the dictionary loop that
derived simplex facets are kept here as reference oracles.
"""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNIT_SQUARE_CELL, write_kuhn_mesh, write_triangle_square_mesh
from fracfv.errors import ConformityError, MeshFormatError
from fracfv.harness.cases import case4_problem, case13_problem
from fracfv.mdmesh import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    load_mesh,
    save_mesh,
)
from fracfv.mdmesh.meshio import _derive_simplex_faces, _ordered_face_nodes

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
    """Each face's nodes, 3D polygons' in boundary order."""
    ordered, indptr = _ordered_face_nodes(grid), grid.face_nodes.tocsc().indptr
    return [ordered[a:b] for a, b in zip(indptr[:-1], indptr[1:])]


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
    assert faces == expected[0]
    assert face_cells.tolist() == [list(fc) for fc in expected[1]]


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


@pytest.mark.parametrize(
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
def test_save_mesh_matches_loop(tmp_path, build):
    mesh = build(tmp_path)
    save_mesh(mesh, tmp_path / "mesh.txt")
    loop_save_mesh(mesh, tmp_path / "loop.txt")
    assert (tmp_path / "mesh.txt").read_bytes() == (tmp_path / "loop.txt").read_bytes()


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
