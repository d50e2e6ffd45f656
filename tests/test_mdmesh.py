"""Mesh construction: entity counts, geometry invariants, error paths."""

import numpy as np
import pytest

from fracfv.errors import FractureAlignmentError, FractureOverlapError, MeshError
from fracfv.mdmesh import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    validate_grid,
)
from fracfv.harness.cases import case4_problem, case13_problem
from fracfv.mdmesh import cartesian
from fracfv.tensors import PermeabilityTensor


def _counts_by_dim(mesh):
    out = {}
    for g in mesh.subdomains:
        out.setdefault(g.dim, []).append(g.n_cells)
    return out


class TestCartesianBuilder:
    def test_single_vertical_fracture_2x1(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "v")],
        )
        mesh = build_cartesian_with_fractures(spec, (2, 1))
        assert _counts_by_dim(mesh) == {2: [2], 1: [1]}
        assert len(mesh.interfaces) == 1
        assert mesh.interfaces[0].n_pairs == 2

    def test_two_crossing_fractures_2x2(self, crossing_mesh):
        counts = _counts_by_dim(crossing_mesh)
        assert counts[2] == [4]
        assert sorted(counts[1]) == [2, 2]
        assert counts[0] == [1]
        pair_counts = {
            (i.higher, i.lower): i.n_pairs for i in crossing_mesh.interfaces
        }
        # Four matrix-fracture pairs per fracture, two point pairs per fracture.
        dims = {i: g.dim for i, g in enumerate(crossing_mesh.subdomains)}
        frac_pairs = [n for (h, l), n in pair_counts.items() if dims[h] == 2]
        point_pairs = [n for (h, l), n in pair_counts.items() if dims[h] == 1]
        assert frac_pairs == [4, 4]
        assert point_pairs == [2, 2]

    def test_orthogonal_fractures_3d_line_intersection(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0),) * 3,
            fractures=[
                FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-6, 1e6, "xy"),
                FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-6, 1e-6, "yz"),
            ],
        )
        mesh = build_cartesian_with_fractures(spec, 2)
        counts = _counts_by_dim(mesh)
        assert counts[3] == [8]
        assert counts[2] == [4, 4]
        assert counts[1] == [2]
        assert 0 not in counts

    def test_t_intersection_ending_fracture(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[
                FracturePatch(1, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "through"),
                FracturePatch(0, 0.5, ((0.0, 0.5),), 1e-2, 1.0, "ending"),
            ],
        )
        mesh = build_cartesian_with_fractures(spec, 4)
        counts = _counts_by_dim(mesh)
        assert counts[0] == [1]
        # The ending fracture touches the point through its boundary face:
        # one pair from its side, two from the split through-going fracture.
        point_sd = [i for i, g in enumerate(mesh.subdomains) if g.dim == 0][0]
        pairs = [i.n_pairs for i in mesh.interfaces if i.lower == point_sd]
        assert sorted(pairs) == [1, 2]
        mesh.validate()

    @pytest.mark.parametrize("base", [(4,), (2, 2)], ids=["2d", "3d"])
    def test_fracture_couples_to_its_own_plane_only(self, base):
        # A second grid plane 1e-11 above the fracture lies within any
        # centre-matching tolerance of it; the fracture still meets one
        # plane of faces, one pair per cell and side.
        nodes = [0.0, 0.25, 0.5, 0.5 + 1e-11, 0.75, 1.0]
        dim = len(base) + 1
        extents = ((0.0, 1.0),) * (dim - 1)
        spec = FractureNetworkSpec(
            ((0.0, 1.0),) * dim, [FracturePatch(dim - 1, 0.5, extents, 1e-2, 1.0, "f")]
        )
        mesh = build_cartesian_with_fractures(spec, (*base, nodes))
        matrix, fracture = mesh.subdomains
        (interface,) = mesh.interfaces
        faces, cells = interface.face_cell_pairs.T
        assert fracture.n_cells == int(np.prod(base))
        assert interface.n_pairs == 2 * fracture.n_cells
        assert np.array_equal(np.bincount(cells), np.full(fracture.n_cells, 2))
        assert np.all(matrix.face_centres[faces, dim - 1] == 0.5)
        assert np.count_nonzero(matrix.internal_boundary) == interface.n_pairs

    @pytest.mark.parametrize(
        "problem,resolution", [(case13_problem, 4), (case4_problem, 8)], ids=["1.3", "4"]
    )
    def test_each_grid_is_built_once(self, monkeypatch, problem, resolution):
        original, built = cartesian.build_grid, []

        def recorded(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(cartesian, "build_grid", recorded)
        mesh = problem(resolution)[1]
        assert len(built) == len(mesh.subdomains)
        assert all(g is b for g, b in zip(mesh.subdomains, built))

    def test_misaligned_fracture_rejected(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[FracturePatch(0, 0.3, ((0.0, 1.0),), 1e-2, 1.0, "odd")],
        )
        with pytest.raises(FractureAlignmentError, match="odd"):
            build_cartesian_with_fractures(spec, 2)

    def test_overlapping_same_plane_rejected(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[
                FracturePatch(0, 0.5, ((0.0, 0.5),), 1e-2, 1.0, "a"),
                FracturePatch(0, 0.5, ((0.5, 1.0),), 1e-2, 1.0, "b"),
            ],
        )
        with pytest.raises(FractureOverlapError):
            build_cartesian_with_fractures(spec, 4)

    def test_fracture_on_domain_boundary_rejected(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[FracturePatch(0, 0.0, ((0.0, 1.0),), 1e-2, 1.0, "edge")],
        )
        with pytest.raises(FractureAlignmentError):
            build_cartesian_with_fractures(spec, 2)


UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


class TestCartesianRefusals:
    def test_active_axis_without_a_cell(self):
        with pytest.raises(MeshError, match="each active axis needs at least one cell"):
            build_cartesian_with_fractures(FractureNetworkSpec(domain=UNIT_SQUARE), (2, 0))

    @pytest.mark.parametrize(
        "nodes,message",
        [
            ([0.0, 0.6, 0.4, 1.0], "axis 0: explicit node coordinates must be strictly increasing"),
            ([0.0, 0.5, 0.9], "axis 0: explicit node coordinates must span the domain"),
        ],
        ids=["not-increasing", "short-of-the-domain"],
    )
    def test_explicit_node_coordinates(self, nodes, message):
        with pytest.raises(MeshError, match=message):
            build_cartesian_with_fractures(FractureNetworkSpec(domain=UNIT_SQUARE), (nodes, 2))

    def test_fracture_in_a_line(self):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0),), fractures=[FracturePatch(0, 0.5, (), 1e-2, 1.0, "p")]
        )
        with pytest.raises(MeshError, match="fractures require an ambient dimension of at least 2"):
            build_cartesian_with_fractures(spec, 2)

    def test_patch_with_empty_extent(self):
        spec = FractureNetworkSpec(
            domain=UNIT_SQUARE, fractures=[FracturePatch(0, 0.5, ((0.5, 0.5),), 1e-2, 1.0, "f")]
        )
        with pytest.raises(MeshError, match="fracture 'f' has empty extent on axis 1"):
            build_cartesian_with_fractures(spec, 4)


def _example_meshes():
    yield build_cartesian_with_fractures(
        FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0))), 4
    )
    yield build_cartesian_with_fractures(
        FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[
                FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "v"),
                FracturePatch(1, 0.5, ((0.0, 1.0),), 1e-2, 1.0, "h"),
            ],
        ),
        4,
    )
    yield build_cartesian_with_fractures(
        FractureNetworkSpec(
            domain=((0.0, 1.0),) * 3,
            fractures=[
                FracturePatch(2, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-6, 1e6, "xy"),
                FracturePatch(0, 0.5, ((0.0, 1.0), (0.0, 1.0)), 1e-6, 1e-6, "yz"),
            ],
        ),
        4,
    )
    # Non-uniform axis spacing with a thin interior row.
    a = 1e-3
    y_nodes = np.concatenate(
        [np.linspace(0.0, 0.5 - a / 2, 3), np.linspace(0.5 + a / 2, 1.0, 3)]
    )
    yield build_cartesian_with_fractures(
        FractureNetworkSpec(domain=((0.0, 1.0), (0.0, 1.0))), (4, y_nodes)
    )


_EXAMPLE_MESHES = list(_example_meshes())


@pytest.mark.parametrize(
    "mesh", _EXAMPLE_MESHES, ids=["square", "crossing", "cube", "strip"]
)
class TestMeshInvariants:
    def test_interface_centres_match(self, mesh):
        tol = 1e-10 * mesh.domain_diameter()
        for intf in mesh.interfaces:
            hi = mesh.subdomains[intf.higher]
            lo = mesh.subdomains[intf.lower]
            pairs = intf.face_cell_pairs
            dist = np.linalg.norm(
                hi.face_centres[pairs[:, 0]] - lo.cell_centres[pairs[:, 1]], axis=1
            )
            assert dist.max() < tol

    def test_geometric_closure(self, mesh):
        for g in mesh.subdomains:
            if g.n_faces == 0:
                continue
            vec = g.face_normals * g.geometric_face_measures[:, None]
            closure = g.cell_faces.T @ vec
            assert np.abs(closure).max() <= 1e-12 * np.abs(vec).max()

    def test_volume_scaling_exact(self, mesh):
        for g in mesh.subdomains:
            scale = g.aperture ** (g.ambient_dim - g.dim)
            assert np.array_equal(g.cell_volumes, g.geometric_cell_measures * scale)
            assert np.array_equal(g.face_areas, g.geometric_face_measures * scale)

    def test_matrix_volume_preserved(self, mesh):
        matrix = mesh.highest_dim_subdomain()
        box = np.prod(matrix.nodes.max(axis=0) - matrix.nodes.min(axis=0))
        assert np.isclose(matrix.geometric_cell_measures.sum(), box, rtol=1e-13)

    def test_faces_have_one_or_two_cells(self, mesh):
        for g in mesh.subdomains:
            if g.n_faces == 0:
                continue
            counts = np.count_nonzero(g.face_cells >= 0, axis=1)
            assert counts.min() >= 1 and counts.max() <= 2
            single = counts == 1
            assert np.all(g.boundary_faces == single)

    def test_unit_normals(self, mesh):
        for g in mesh.subdomains:
            if g.n_faces:
                assert np.allclose(np.linalg.norm(g.face_normals, axis=1), 1.0, atol=1e-13)

    def test_validate_passes(self, mesh):
        mesh.validate()


@pytest.mark.parametrize("cell", [-2, 16])
def test_validate_rejects_face_cell_out_of_range(unit_square_4, cell):
    g = unit_square_4.subdomains[0]  # 16 cells
    g.face_cells[3, 1] = cell
    with pytest.raises(MeshError, match=f"face 3 names cell {cell} of 16"):
        validate_grid(g)


class TestIntersectionRules:
    def _mesh(self, rule):
        spec = FractureNetworkSpec(
            domain=((0.0, 1.0), (0.0, 1.0)),
            fractures=[
                FracturePatch(0, 0.5, ((0.0, 1.0),), 1e-2, 4.0, "v"),
                FracturePatch(1, 0.5, ((0.0, 1.0),), 3e-2, 1.0, "h"),
            ],
            intersection_permeability=rule,
        )
        return build_cartesian_with_fractures(spec, 2)

    def _point_grid(self, mesh):
        return [g for g in mesh.subdomains if g.dim == 0][0]

    def test_min_rule(self):
        g = self._point_grid(self._mesh("min"))
        assert np.allclose(g.metadata["permeability"].matrix, np.eye(2))

    def test_harmonic_rule(self):
        g = self._point_grid(self._mesh("harmonic"))
        assert np.allclose(g.metadata["permeability"].matrix, 1.6 * np.eye(2))

    def test_explicit_value(self):
        g = self._point_grid(self._mesh(1e10))
        assert np.allclose(g.metadata["permeability"].matrix, 1e10 * np.eye(2))

    def test_explicit_tensor(self):
        tensor = PermeabilityTensor.diagonal(2.0, 5.0)
        g = self._point_grid(self._mesh(tensor))
        assert np.allclose(g.metadata["permeability"].matrix, tensor.matrix)

    def test_aperture_inherits_minimum(self):
        g = self._point_grid(self._mesh("min"))
        assert g.aperture == 1e-2

    def test_unknown_rule_rejected(self):
        with pytest.raises(MeshError):
            self._mesh("geometric-mean")


class TestDepthTwoIntersections:
    """Three orthogonal patches crossing at the centre of the cube: each line
    takes the rule from its two fractures, the point from the three lines."""

    APERTURES = {"p": 2e-2, "q": 3e-2, "r": 1e-2}
    PERMEABILITIES = {"p": 4.0, "q": 1.0, "r": 16.0}

    def _mesh(self, rule, p_z=(0.0, 1.0), q_z=(0.0, 1.0)):
        full = (0.0, 1.0)
        extents = {"p": (full, p_z), "q": (full, q_z), "r": (full, full)}
        spec = FractureNetworkSpec(
            domain=(full,) * 3,
            fractures=[
                FracturePatch(axis, 0.5, extents[name], self.APERTURES[name],
                              self.PERMEABILITIES[name], name)
                for axis, name in enumerate("pqr")
            ],
            intersection_permeability=rule,
        )
        mesh = build_cartesian_with_fractures(spec, 2)
        return {d: [g for g in mesh.subdomains if g.dim == d] for d in range(4)}

    def _tensors(self, by_dim):
        return [g.metadata["permeability"].matrix for g in by_dim[1] + by_dim[0]]

    def test_counts_names_and_apertures(self):
        by_dim = self._mesh("min")
        assert [len(by_dim[d]) for d in (3, 2, 1, 0)] == [1, 3, 3, 1]
        assert [g.metadata["name"] for g in by_dim[1]] == ["pxq", "pxr", "qxr"]
        assert by_dim[0][0].metadata["name"] == "point_0.5_0.5_0.5"
        assert [g.aperture for g in by_dim[1]] == [2e-2, 1e-2, 1e-2]
        assert by_dim[0][0].aperture == 1e-2

    @pytest.mark.parametrize(
        "rule,expected",
        [
            ("min", [1.0, 4.0, 1.0, 1.0]),
            # Lines: 2 / (1/k_a + 1/k_b). Point: 3 / (1/1.6 + 1/6.4 + 17/32).
            ("harmonic", [1.6, 6.4, 32.0 / 17.0, 16.0 / 7.0]),
            (1e3, [1e3] * 4),
        ],
        ids=["min", "harmonic", "scalar"],
    )
    def test_isotropic_rules(self, rule, expected):
        for tensor, k in zip(self._tensors(self._mesh(rule)), expected, strict=True):
            assert np.allclose(tensor, k * np.eye(3), rtol=1e-14, atol=0.0)

    def test_explicit_tensor(self):
        tensor = PermeabilityTensor.diagonal(1.0, 2.0, 3.0)
        for matrix in self._tensors(self._mesh(tensor)):
            assert np.array_equal(matrix, tensor.matrix)

    def test_touching_patches_reach_the_point_through_other_lines(self):
        # p and q only touch along z = 0.5, so they have no line; the point's
        # parents are the lines pxr and qxr.
        by_dim = self._mesh("min", p_z=(0.5, 1.0), q_z=(0.0, 0.5))
        assert [g.metadata["name"] for g in by_dim[1]] == ["pxr", "qxr"]
        assert len(by_dim[0]) == 1
        for tensor, k in zip(self._tensors(by_dim), [4.0, 1.0, 1.0], strict=True):
            assert np.array_equal(tensor, k * np.eye(3))
