"""Generation of Cartesian mixed-dimensional meshes with axis-aligned fractures.

Fracture patches are axis-aligned hyperplane pieces that must coincide with
face planes of the requested Cartesian grid. Crossing patches spawn
intersection subdomains of successively lower dimension, down to points.
Faces of a grid that coincide with an immersed lower-dimensional subdomain
are found from the two grids' boxes of node indices, tagged as internal
boundary and, where they have a cell on each side, duplicated (one copy per
side), so the immersed subdomain acts as an internal boundary of the host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..errors import FractureAlignmentError, FractureOverlapError, MeshError
from ..tensors import PermeabilityTensor, as_tensor
from .grids import SubdomainGrid, build_grid
from .mdmesh import InterfaceMap, MixedDimensionalMesh


@dataclass(frozen=True)
class FracturePatch:
    """An axis-aligned fracture: a box within the plane ``x[normal_axis] == coordinate``.

    ``extents`` lists (lo, hi) per in-plane axis, in ascending axis order.
    """

    normal_axis: int
    coordinate: float
    extents: tuple
    aperture: float
    permeability: object  # PermeabilityTensor or scalar
    name: str = ""

    def in_plane_axes(self, ambient_dim: int) -> list[int]:
        return [k for k in range(ambient_dim) if k != self.normal_axis]


@dataclass
class FractureNetworkSpec:
    """Domain box, fracture patches, and the intersection permeability rule.

    ``intersection_permeability`` sets an intersection's tensor from its
    parents, the subdomains that cross there. It is one of:
      * ``"min"``: inherit the least permeable parent (default);
      * ``"harmonic"``: isotropic harmonic mean of the parents;
      * a scalar or PermeabilityTensor applied to every intersection.
    """

    domain: tuple
    fractures: list = field(default_factory=list)
    intersection_permeability: object = "min"

    @property
    def ambient_dim(self) -> int:
        return len(self.domain)


# ---------------------------------------------------------------------------
# Structured grid generation
# ---------------------------------------------------------------------------


def _layout(ambient_dim: int, active_axes: list, axis_nodes: list, fixed_coords: dict) -> tuple:
    """The node lists and face-cell table of a tensor-product box grid, as
    ``(dim, nodes, cell node lists, face nodes, face-cell table)``; the face
    nodes are one row per face. See ``structured_grid`` for the order."""
    d = len(active_axes)
    cell_shape = tuple(len(a) - 1 for a in axis_nodes)
    if min(cell_shape, default=1) < 1:
        raise MeshError("each active axis needs at least one cell")
    node_shape = [n + 1 for n in cell_shape]
    node_id = np.arange(int(np.prod(node_shape))).reshape(node_shape)
    nodes = np.empty((node_id.size, ambient_dim))
    for k, value in fixed_coords.items():
        nodes[:, k] = value
    for k, coords in zip(active_axes, np.meshgrid(*axis_nodes, indexing="ij")):
        nodes[:, k] = coords.ravel()

    def corners(shape, span, order=slice(None)) -> np.ndarray:
        # Per entity of the index box shape, its corner nodes along the axes
        # in span, in ascending order or the given one.
        starts = itertools.product(*[(0, 1) if i in span else (0,) for i in range(d)])
        return np.column_stack(
            [node_id[tuple(map(slice, s, np.add(s, shape)))].ravel() for s in starts]
        )[:, order]

    cell_id = np.arange(int(np.prod(cell_shape))).reshape(cell_shape)
    width = max(1, 2 ** (d - 1))
    face_nodes, face_cells = [np.zeros((0, width), dtype=int)], [np.zeros((0, 2), dtype=int)]
    around = [0, 1, 3, 2] if d == 3 else slice(None)  # a 3D face's corners in boundary order
    for j in range(d):
        # The cells before and after each face along axis j; -1 off the ends.
        padded = np.pad(cell_id, [(int(i == j),) * 2 for i in range(d)], constant_values=-1)
        before = padded[(slice(None),) * j + (slice(None, -1),)]
        after = padded[(slice(None),) * j + (slice(1, None),)]
        face_cells.append(np.column_stack([before.ravel(), after.ravel()]))
        face_nodes.append(corners(before.shape, [i for i in range(d) if i != j], around))
    cell_idx = corners(cell_shape, range(d)).ravel()
    cells = (np.arange(0, cell_idx.size + 1, 2**d), cell_idx)
    return d, nodes, cells, np.concatenate(face_nodes), np.concatenate(face_cells)


def _build(layout: tuple, split: np.ndarray, aperture: float) -> SubdomainGrid:
    """The grid of a layout, with each face in ``split`` (two-sided) split in two.

    The face keeps the cell that sees its normal as outward; its copy,
    appended at the end in the order given, takes the other cell, so its
    normal points the other way. ``build_grid`` derives the geometry.
    """
    dim, nodes, cells, face_nodes, table = layout
    if len(split):  # else the layout's arrays serve as they are, with no copy
        table = np.vstack([table, np.column_stack([table[split, 1], np.full(len(split), -1)])])
        table[split, 1] = -1
        face_nodes = np.vstack([face_nodes, face_nodes[split]])
    faces = (np.arange(0, face_nodes.size + 1, face_nodes.shape[1]), face_nodes.ravel())
    return build_grid(dim, nodes, cells, faces, table, float(aperture), "cartesian")


def structured_grid(
    ambient_dim: int,
    active_axes: list[int],
    axis_nodes: list[np.ndarray],
    fixed_coords: dict[int, float],
    aperture: float,
) -> SubdomainGrid:
    """Tensor-product box grid of dimension ``d = len(active_axes)`` in N-space.

    ``axis_nodes[j]`` holds the increasing node coordinates along
    ``active_axes[j]``; every other axis ``k`` stays at ``fixed_coords[k]``
    (d = 0 gives a point). This lays out the nodes, the cells' and faces'
    node lists and the face-cell table, and ``build_grid`` derives the
    geometry as it does for a loaded mesh. Nodes and cells go in C order over
    the active axes; faces in one block per active axis, each in C order,
    with normals along the axis, out of the cell before the face.
    """
    layout = _layout(ambient_dim, active_axes, axis_nodes, fixed_coords)
    return _build(layout, np.zeros(0, dtype=int), aperture)


def _face_cell_pairs(host: tuple, child: tuple) -> np.ndarray:
    """Pairs (host face, child cell), shape (n_child_cells, 2), in ascending
    face order, of a child box that fixes one more axis than its host box.

    The child lies in a plane of host faces across that axis, so its cells
    sit on faces of that axis's block (see ``structured_grid``), at the
    child's offsets in the host box.
    """
    free = _free_axes(host)
    j = [i for i, k in enumerate(free) if child[k][0] == child[k][1]][0]
    cells = [host[k][1] - host[k][0] for k in free]
    shapes = [[n + (i == block) for i, n in enumerate(cells)] for block in range(len(free))]
    offset = sum(int(np.prod(shape)) for shape in shapes[:j])
    # Per host axis, the child's cells; on the axis it fixes, its plane's node.
    at = [np.arange(child[k][0], child[k][1] + (i == j)) - host[k][0] for i, k in enumerate(free)]
    faces = offset + np.ravel_multi_index(np.meshgrid(*at, indexing="ij"), shapes[j]).ravel()
    return np.column_stack([faces, np.arange(faces.size)])


# ---------------------------------------------------------------------------
# Fracture network processing
# ---------------------------------------------------------------------------


def _axis_node_arrays(domain, resolution, ambient_dim):
    if isinstance(resolution, (int, np.integer)):
        resolution = [int(resolution)] * ambient_dim
    arrays = []
    for k, (lo, hi) in enumerate(domain):
        r = resolution[k]
        if isinstance(r, (int, np.integer)):
            arrays.append(np.linspace(lo, hi, int(r) + 1))
        else:
            arr = np.asarray(r, dtype=float)
            if arr.ndim != 1 or arr.size < 2 or np.any(np.diff(arr) <= 0):
                raise MeshError(f"axis {k}: explicit node coordinates must be strictly increasing")
            if arr[0] != lo or arr[-1] != hi:
                raise MeshError(f"axis {k}: explicit node coordinates must span the domain")
            arrays.append(arr)
    return arrays


def _snap(value: float, nodes: np.ndarray, tol: float, what: str) -> int:
    idx = int(np.argmin(np.abs(nodes - value)))
    if abs(nodes[idx] - value) > tol:
        raise FractureAlignmentError(f"{what} at {value} does not coincide with a grid plane")
    return idx


def _mean_eigenvalue(tensor: PermeabilityTensor) -> float:
    return float(np.trace(tensor.matrix)) / tensor.dim


def _intersection_tensor(rule, tensors: list, ambient_dim: int) -> PermeabilityTensor:
    """Apply the intersection permeability rule to the tensors of a crossing's
    direct parents."""
    if not isinstance(rule, str):
        return as_tensor(rule, ambient_dim)
    if rule == "min":
        return min(tensors, key=_mean_eigenvalue)
    if rule == "harmonic":
        means = [_mean_eigenvalue(t) for t in tensors]
        return PermeabilityTensor.isotropic(len(means) / sum(1.0 / m for m in means), ambient_dim)
    raise MeshError(f"unknown intersection permeability rule {rule!r}")


def _free_axes(box: tuple) -> list[int]:
    """Axes along which a box, one (lo, hi) pair of grid node indices per
    axis, has positive length; on the others it is fixed at lo == hi."""
    return [k for k, (lo, hi) in enumerate(box) if lo < hi]


def _crossing(a: tuple, b: tuple) -> tuple | None:
    """The box where boxes ``a`` and ``b`` cross, or None.

    They cross when together they fix exactly one more axis than either does
    alone, they meet on every axis (ends included), and every axis left free
    keeps a positive length.
    """
    free_a, free_b = _free_axes(a), _free_axes(b)
    free = [k for k in free_a if k in free_b]
    box = tuple((max(ea[0], eb[0]), min(ea[1], eb[1])) for ea, eb in zip(a, b))
    meet = all(lo <= hi for lo, hi in box)
    if len(free) + 1 == len(free_a) == len(free_b) and meet and _free_axes(box) == free:
        return box
    return None


def build_cartesian_with_fractures(spec: FractureNetworkSpec, resolution) -> MixedDimensionalMesh:
    """Build the mixed-dimensional hierarchy for an axis-aligned fracture network.

    Every subdomain below the matrix is a box (see ``_free_axes``), a fracture
    one with a single fixed axis. Each further level holds the crossings of
    pairs of boxes of the level above (``_crossing``); pairs that cross in the
    same box give one subdomain whose parents are all of them, in the order
    found. A crossing takes the least aperture of its parents and the
    intersection permeability rule applied to them. Fractures come in patch
    order, points sorted by coordinate, other crossings in the order found.
    Interface pairs follow from the boxes (``_face_cell_pairs``), and each
    grid is built once, with its split faces in place.

    Parameters:
        spec: Domain box, fracture patches, intersection permeability rule.
        resolution: Cells per axis (int, per-axis ints, or explicit node arrays).

    Raises:
        FractureAlignmentError: A patch does not coincide with grid planes.
        FractureOverlapError: Same-orientation patches overlap or touch.
    """
    ambient = spec.ambient_dim
    axes = _axis_node_arrays(spec.domain, resolution, ambient)
    tol = 1e-8 * max(a[-1] - a[0] for a in axes)

    # Snap and validate patches: (patch, name, box).
    patches = []
    for idx, patch in enumerate(spec.fractures):
        if ambient < 2:
            raise MeshError("fractures require an ambient dimension of at least 2")
        name = patch.name or f"fracture_{idx}"
        node_idx = _snap(patch.coordinate, axes[patch.normal_axis], tol, f"fracture {name!r} plane")
        if node_idx == 0 or node_idx == len(axes[patch.normal_axis]) - 1:
            raise FractureAlignmentError(f"fracture {name!r} lies on the domain boundary")
        box = [(node_idx, node_idx)] * ambient
        for axis, (lo, hi) in zip(patch.in_plane_axes(ambient), patch.extents):
            lo_i = _snap(lo, axes[axis], tol, f"fracture {name!r} extent")
            hi_i = _snap(hi, axes[axis], tol, f"fracture {name!r} extent")
            if hi_i <= lo_i:
                raise MeshError(f"fracture {name!r} has empty extent on axis {axis}")
            box[axis] = (lo_i, hi_i)
        patches.append((patch, name, tuple(box)))

    # Reject overlapping or touching same-orientation patches.
    for (a, a_name, a_box), (b, b_name, b_box) in itertools.combinations(patches, 2):
        if a.normal_axis == b.normal_axis and all(
            ea[0] <= eb[1] and eb[0] <= ea[1] for ea, eb in zip(a_box, b_box)
        ):
            raise FractureOverlapError(
                f"fractures {a_name!r} and {b_name!r} overlap in the same plane"
            )

    # Per subdomain: its layout, box, aperture, metadata and the subdomains
    # immersed in it. The matrix's box spans the grid.
    layouts = [_layout(ambient, list(range(ambient)), axes, {})]
    boxes: list = [tuple((0, a.size - 1) for a in axes)]
    apertures, metadata = [1.0], [{"role": "matrix", "name": "matrix"}]
    children: list[list[int]] = [[]]

    def add(box: tuple, aperture: float, info: dict, parents: list[int]) -> int:
        free = _free_axes(box)
        nodes = [axes[k][box[k][0] : box[k][1] + 1] for k in free]
        fixed = {k: axes[k][lo] for k, (lo, _) in enumerate(box) if k not in free}
        layouts.append(_layout(ambient, free, nodes, fixed))
        boxes.append(box)
        apertures.append(aperture)
        metadata.append(info)
        children.append([])
        for i in parents:
            children[i].append(len(boxes) - 1)
        return len(boxes) - 1

    level = []
    for patch, name, box in patches:
        tensor = as_tensor(patch.permeability, ambient)
        info = {"role": "fracture", "name": name, "permeability": tensor}
        level.append(add(box, float(patch.aperture), info, [0]))

    rule = spec.intersection_permeability
    while level:
        found: dict[tuple, list[int]] = {}
        for a, b in itertools.combinations(level, 2):
            box = _crossing(boxes[a], boxes[b])
            if box is not None:
                parents = found.setdefault(box, [])
                parents += [i for i in (a, b) if i not in parents]
        order = list(found)
        if order and not _free_axes(order[0]):
            order.sort()  # points, by coordinate
        level = []
        for box in order:
            parents = [metadata[i] for i in found[box]]
            tensors = [p["permeability"] for p in parents]
            if _free_axes(box):
                name = "x".join(p["name"] for p in parents)
            else:
                name = "point_" + "_".join(f"{axes[k][lo]:g}" for k, (lo, _) in enumerate(box))
            info = {
                "role": "intersection",
                "name": name,
                "permeability": _intersection_tensor(rule, tensors, ambient),
            }
            aperture = min(apertures[i] for i in found[box])
            level.append(add(box, aperture, info, found[box]))

    # Each subdomain meets only those immersed in it: the matrix every
    # fracture, and the parents of a crossing that crossing. Its faces under
    # them are internal boundary; the two-sided ones are split, one copy per
    # side, and the one-sided ones (where a subdomain ends on another) kept.
    # Then each grid is built once. Interfaces come in host order, children
    # in ascending index.
    subdomains: list[SubdomainGrid] = []
    interfaces: list[InterfaceMap] = []
    for host, lows in enumerate(children):
        pairs = [_face_cell_pairs(boxes[host], boxes[lo]) for lo in lows]
        matched = np.unique(np.concatenate([p[:, 0] for p in pairs] + [np.zeros(0, dtype=int)]))
        table = layouts[host][-1]
        split = matched[(table[matched] >= 0).all(axis=1)]
        twin = np.full(len(table), -1)
        twin[split] = len(table) + np.arange(split.size)
        grid = _build(layouts[host], split, apertures[host])
        grid.internal_boundary[matched] = True
        grid.internal_boundary[len(table) :] = True
        grid.metadata = metadata[host]
        subdomains.append(grid)
        for lo, p in zip(lows, pairs):
            # Each pair on a split face is followed by the pair of its copy.
            doubled = twin[p[:, 0]] >= 0
            rows = np.repeat(p, np.where(doubled, 2, 1), axis=0)
            copies = np.cumsum(np.where(doubled, 2, 1))[doubled] - 1
            rows[copies, 0] = twin[p[doubled, 0]]
            interfaces.append(InterfaceMap(host, lo, rows))

    mesh = MixedDimensionalMesh(subdomains, interfaces)
    mesh.validate()
    return mesh
