"""Generation of Cartesian mixed-dimensional meshes with axis-aligned fractures.

Fracture patches are axis-aligned hyperplane pieces that must coincide with
face planes of the requested Cartesian grid. Crossing patches spawn
intersection subdomains of successively lower dimension, down to points.
Faces of a grid that coincide with an immersed lower-dimensional subdomain
are duplicated (one copy per side), so the immersed subdomain acts as an
internal boundary of the host grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from ..errors import FractureAlignmentError, FractureOverlapError, MeshError
from ..tensors import PermeabilityTensor
from .grids import SubdomainGrid, cell_faces_of
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

    ``intersection_permeability`` is one of:
      * ``"min"``: inherit the least permeable crossing fracture (default);
      * ``"harmonic"``: isotropic harmonic mean of the crossing fractures;
      * ``("patch", name)``: inherit the named patch's tensor;
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


def _point_grid(point: np.ndarray, ambient_dim: int, aperture: float) -> SubdomainGrid:
    point = np.asarray(point, dtype=float).reshape(1, ambient_dim)
    empty_f = np.zeros((0, ambient_dim))
    return SubdomainGrid(
        dim=0,
        ambient_dim=ambient_dim,
        nodes=point.copy(),
        cell_centres=point.copy(),
        cell_volumes=np.array([1.0]) * aperture**ambient_dim,
        geometric_cell_measures=np.array([1.0]),
        face_centres=empty_f,
        face_normals=empty_f.copy(),
        face_areas=np.zeros(0),
        geometric_face_measures=np.zeros(0),
        cell_faces=sps.csc_matrix((0, 1)),
        face_nodes=sps.csc_matrix((1, 0), dtype=bool),
        cell_nodes=sps.csc_matrix(np.ones((1, 1), dtype=bool)),
        apertures=np.array([aperture]),
        internal_boundary=np.zeros(0, dtype=bool),
        kind="cartesian",
    )


def structured_grid(
    ambient_dim: int,
    active_axes: list[int],
    axis_nodes: list[np.ndarray],
    fixed_coords: dict[int, float],
    aperture: float,
) -> SubdomainGrid:
    """Tensor-product box grid of dimension ``len(active_axes)`` embedded in N-space."""
    d = len(active_axes)
    if d == 0:
        point = np.array([fixed_coords[k] for k in range(ambient_dim)])
        return _point_grid(point, ambient_dim, aperture)

    n_cells_axis = [len(a) - 1 for a in axis_nodes]
    if min(n_cells_axis) < 1:
        raise MeshError("each active axis needs at least one cell")
    mids = [0.5 * (a[:-1] + a[1:]) for a in axis_nodes]
    widths = [np.diff(a) for a in axis_nodes]

    cell_shape = tuple(n_cells_axis)
    node_shape = tuple(n + 1 for n in n_cells_axis)
    n_cells = int(np.prod(cell_shape))
    n_nodes = int(np.prod(node_shape))

    def fill_fixed(arr_per_active: list[np.ndarray]) -> np.ndarray:
        """Assemble ambient coordinates from per-active-axis flat arrays."""
        n = arr_per_active[0].size
        out = np.empty((n, ambient_dim))
        for k in range(ambient_dim):
            if k in fixed_coords:
                out[:, k] = fixed_coords[k]
        for j, k in enumerate(active_axes):
            out[:, k] = arr_per_active[j]
        return out

    grids_n = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = fill_fixed([g.ravel() for g in grids_n])

    grids_c = np.meshgrid(*mids, indexing="ij")
    cell_centres = fill_fixed([g.ravel() for g in grids_c])
    grids_w = np.meshgrid(*widths, indexing="ij")
    cell_measures = np.ones(n_cells)
    for g in grids_w:
        cell_measures = cell_measures * g.ravel()

    # Cell-node incidence: the 2^d corners of each cell.
    cell_idx = np.arange(n_cells)
    cell_multi = np.unravel_index(cell_idx, cell_shape)
    cn_rows, cn_cols = [], []
    for corner in itertools.product((0, 1), repeat=d):
        node_multi = tuple(cell_multi[j] + corner[j] for j in range(d))
        cn_rows.append(np.ravel_multi_index(node_multi, node_shape))
        cn_cols.append(cell_idx)
    cell_nodes = sps.csc_matrix(
        (np.ones(n_cells * 2**d, dtype=bool), (np.concatenate(cn_rows), np.concatenate(cn_cols))),
        shape=(n_nodes, n_cells),
    )

    # Faces: one block per active axis direction.
    face_centres, face_measures, face_normals = [], [], []
    cf_face, cf_cell, cf_sign = [], [], []
    fn_node, fn_face = [], []
    face_offset = 0
    for j, axis in enumerate(active_axes):
        fshape = tuple(n + 1 if i == j else n for i, n in enumerate(n_cells_axis))
        n_block = int(np.prod(fshape))
        coords = [axis_nodes[i] if i == j else mids[i] for i in range(d)]
        grids_f = np.meshgrid(*coords, indexing="ij")
        face_centres.append(fill_fixed([g.ravel() for g in grids_f]))

        msr = np.ones(n_block)
        for i in range(d):
            if i == j:
                continue
            gw = np.meshgrid(*[widths[i] if ii == i else np.ones(fshape[ii]) for ii in range(d)], indexing="ij")[i]
            msr = msr * gw.ravel()
        face_measures.append(msr)

        normal = np.zeros(ambient_dim)
        normal[axis] = 1.0
        face_normals.append(np.broadcast_to(normal, (n_block, ambient_dim)))

        fidx = np.arange(n_block)
        fmulti = np.unravel_index(fidx, fshape)
        pos_j = fmulti[j]
        # Cell below the face along axis j sees the +normal as outward.
        below = pos_j >= 1
        cmulti = tuple(fmulti[i][below] - (1 if i == j else 0) for i in range(d))
        cf_face.append(fidx[below] + face_offset)
        cf_cell.append(np.ravel_multi_index(cmulti, cell_shape))
        cf_sign.append(np.ones(below.sum()))
        above = pos_j <= n_cells_axis[j] - 1
        cmulti = tuple(fmulti[i][above] for i in range(d))
        cf_face.append(fidx[above] + face_offset)
        cf_cell.append(np.ravel_multi_index(cmulti, cell_shape))
        cf_sign.append(-np.ones(above.sum()))

        # Face-node incidence: 2^(d-1) corners per face.
        other = [i for i in range(d) if i != j]
        for corner in itertools.product((0, 1), repeat=d - 1):
            node_multi = tuple(
                fmulti[i] + (corner[other.index(i)] if i in other else 0) for i in range(d)
            )
            fn_node.append(np.ravel_multi_index(node_multi, node_shape))
            fn_face.append(fidx + face_offset)
        face_offset += n_block

    n_faces = face_offset
    cell_faces = sps.csc_matrix(
        (np.concatenate(cf_sign), (np.concatenate(cf_face), np.concatenate(cf_cell))),
        shape=(n_faces, n_cells),
    )
    fn_node = np.concatenate(fn_node)
    fn_face = np.concatenate(fn_face)
    face_nodes = sps.csc_matrix(
        (np.ones(fn_node.size, dtype=bool), (fn_node, fn_face)), shape=(n_nodes, n_faces)
    )

    scale = aperture ** (ambient_dim - d)
    face_measures = np.concatenate(face_measures)
    return SubdomainGrid(
        dim=d,
        ambient_dim=ambient_dim,
        nodes=nodes,
        cell_centres=cell_centres,
        cell_volumes=cell_measures * scale,
        geometric_cell_measures=cell_measures,
        face_centres=np.concatenate(face_centres, axis=0),
        face_normals=np.concatenate(face_normals, axis=0).astype(float),
        face_areas=face_measures * scale,
        geometric_face_measures=face_measures,
        cell_faces=cell_faces,
        face_nodes=face_nodes,
        cell_nodes=cell_nodes,
        apertures=np.full(n_cells, float(aperture)),
        internal_boundary=np.zeros(n_faces, dtype=bool),
        kind="cartesian",
    )


# ---------------------------------------------------------------------------
# Face splitting and geometric matching
# ---------------------------------------------------------------------------


def split_faces(grid: SubdomainGrid, faces: np.ndarray) -> np.ndarray:
    """Duplicate interior faces so each copy attaches to one cell only.

    The kept copy stays with the cell that saw the normal as outward; the new
    copy (appended at the end) attaches to the other cell with its normal
    flipped to point outward. Both copies are tagged as internal boundary.
    Returns the new copy of each given face. The grid is modified in place.
    """
    faces = np.asarray(faces, dtype=int)
    n_old = grid.n_faces
    new_faces = n_old + np.arange(faces.size)
    if faces.size == 0:
        return new_faces
    pairs = grid.face_cells[faces]
    one_sided = np.flatnonzero((pairs < 0).any(axis=1))
    if one_sided.size:
        raise MeshError(f"cannot split boundary face {faces[one_sided[0]]}")
    table = np.vstack([grid.face_cells, np.column_stack([pairs[:, 1], np.full(faces.size, -1)])])
    table[faces, 1] = -1
    grid.face_cells = table
    grid.cell_faces = cell_faces_of(table, grid.n_cells)

    def dup(arr):
        return np.concatenate([arr, arr[faces]], axis=0)

    grid.face_centres = dup(grid.face_centres)
    normals = dup(grid.face_normals)
    normals[n_old:] = -normals[n_old:]  # outward from the second cell
    grid.face_normals = normals
    grid.face_areas = dup(grid.face_areas)
    grid.geometric_face_measures = dup(grid.geometric_face_measures)

    fn = grid.face_nodes.tocsc()
    grid.face_nodes = sps.hstack([fn, fn[:, faces]], format="csc").astype(bool)

    internal = np.concatenate([grid.internal_boundary, np.ones(faces.size, dtype=bool)])
    internal[faces] = True
    grid.internal_boundary = internal

    if hasattr(grid, "_face_nodes_csr"):
        del grid._face_nodes_csr
    return new_faces


def match_centres(candidates: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """Pairs (i, j), shape (n_pairs, 2), with candidates[i] == targets[j]
    within ``tol``, in ascending candidate order.

    Points match on their coordinates rounded to multiples of ``tol``; of
    targets that round alike, the last one counts.
    """
    if len(candidates) == 0 or len(targets) == 0:
        return np.zeros((0, 2), dtype=int)
    n_targets = len(targets)
    keys = np.rint(np.concatenate([targets, candidates]) / max(tol, 1e-300))
    # Group equal keys; each candidate takes its key's highest target index.
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    new_key = np.ones(order.size, dtype=bool)
    new_key[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    key = np.cumsum(new_key) - 1
    is_target = order < n_targets
    last_target = np.full(key[-1] + 1, -1)
    np.maximum.at(last_target, key[is_target], order[is_target])
    i = order[~is_target] - n_targets
    j = last_target[key[~is_target]]
    i, j = i[j >= 0], j[j >= 0]
    close = np.linalg.norm(candidates[i] - targets[j], axis=1) <= tol
    pairs = np.column_stack([i[close], j[close]])
    return pairs[np.argsort(pairs[:, 0])]


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


def _snap(value: float, nodes: np.ndarray, tol: float, what: str):
    idx = int(np.argmin(np.abs(nodes - value)))
    if abs(nodes[idx] - value) > tol:
        raise FractureAlignmentError(f"{what} at {value} does not coincide with a grid plane")
    return nodes[idx], idx


def _as_tensor(permeability, dim) -> PermeabilityTensor:
    if isinstance(permeability, PermeabilityTensor):
        return permeability
    if np.isscalar(permeability):
        return PermeabilityTensor.isotropic(float(permeability), dim)
    return PermeabilityTensor(np.asarray(permeability, dtype=float))


def _mean_eigenvalue(tensor: PermeabilityTensor) -> float:
    return float(np.trace(tensor.matrix)) / tensor.dim


def _intersection_tensor(rule, parents: list[dict], ambient_dim: int) -> PermeabilityTensor:
    """Apply the intersection permeability rule given parent metadata dicts."""
    tensors = [p["permeability"] for p in parents]
    if isinstance(rule, PermeabilityTensor):
        return rule
    if np.isscalar(rule) and not isinstance(rule, str):
        return PermeabilityTensor.isotropic(float(rule), ambient_dim)
    if rule == "min":
        return min(tensors, key=_mean_eigenvalue)
    if rule == "harmonic":
        means = [_mean_eigenvalue(t) for t in tensors]
        return PermeabilityTensor.isotropic(len(means) / sum(1.0 / m for m in means), ambient_dim)
    if isinstance(rule, tuple) and len(rule) == 2 and rule[0] == "patch":
        for p in parents:
            if rule[1] in p["ancestors"]:
                return p["ancestor_tensors"][p["ancestors"].index(rule[1])]
        raise MeshError(f"intersection rule names patch {rule[1]!r}, not among parents")
    raise MeshError(f"unknown intersection permeability rule {rule!r}")


def build_cartesian_with_fractures(spec: FractureNetworkSpec, resolution) -> MixedDimensionalMesh:
    """Build the mixed-dimensional hierarchy for an axis-aligned fracture network.

    Parameters:
        spec: Domain box, fracture patches, intersection permeability rule.
        resolution: Cells per axis (int, per-axis ints, or explicit node arrays).

    Raises:
        FractureAlignmentError: A patch does not coincide with grid planes.
        FractureOverlapError: Same-orientation patches overlap or touch.
    """
    ambient = spec.ambient_dim
    axes = _axis_node_arrays(spec.domain, resolution, ambient)
    spans = [a[-1] - a[0] for a in axes]
    tol = 1e-8 * max(spans)

    # Normalize and validate patches.
    patches = []
    for idx, patch in enumerate(spec.fractures):
        if ambient < 2:
            raise MeshError("fractures require an ambient dimension of at least 2")
        name = patch.name or f"fracture_{idx}"
        coord, node_idx = _snap(patch.coordinate, axes[patch.normal_axis], tol, f"fracture {name!r} plane")
        if node_idx == 0 or node_idx == len(axes[patch.normal_axis]) - 1:
            raise FractureAlignmentError(f"fracture {name!r} lies on the domain boundary")
        extents = []
        for axis, (lo, hi) in zip(patch.in_plane_axes(ambient), patch.extents):
            lo_s, lo_i = _snap(lo, axes[axis], tol, f"fracture {name!r} extent")
            hi_s, hi_i = _snap(hi, axes[axis], tol, f"fracture {name!r} extent")
            if hi_i <= lo_i:
                raise MeshError(f"fracture {name!r} has empty extent on axis {axis}")
            extents.append((lo_s, hi_s))
        patches.append(
            {
                "name": name,
                "normal_axis": patch.normal_axis,
                "coordinate": coord,
                "extents": extents,
                "in_plane_axes": patch.in_plane_axes(ambient),
                "aperture": float(patch.aperture),
                "permeability": _as_tensor(patch.permeability, ambient),
            }
        )

    # Reject overlapping or touching same-orientation patches.
    for a, b in itertools.combinations(patches, 2):
        if a["normal_axis"] != b["normal_axis"] or a["coordinate"] != b["coordinate"]:
            continue
        boxes_touch = all(
            ea[0] <= eb[1] and eb[0] <= ea[1] for ea, eb in zip(a["extents"], b["extents"])
        )
        if boxes_touch:
            raise FractureOverlapError(
                f"fractures {a['name']!r} and {b['name']!r} overlap in the same plane"
            )

    subdomains: list[SubdomainGrid] = []
    matrix = structured_grid(ambient, list(range(ambient)), axes, {}, aperture=1.0)
    matrix.metadata = {"role": "matrix", "name": "matrix"}
    subdomains.append(matrix)

    def restricted(axis: int, lo: float, hi: float) -> np.ndarray:
        arr = axes[axis]
        i0 = int(np.argmin(np.abs(arr - lo)))
        i1 = int(np.argmin(np.abs(arr - hi)))
        return arr[i0 : i1 + 1]

    fracture_sds = []
    for p in patches:
        g = structured_grid(
            ambient,
            p["in_plane_axes"],
            [restricted(axis, *ext) for axis, ext in zip(p["in_plane_axes"], p["extents"])],
            {p["normal_axis"]: p["coordinate"]},
            aperture=p["aperture"],
        )
        g.metadata = {
            "role": "fracture",
            "name": p["name"],
            "permeability": p["permeability"],
            "ancestors": [p["name"]],
            "ancestor_tensors": [p["permeability"]],
        }
        fracture_sds.append(len(subdomains))
        subdomains.append(g)

    # Pairwise patch intersections: dimension N-2 entities.
    segments = []  # ambient == 3: {"axis", "range", "fixed", parents...}
    point_records: dict[tuple, dict] = {}  # ambient == 2 (from patches) or 3 (from segments)

    def add_point(coords: tuple, parent: dict):
        rec = point_records.setdefault(coords, {"parents": []})
        if parent not in rec["parents"]:
            rec["parents"].append(parent)

    for pa, pb in itertools.combinations(patches, 2):
        if pa["normal_axis"] == pb["normal_axis"]:
            continue
        ca_ok = _within(pa["coordinate"], pb, pa["normal_axis"], ambient)
        cb_ok = _within(pb["coordinate"], pa, pb["normal_axis"], ambient)
        if not (ca_ok and cb_ok):
            continue
        if ambient == 2:
            coords = [0.0, 0.0]
            coords[pa["normal_axis"]] = pa["coordinate"]
            coords[pb["normal_axis"]] = pb["coordinate"]
            add_point(tuple(coords), {"kind": "patch_pair", "patches": (pa, pb)})
        else:
            free = [k for k in range(3) if k not in (pa["normal_axis"], pb["normal_axis"])][0]
            lo = max(pa["extents"][pa["in_plane_axes"].index(free)][0],
                     pb["extents"][pb["in_plane_axes"].index(free)][0])
            hi = min(pa["extents"][pa["in_plane_axes"].index(free)][1],
                     pb["extents"][pb["in_plane_axes"].index(free)][1])
            if hi <= lo:
                continue  # zero-length contact carries no cells
            segments.append(
                {
                    "axis": free,
                    "range": (lo, hi),
                    "fixed": {pa["normal_axis"]: pa["coordinate"], pb["normal_axis"]: pb["coordinate"]},
                    "patches": (pa, pb),
                }
            )

    segment_sds = []
    rule = spec.intersection_permeability
    for seg in segments:
        parents = [{"permeability": p["permeability"], "ancestors": [p["name"]],
                    "ancestor_tensors": [p["permeability"]]} for p in seg["patches"]]
        tensor = _intersection_tensor(rule, parents, ambient)
        aperture = min(p["aperture"] for p in seg["patches"])
        g = structured_grid(
            ambient, [seg["axis"]], [restricted(seg["axis"], *seg["range"])], seg["fixed"], aperture
        )
        names = [p["name"] for p in seg["patches"]]
        g.metadata = {
            "role": "intersection",
            "name": "x".join(names),
            "permeability": tensor,
            "ancestors": names,
            "ancestor_tensors": [p["permeability"] for p in seg["patches"]],
            "aperture_sources": [p["aperture"] for p in seg["patches"]],
        }
        seg["sd"] = len(subdomains)
        seg["metadata"] = g.metadata
        segment_sds.append(len(subdomains))
        subdomains.append(g)

    if ambient == 3:
        for sa, sb in itertools.combinations(segments, 2):
            if sa["axis"] == sb["axis"]:
                continue
            coords = [None, None, None]
            coords[sa["axis"]] = sb["fixed"].get(sa["axis"])
            coords[sb["axis"]] = sa["fixed"].get(sb["axis"])
            third = [k for k in range(3) if k not in (sa["axis"], sb["axis"])][0]
            if sa["fixed"][third] != sb["fixed"][third]:
                continue
            coords[third] = sa["fixed"][third]
            if not (sa["range"][0] <= coords[sa["axis"]] <= sa["range"][1]):
                continue
            if not (sb["range"][0] <= coords[sb["axis"]] <= sb["range"][1]):
                continue
            add_point(tuple(coords), {"kind": "segment", "segment": sa})
            add_point(tuple(coords), {"kind": "segment", "segment": sb})

    point_sds = []
    for coords in sorted(point_records):
        rec = point_records[coords]
        parents, ancestor_names = [], []
        apertures = []
        for parent in rec["parents"]:
            if parent["kind"] == "patch_pair":
                for p in parent["patches"]:
                    parents.append({"permeability": p["permeability"], "ancestors": [p["name"]],
                                    "ancestor_tensors": [p["permeability"]]})
                    ancestor_names.append(p["name"])
                    apertures.append(p["aperture"])
            else:
                md = parent["segment"]["metadata"]
                parents.append({"permeability": md["permeability"], "ancestors": md["ancestors"],
                                "ancestor_tensors": md["ancestor_tensors"]})
                ancestor_names.extend(md["ancestors"])
                apertures.extend(parent["segment"]["metadata"]["aperture_sources"])
        tensor = _intersection_tensor(rule, parents, ambient)
        g = _point_grid(np.array(coords), ambient, min(apertures))
        g.metadata = {
            "role": "intersection",
            "name": "point_" + "_".join(f"{c:g}" for c in coords),
            "permeability": tensor,
            "ancestors": sorted(set(ancestor_names)),
            "ancestor_tensors": [],
        }
        point_sds.append(len(subdomains))
        subdomains.append(g)

    # Split host faces and build interface maps, top dimension downward.
    interfaces: list[InterfaceMap] = []
    match_tol = 1e-10 * max(spans)
    by_dim = {d: [i for i, g in enumerate(subdomains) if g.dim == d] for d in range(ambient + 1)}
    for d_high in range(ambient, 0, -1):
        for hi_idx in by_dim.get(d_high, []):
            higher = subdomains[hi_idx]
            matches_per_lower = []
            for lo_idx in by_dim.get(d_high - 1, []):
                lower = subdomains[lo_idx]
                pairs = match_centres(higher.face_centres, lower.cell_centres, match_tol)
                if pairs.size:
                    matches_per_lower.append((lo_idx, pairs))
            if not matches_per_lower:
                continue
            all_faces = np.unique(np.concatenate([pairs[:, 0] for _, pairs in matches_per_lower]))
            to_split = all_faces[~higher.boundary_faces[all_faces]]
            twin = np.full(higher.n_faces, -1)
            twin[to_split] = split_faces(higher, to_split)
            higher.internal_boundary[all_faces] = True
            for lo_idx, pairs in matches_per_lower:
                # Each pair on a split face is followed by the pair of its copy.
                split = twin[pairs[:, 0]] >= 0
                rows = np.repeat(pairs, np.where(split, 2, 1), axis=0)
                copies = np.cumsum(np.where(split, 2, 1))[split] - 1
                rows[copies, 0] = twin[pairs[split, 0]]
                interfaces.append(InterfaceMap(hi_idx, lo_idx, rows))

    mesh = MixedDimensionalMesh(subdomains, interfaces)
    mesh.validate()
    return mesh


def _within(coordinate: float, patch: dict, axis: int, ambient: int) -> bool:
    """Whether a plane coordinate on ``axis`` falls inside a patch's extent."""
    if axis == patch["normal_axis"]:
        return False
    lo, hi = patch["extents"][patch["in_plane_axes"].index(axis)]
    return lo <= coordinate <= hi
