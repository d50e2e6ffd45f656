"""Mixed-dimensional mesh construction, validation and file exchange."""

from .cartesian import (
    FractureNetworkSpec,
    FracturePatch,
    build_cartesian_with_fractures,
    structured_grid,
)
from .grids import SubdomainGrid, validate_grid
from .mdmesh import InterfaceMap, MixedDimensionalMesh
from .meshio import load_mesh, save_mesh

__all__ = [
    "FractureNetworkSpec",
    "FracturePatch",
    "InterfaceMap",
    "MixedDimensionalMesh",
    "SubdomainGrid",
    "build_cartesian_with_fractures",
    "load_mesh",
    "save_mesh",
    "structured_grid",
    "validate_grid",
]
