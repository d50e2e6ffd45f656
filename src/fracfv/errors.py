"""Exception hierarchy for the fracfv package.

The CLI maps these onto exit-code categories: mesh problems, discretization
and assembly problems, and solver problems.
"""


class FracfvError(Exception):
    """Base class for all errors raised by fracfv."""


class PermeabilityError(FracfvError, ValueError):
    """A permeability that is not a finite symmetric positive-definite tensor
    of the expected dimension."""


class MeshError(FracfvError):
    """Invalid mesh geometry, topology or construction input."""


class FractureAlignmentError(MeshError):
    """A fracture patch does not coincide with grid planes."""


class FractureOverlapError(MeshError):
    """Two fracture patches of the same orientation overlap or touch."""


class MeshFormatError(MeshError):
    """A mesh document violates the text format."""


class ConformityError(MeshError):
    """Interface pairs do not match geometrically across dimensions."""


class DiscretizationError(FracfvError):
    """Failure while computing transmissibilities or local systems."""


class DegenerateGeometryError(DiscretizationError):
    """Zero distance vectors or otherwise degenerate cell/face geometry."""


class SingularLocalSystemError(DiscretizationError):
    """A local interaction-region system could not be solved."""

    def __init__(self, node: int, message: str = ""):
        self.node = node
        super().__init__(message or f"singular interaction-region system at node {node}")


class BoundaryConditionError(DiscretizationError):
    """Invalid or incomplete boundary-condition assignment."""


class AssemblyError(FracfvError):
    """Global system assembly failed."""


class MissingCouplingError(AssemblyError):
    """An interface has no coupling discretization."""


class SolverError(FracfvError):
    """Linear-solver failure."""


class SingularMatrixError(SolverError):
    """The system matrix is singular or numerically near-singular."""


class EliminationError(FracfvError):
    """Intersection-cell elimination failed."""


class UnsupportedSourceError(EliminationError):
    """Source terms sit in cells the reduction cannot carry."""


class TransportError(FracfvError):
    """Transport discretization or stepping failed."""


class InflowBoundaryError(TransportError):
    """An inflow face has no transport boundary condition."""


class ProbeError(TransportError):
    """A monitoring probe does not resolve to exactly one cell."""
