"""Permeability tensor constructors and validation."""

import numpy as np
import pytest

from fracfv.errors import FracfvError, PermeabilityError
from fracfv.tensors import PermeabilityTensor, as_tensor, normal_permeability, tensor_field


def test_isotropic():
    t = PermeabilityTensor.isotropic(3.5, 3)
    assert np.array_equal(t.matrix, 3.5 * np.eye(3))


def test_diagonal():
    t = PermeabilityTensor.diagonal(4.0, 1.0, 0.25)
    assert np.array_equal(t.matrix, np.diag([4.0, 1.0, 0.25]))


def test_rotated_two_dimensional():
    t = PermeabilityTensor.rotated([2.0, 0.5], 90.0)
    assert np.allclose(t.matrix, np.diag([0.5, 2.0]), atol=1e-14)


def test_rotated_in_plane_matches_case_tensor():
    # Quarter-turn-of-eighth rotation of (1e3, 1e3/3, 1e3) within the
    # xy-plane; the sign of the off-diagonal follows the rotation direction.
    t = PermeabilityTensor.rotated([1e3, 1e3 / 3.0, 1e3], -45.0, plane=(0, 1))
    from fracfv.harness.cases import CASE3_FRACTURE_TENSOR

    assert np.allclose(t.matrix, CASE3_FRACTURE_TENSOR, rtol=1e-12)
    expected = np.array(
        [
            [2e3 / 3.0, -1e3 / 3.0, 0.0],
            [-1e3 / 3.0, 2e3 / 3.0, 0.0],
            [0.0, 0.0, 1e3],
        ]
    )
    assert np.allclose(t.matrix, expected, rtol=1e-12)


def test_symmetry_required():
    with pytest.raises(ValueError, match="symmetric"):
        PermeabilityTensor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_positive_definiteness_required():
    with pytest.raises(ValueError, match="positive definite"):
        PermeabilityTensor(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError, match="positive definite"):
        PermeabilityTensor(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_finite_entries_required(entry):
    with pytest.raises(PermeabilityError, match="finite") as err:
        PermeabilityTensor(np.array([[entry, 0.0], [0.0, 1.0]]))
    assert isinstance(err.value, FracfvError) and isinstance(err.value, ValueError)
    with pytest.raises(PermeabilityError, match="finite"), np.errstate(invalid="ignore"):
        PermeabilityTensor.isotropic(entry, 3)


def test_as_tensor_converts_scalars_arrays_and_tensors():
    tensor = PermeabilityTensor.diagonal(2.0, 3.0)
    assert as_tensor(tensor, 2) is tensor
    assert np.array_equal(as_tensor(4.0, 3).matrix, 4.0 * np.eye(3))
    assert np.array_equal(as_tensor(np.diag([2.0, 3.0]), 2).matrix, tensor.matrix)
    for permeability in (tensor, np.eye(2)):
        with pytest.raises(PermeabilityError, match="does not match grid dimension 3"):
            as_tensor(permeability, 3)
    per_cell = np.stack([np.eye(2), 2 * np.eye(2)])
    assert tensor_field(per_cell, 2, 2) is per_cell


def test_field_broadcast():
    field = PermeabilityTensor.isotropic(2.0, 2).field(5)
    assert field.shape == (5, 2, 2)
    assert np.array_equal(field[3], 2.0 * np.eye(2))


def test_tensor_field_accepts_scalars_and_arrays():
    assert tensor_field(3.0, 2, 2).shape == (2, 2, 2)
    assert tensor_field(np.eye(3), 4, 3).shape == (4, 3, 3)
    per_cell = np.stack([np.eye(2), 2 * np.eye(2)])
    assert np.array_equal(tensor_field(per_cell, 2, 2), per_cell)
    with pytest.raises(ValueError):
        tensor_field(np.eye(3), 4, 2)


def test_normal_permeability():
    k = np.diag([4.0, 1.0])
    assert normal_permeability(k, np.array([1.0, 0.0])) == 4.0
    assert normal_permeability(k, None) == 2.5  # eigenvalue mean
