import numpy as np
import pytest

from lqrpg import ConfigurationError, PlantModel, closed_loop, paper3x3, scalar_s1
from lqrpg.plants import smallest_eigenvalue, stability_report


class TestPlantModel:
    def test_scalar_preset_values(self):
        p = scalar_s1()
        assert p.A[0, 0] == 0.5
        assert p.B[0, 0] == 1.0
        assert p.n_x == 1 and p.n_u == 1

    def test_paper_preset_values(self):
        p = paper3x3()
        expected_A = np.array([[1.01, 0.01, 0.0],
                               [0.01, 1.01, 0.01],
                               [0.0, 0.01, 1.01]])
        np.testing.assert_allclose(p.A, expected_A)
        np.testing.assert_allclose(p.B, np.eye(3))
        np.testing.assert_allclose(p.Q, 0.001 * np.eye(3))
        np.testing.assert_allclose(p.R, np.eye(3))

    def test_paper_preset_scaling(self):
        p = paper3x3(noise_scale=1e-2, sigma0_scale=0.5)
        np.testing.assert_allclose(p.Sigma_w, 1e-2 * np.eye(3))
        np.testing.assert_allclose(p.Sigma_0, 0.5 * np.eye(3))

    def test_rejects_nonsquare_A(self):
        with pytest.raises(ConfigurationError):
            PlantModel(A=np.ones((2, 3)), B=np.ones((2, 1)), Q=np.eye(2),
                       R=np.eye(1), Sigma_w=np.eye(2), Sigma_0=np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            PlantModel(A=np.eye(2), B=np.ones((2, 1)), Q=np.eye(3),
                       R=np.eye(1), Sigma_w=np.eye(2), Sigma_0=np.eye(2))

    def test_rejects_indefinite_Q(self):
        with pytest.raises(ConfigurationError):
            PlantModel(A=np.eye(1), B=np.eye(1), Q=-np.eye(1), R=np.eye(1),
                       Sigma_w=np.eye(1), Sigma_0=np.eye(1))

    def test_rejects_asymmetric_R(self):
        with pytest.raises(ConfigurationError):
            PlantModel(A=np.eye(2), B=np.eye(2), Q=np.eye(2),
                       R=np.array([[1.0, 0.5], [0.0, 1.0]]),
                       Sigma_w=np.eye(2), Sigma_0=np.eye(2))

    def test_zero_noise_allowed(self):
        p = PlantModel(A=np.eye(1) * 0.5, B=np.eye(1), Q=np.eye(1),
                       R=np.eye(1), Sigma_w=np.zeros((1, 1)),
                       Sigma_0=np.zeros((1, 1)))
        assert p.n_x == 1

    def test_matrices_immutable(self):
        p = scalar_s1()
        with pytest.raises(ValueError):
            p.A[0, 0] = 2.0

    def test_check_gain_shape(self):
        p = paper3x3()
        with pytest.raises(ConfigurationError):
            p.check_gain(np.zeros((2, 3)))


class TestStability:
    def test_closed_loop_stable(self):
        p = scalar_s1()
        A_K, rep = closed_loop(p, [[-0.5]])
        assert A_K[0, 0] == 0.0
        assert rep.spectral_radius == 0.0
        assert rep.is_stabilizing

    def test_closed_loop_unstable(self):
        p = scalar_s1()
        _, rep = closed_loop(p, [[1.0]])
        assert rep.spectral_radius == pytest.approx(1.5)
        assert not rep.is_stabilizing

    def test_boundary_not_stabilizing(self):
        rep = stability_report(np.eye(2))
        assert not rep.is_stabilizing


def test_smallest_eigenvalue():
    assert smallest_eigenvalue(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0)
