"""Conditioning sweep of the exact layer: plants whose unstable mode is
barely reachable, with PBH margins (``conftest.pbh_margin``) in each decade
from 1e-1 to 1e-4, well past the 0.1 that ``random_plant`` guards."""
import numpy as np
import pytest

from lqrpg import PlantModel, exact, finite_horizon_quantities, solve_dare
from conftest import pbh_margin

# One unstable eigenvalue, 1.5; the first input reaches its mode with weight eps.
A0 = np.array([[1.5, 0.0, 0.0], [0.4, 0.5, 0.0], [0.2, 0.3, -0.4]])
B0 = np.array([[0.0, 0.0], [1.0, 0.3], [0.2, 1.0]])
HORIZON = 5000


def plant_with_margin(target: float, rng: np.random.Generator) -> PlantModel:
    """(A0, B0 + eps e_1 e_1') in a random orthonormal basis, whose PBH margin,
    nearly linear in eps, is brought to ``target``; random SPD weights."""
    T = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    eps, margin = 1.0, 1.0
    for _ in range(4):
        eps *= target / margin
        B = B0.copy()
        B[0, 0] = eps
        margin = pbh_margin(T @ A0 @ T.T, T @ B)

    def spd(n):
        M = rng.normal(size=(n, n))
        return M @ M.T + np.eye(n)

    return PlantModel(A=T @ A0 @ T.T, B=T @ B, Q=spd(3), R=spd(2),
                      Sigma_w=spd(3), Sigma_0=spd(3))


@pytest.mark.parametrize("decade", [1, 2, 3])
def test_riccati_cost_matches_the_long_horizon_recursion(decade, monkeypatch,
                                                         record_property):
    """solve_dare's C* against finite_horizon_quantities at K*, for three
    plants with margins 10^-(decade + 1/4, 1/2, 3/4).

    C^(l) = C* + T/l + O(rho^l), with rho(A + B K*) about 2/3 here, so
    2 C^(2l) - C^(l) removes the 1/l transient and must equal C* to rounding.
    Tolerance, relative to C*: 1e-9 + 1e3 u ||K*||_2^2 (u = 2^-53).
    - K* must push a mode it barely reaches back inside the unit circle, so
      ||K*|| grows like 1/margin (13 to 5400 here). Both sides carry the
      weight Q + K*'RK*, whose entries are about ||K*||^2 times R's, and
      each rounds to a few ulps of those terms.
    - At the best-conditioned plants a floor remains: value iteration stops
      at a relative update of 1e-12, and the recursion sums 10^4 states.
    Over 144 such plants (16 seeds per margin), the worst agreement was
    5.5e-11 at margins 1e-2..1e-1 and 76 u ||K*||^2 at 1e-4..1e-3: at most
    0.08 of the tolerance. The value iterations that solve_dare takes are
    recorded: 39-47 at margins 1e-2..1e-1, up to a few thousand near 1e-4,
    where rounding noise in the 1e-12 stopping test sets the count."""
    calls, symmetrize = [], exact._symmetrize
    # solve_dare symmetrizes each iterate (2-D), the Lyapunov core its stacks (3-D).
    monkeypatch.setattr(exact, "_symmetrize",
                        lambda X: calls.append(X.ndim) or symmetrize(X))
    rng = np.random.default_rng(decade)
    iterations = []
    for fraction in (0.25, 0.5, 0.75):
        plant = plant_with_margin(10.0 ** -(decade + fraction), rng)
        assert 10.0 ** -(decade + 1) < pbh_margin(plant.A, plant.B) < 10.0 ** -decade
        del calls[:]
        opt = solve_dare(plant)
        iterations.append(calls.count(2))
        C_l = finite_horizon_quantities(plant, opt.K_star, HORIZON)[1]
        C_2l = finite_horizon_quantities(plant, opt.K_star, 2 * HORIZON)[1]
        tol = 1e-9 + 1e3 * 2.0**-53 * np.linalg.norm(opt.K_star, 2) ** 2
        assert abs(2 * C_2l - C_l - opt.C_star) <= tol * opt.C_star
        # The transient itself: |T| / C* stayed below 2.75 over those plants.
        assert abs(C_l - opt.C_star) <= 5.0 / HORIZON * opt.C_star
    record_property("value_iterations", iterations)
    assert max(iterations) < exact._DARE_MAX_ITER
    if decade == 1:
        assert max(iterations) <= 100
