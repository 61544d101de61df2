import numpy as np
import pytest

from fbslq.equilibrium import solve_equilibrium
from fbslq.fields import Strategy, TimeGrid
from fbslq.kernels import LagKernel
from fbslq.presets import assumption_smoke_problem
from fbslq.problem import Coefficients, Dimensions, ProblemSpec, Weights


@pytest.fixture(scope="session")
def smoke_spec():
    return assumption_smoke_problem(400)


@pytest.fixture(scope="session")
def smoke_solution(smoke_spec):
    return solve_equilibrium(smoke_spec, Strategy.zeros(smoke_spec.grid, 1, 1))


@pytest.fixture(scope="session")
def smoke_solution_1000():
    spec = assumption_smoke_problem(1000)
    return solve_equilibrium(spec, Strategy.zeros(spec.grid, 1, 1))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def matrix_p2_problem(steps, n=2, m=2, k=1):
    """Every coefficient time-varying and coupled, every weight the identity.

    H, the hat coefficients, M, N and G2 are all nonzero, so P2, P7 and the
    backward state Y, Z are too.
    """
    rng = np.random.default_rng(7)

    def affine(shape):
        alpha = 0.5 * rng.standard_normal(shape)
        return LagKernel(0.0, [0.5 * rng.standard_normal(shape), alpha])

    return ProblemSpec(
        dims=Dimensions(n, m, k),
        coeffs=Coefficients(
            A=affine((n, n)), B=affine((n, k)), C=affine((n, n)), D=affine((n, k)),
            Ahat=affine((m, n)), Bhat=affine((m, k)),
            Chat=LagKernel(1.5, [0.5 * rng.standard_normal((m, m))]), Dhat=affine((m, m)),
            H=rng.standard_normal((m, n)), horizon=1.0,
        ),
        weights=Weights(
            Q=LagKernel(0.0, [np.eye(n)]), R=LagKernel(0.0, [np.eye(k)]), M=LagKernel(0.0, [np.eye(m)]),
            N=LagKernel(0.0, [np.eye(m)]), G1=LagKernel(0.0, [np.eye(n)]), G2=LagKernel(0.0, [np.eye(m)]),
        ),
        grid=TimeGrid(1.0, steps),
    )
