import pytest

from kinksolve import SolveConfig, compute_constants, make_grid, solve


@pytest.fixture(scope="session")
def default_grid():
    return make_grid(20.0, 0.05)


@pytest.fixture(scope="session")
def ledger(default_grid):
    return compute_constants(default_grid)


@pytest.fixture(scope="session")
def kink_q0(default_grid, ledger):
    """Converged q = 0 solution on the default grid."""
    return solve(SolveConfig(q=0.0), default_grid, ledger)
