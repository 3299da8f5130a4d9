import numpy as np
import pytest

from kpilab import DispersionParams, TorusGrid, default_profile, make_control_profile
from kpilab.experiments import random_field, seeded_rng
from kpilab.fourier import TWO_PI
from kpilab.observe import apply_control, gauss_legendre_nodes


@pytest.fixture(scope="session")
def grid_1d():
    return TorusGrid(64)


@pytest.fixture(scope="session")
def grid_2d():
    return TorusGrid(64, 16)


@pytest.fixture(scope="session")
def kp_params():
    return DispersionParams.kp1(2.0)


@pytest.fixture(scope="session")
def profile_64():
    return make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", TorusGrid(64))


@pytest.fixture(scope="session")
def profile_default():
    return default_profile(1024)


@pytest.fixture()
def rng():
    return seeded_rng(1234, "unit-tests")


def make_random_field(grid, rng, **kw):
    return random_field(grid, rng, **kw)


def _full_grid_quadrature_energy(u0, horizon, profile, orientation, panels, order, evolve):
    """The observed energy by G on the whole grid at every node, all nodes in one stack.

    The formula of the time-quadrature oracle before it worked line by line;
    ``evolve(u0, times)`` returns the stack of the field at ``times``.
    """
    nodes, weights = gauss_legendre_nodes(horizon, panels, order)
    observed = apply_control(evolve(u0, nodes), profile, orientation)
    dim = u0.grid.dimension
    sums = np.sum(np.abs(observed) ** 2, axis=tuple(range(1, dim + 1)))
    total = 0.0
    for w, norm in zip(weights, np.sqrt(TWO_PI**dim * sums).tolist()):
        total += w * norm**2
    return total


@pytest.fixture(scope="session")
def full_grid_quadrature_energy():
    return _full_grid_quadrature_energy
