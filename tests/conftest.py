import math

import numpy as np
import pytest

from kpilab import (
    DispersionParams, SpectralField, TorusGrid, default_profile, evolve, evolve_many,
    make_control_profile,
)
from kpilab.dispersion import unit_phases
from kpilab.experiments import random_field, seeded_rng
from kpilab.fourier import TWO_PI
from kpilab.observe import apply_control, gauss_legendre_nodes
from kpilab.propagate import _cached_grid_frequencies, _kept_modes


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


def _verify_panels(traj, steps):
    """The verifier's panel count: side^2, with the larger side of its two rules.

    ``ceil(sqrt(ceil(2 steps / 24)))`` holds ``2 steps`` nodes of 24-node panels, and
    ``ceil(sqrt(ceil(span T / 34.55)))`` resolves span, the largest ``|omega_q - omega_p|`` over
    the kept modes of one line along the control axis that holds phi.
    """
    phi = traj.phi_final
    axis = 1 if traj.orientation == "horizontal" else 0
    omega = np.moveaxis(_cached_grid_frequencies(phi.grid, traj.params), axis, -1)
    kept = np.moveaxis(_kept_modes(phi.grid), axis, -1)
    held = np.moveaxis(phi.coeffs != 0, axis, -1) & kept
    span = 0.0
    for line in np.ndindex(omega.shape[:-1]):
        if held[line].any():
            on_line = omega[line][kept[line]]
            span = max(span, float(on_line.max() - on_line.min()))
    steps_side = math.ceil(math.sqrt(math.ceil(2 * steps / 24)))
    span_side = math.ceil(math.sqrt(math.ceil(span * traj.horizon / 34.55)))
    return max(steps_side, span_side) ** 2


@pytest.fixture(scope="session")
def verify_panels():
    return _verify_panels


def _direct_phase_verify(u0, traj, steps):
    """The Duhamel verifier's Gauss-Legendre sum, G on the whole grid, each node's own phases.

    The rule is the verifier's, side^2 panels of 24 nodes (:func:`_verify_panels`), with float64
    times, and every node takes its phases from ``unit_phases``. The forcing is summed in the
    frame ``w = S(-t) u`` at the nodes t themselves, not through the substitution t -> T - t
    that makes the verifier's sum ``Lambda_T phi``; G is applied twice in physical space at
    each node. The nodes go 256 at a time, in order, which bounds the memory.
    """
    horizon, params, grid = traj.horizon, traj.params, u0.grid
    times, weights = gauss_legendre_nodes(horizon, _verify_panels(traj, steps), 24)
    omega = _cached_grid_frequencies(grid, params)
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for start in range(0, times.size, 256):
        part = slice(start, start + 256)
        t = times[part]
        forcing = evolve_many(traj.phi_final, t - horizon, params)
        for _ in range(2):
            forcing = apply_control(forcing, traj.profile, traj.orientation)
        forcing *= unit_phases(omega, -t)
        acc += np.einsum("b,b...->...", weights[part], forcing)
    acc[~_kept_modes(grid)] = 0.0
    return evolve(SpectralField(grid, u0.coeffs + acc), horizon, params)


@pytest.fixture(scope="session")
def direct_phase_verify():
    return _direct_phase_verify
