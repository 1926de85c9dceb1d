"""Shared fixtures: constants, solved parameter sets, and a default grid."""

import dataclasses

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Same examples on every run, no timing flakiness, bounded cost.
    settings.register_profile("tier1", derandomize=True, deadline=None,
                              max_examples=200, database=None)
    settings.load_profile("tier1")

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.geometry import build_grid
from toroidal_em.maxwell import SamplingConfig
from toroidal_em.solver import solve_full, solve_thin_torus


@pytest.fixture(scope="session")
def k():
    return CODATA


@pytest.fixture(scope="session")
def rescaled():
    """``rescaled(k, lam)``: the constants ``k`` in a unit system rescaled by ``lam``.

    Lengths scale by ``lam`` at fixed times, so c -> lam*c, eps0 -> eps0/lam^3
    and hbar -> lam^2*hbar; mu0 -> lam*mu0 follows from eps0 and c.
    """
    def rescale(k, lam):
        return dataclasses.replace(k, c=k.c * lam, eps0=k.eps0 / lam**3, hbar=k.hbar * lam**2)
    return rescale


@pytest.fixture(scope="session")
def ds(k):
    return derived_scales(k)


@pytest.fixture(scope="session")
def thin(k):
    """Thin-torus closed-form solution with the Schwinger factor."""
    return solve_thin_torus(k, include_schwinger=True)


@pytest.fixture(scope="session")
def full(k):
    """Full-corrections closed-form solution (electron targets)."""
    return solve_full(k)


@pytest.fixture(scope="session")
def params(full, k):
    """Faraday-consistent field parameters at the full solution."""
    return full.as_params(k)


@pytest.fixture(scope="session")
def grid(params):
    """Default-resolution quadrature grid over the solved torus."""
    return build_grid(params.geometry, (32, 64, 64))


@pytest.fixture()
def sampling():
    return SamplingConfig(n_points=1000, seed=42, h=1e-5)
