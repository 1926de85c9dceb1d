"""Shared fixtures: constants, solved parameter sets, and a default grid."""

import dataclasses

import pytest
from hypothesis import settings

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.geometry import build_grid
from toroidal_em.maxwell import SamplingConfig
from toroidal_em.solver import solve_full, solve_thin_torus

# Same examples on every run, no timing flakiness, bounded cost.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def k():
    return CODATA


@pytest.fixture(scope="session")
def rescaled():
    """``rescaled(k, L, T=1, M=1, Q=1)``: the constants ``k`` in units of
    length, time, mass and charge that are L, T, M and Q times smaller, so
    that every quantity's number grows by its dimension.

    c -> (L/T)*c, eps0 -> (Q^2*T^2/(M*L^3))*eps0, hbar -> (M*L^2/T)*hbar,
    e -> Q*e and m_e -> M*m_e; alpha is dimensionless and stays, and
    mu0 -> (M*L/Q^2)*mu0 follows from eps0 and c.  With T = M = Q = 1,
    lengths alone scale: c -> L*c, eps0 -> eps0/L^3, hbar -> L^2*hbar.
    """
    def rescale(k, L, T=1.0, M=1.0, Q=1.0):
        return dataclasses.replace(
            k, c=k.c * L / T, eps0=k.eps0 * Q**2 * T**2 / (M * L**3),
            hbar=k.hbar * M * L**2 / T, e_charge=k.e_charge * Q, m_e=k.m_e * M)
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
