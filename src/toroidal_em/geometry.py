"""Torus geometry, coordinate transforms, and volume quadrature grids.

Coordinates: a point inside the torus tube is (r, theta, phi) with
r the distance from the tube centreline, theta the poloidal angle and
phi the azimuthal angle around the symmetry axis.  The cylindrical image
is R = R0 + r*cos(theta), z = r*sin(theta), phi unchanged.  The volume
element is dV = r*(R0 + r*cos(theta)) dr dtheta dphi = r*R dr dtheta dphi.

Quadrature: Gauss-Legendre nodes in r on [0, r0] combined with uniform
(rectangle-rule) nodes in the two periodic angles.  The rectangle rule is
spectrally accurate for smooth periodic integrands, so the torus volume
and the R-moment integrals used by the observables come out exact to
machine precision at the default resolution.  Every integrand integrated
here is independent of phi, so the rule is its (r, theta) meridian plane,
with the phi rule collapsed exactly to its weight sum 2*pi: n_phi reaches
no integral, and no array of length n_phi is built until a caller reads
the grid's lazy 3-D view.
"""

from __future__ import annotations

from dataclasses import field
from functools import cached_property, lru_cache

import numpy as np

from .scalar import (DEFAULT_RESOLUTION, MIN_RESOLUTION, TorusGeometry, _record,
                     _require_count)


def toroidal_to_cylindrical(r, theta, g: TorusGeometry):
    """Map toroidal (r, theta) to cylindrical (R, z); phi is unchanged.

    Accepts scalars or broadcastable arrays.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):  # NaN fails too
        raise ValueError("minor-radial coordinate r must be >= 0")
    return _torus_map(r, np.cos(theta), np.sin(theta), g.R0)


def _torus_map(r, cos_theta, sin_theta, R0):
    """(R, z) = (R0 + r*cos(theta), r*sin(theta)), the one statement of the map."""
    return R0 + r * cos_theta, r * sin_theta


@_record
class QuadratureGrid:
    """Tensor-product quadrature over the torus volume, kept as its factors.

    The ``plane_*`` arrays hold the n_r*n_theta nodes of the (r, theta)
    meridian plane, flattened with theta varying fastest.  ``plane_weights``
    is the r weight times the theta weight times the Jacobian r*R times
    2*pi, the phi rule's weight sum, so a phi-independent integrand is a
    plain weighted sum of its plane values (:func:`integrate_axisymmetric`).

    ``resolution`` keeps n_phi, but no field has length n_phi.  The flat
    3-D view ``phi_nodes, r, theta, phi, weights, R, z`` (n_r*n_theta*n_phi
    entries, phi varying fastest) is built only on first access, each
    from the plane with the same arithmetic as a full 3-D meshgrid would
    use, and is bit-identical to it.
    """

    geometry: TorusGeometry
    resolution: tuple[int, int, int]
    r_weights: np.ndarray = field(repr=False)
    plane_r: np.ndarray = field(repr=False)
    plane_theta: np.ndarray = field(repr=False)
    plane_R: np.ndarray = field(repr=False)
    plane_z: np.ndarray = field(repr=False)
    plane_weights: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        """Nodes of the full 3-D rule, n_r*n_theta*n_phi."""
        return self.plane_weights.size * self.resolution[2]

    def _along_phi(self, plane_values: np.ndarray) -> np.ndarray:
        """Repeat each plane-node value over the phi nodes (phi fastest)."""
        return np.repeat(plane_values, self.resolution[2])

    @cached_property
    def phi_nodes(self) -> np.ndarray:
        n_phi = self.resolution[2]
        return 2.0 * np.pi * np.arange(n_phi) / n_phi

    @cached_property
    def r(self) -> np.ndarray:
        return self._along_phi(self.plane_r)

    @cached_property
    def theta(self) -> np.ndarray:
        return self._along_phi(self.plane_theta)

    @cached_property
    def phi(self) -> np.ndarray:
        return np.tile(self.phi_nodes, self.plane_weights.size)

    @cached_property
    def weights(self) -> np.ndarray:
        _, n_theta, n_phi = self.resolution
        return self._along_phi(
            np.repeat(self.r_weights, n_theta)
            * (2.0 * np.pi / n_theta)
            * (2.0 * np.pi / n_phi)
            * (self.plane_r * self.plane_R)
        )

    @cached_property
    def R(self) -> np.ndarray:
        return self._along_phi(self.plane_R)

    @cached_property
    def z(self) -> np.ndarray:
        return self._along_phi(self.plane_z)


@lru_cache(maxsize=1)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], kept for the most
    recent n alone, so a sweep over n_r keeps O(n) and not every rule.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=1)
def _theta_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n uniform theta nodes on [0, 2*pi) with their cosines and sines.

    Read-only and kept for the most recent n alone, like
    :func:`_gauss_legendre`'s.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    factors = theta, np.cos(theta), np.sin(theta)
    for a in factors:
        a.flags.writeable = False
    return factors


def build_grid(g: TorusGeometry,
               resolution: tuple[int, int, int] = DEFAULT_RESOLUTION) -> QuadratureGrid:
    """Build a (n_r, n_theta, n_phi) quadrature grid over the torus.

    Each count must be an int (not a bool) >= ``MIN_RESOLUTION``; anything
    else raises ValueError.  Gauss-Legendre in r keeps every node strictly
    inside 0 < r < r0, which sidesteps both the Jacobian zero at the axis
    and the boundary convention at r = r0.  Only the meridian plane is
    evaluated here, and n_phi allocates nothing: the torus map takes the
    (n_r, 1) column of r nodes and the n_theta nodes of theta, so
    cos(theta) and sin(theta) are computed on the theta axis alone, kept
    for the most recent n_theta (:func:`_theta_rule`), and broadcast; the
    Jacobian r*R reads the map's R.  The r nodes are positive by
    construction, so the map is :func:`_torus_map` without the public
    function's check.  Each plane value is the one a full (r, theta) mesh
    would give, bit for bit.
    """
    resolution = tuple(resolution)
    if len(resolution) != 3:
        raise ValueError(f"resolution must be three counts (n_r, n_theta, n_phi), "
                         f"got {resolution!r}")
    for name, n in zip(("n_r", "n_theta", "n_phi"), resolution):
        _require_count(n, MIN_RESOLUTION, f"resolution count {name}")
    n_r, n_theta, _ = resolution

    x, w = _gauss_legendre(n_r)
    r_nodes = 0.5 * g.r0 * (x + 1.0)
    r_weights = 0.5 * g.r0 * w
    theta_nodes, cos_theta, sin_theta = _theta_rule(n_theta)

    r_col = r_nodes[:, None]
    R2, z2 = _torus_map(r_col, cos_theta, sin_theta, g.R0)
    w2 = r_weights[:, None] * (2.0 * np.pi / n_theta) * (2.0 * np.pi) * (r_col * R2)
    theta2 = np.empty_like(R2)
    theta2[:] = theta_nodes
    return QuadratureGrid(
        geometry=g,
        resolution=resolution,
        r_weights=r_weights,
        plane_r=np.repeat(r_nodes, n_theta),
        plane_theta=theta2.ravel(),
        plane_R=R2.ravel(),
        plane_z=z2.ravel(),
        plane_weights=w2.ravel(),
    )


def integrate_axisymmetric(values, grid: QuadratureGrid) -> float:
    """Integrate a phi-independent integrand over the torus volume.

    ``values`` are the integrand at the meridian-plane nodes
    (``grid.plane_R``, ``grid.plane_z``; constant scalars are broadcast).
    This is the full (r, theta, phi) rule with its n_phi identical
    phi-planes summed in closed form.  Raises ValueError if the integral
    is not finite.  That one check on the returned float covers every
    node: each plane weight is finite and > 0, so a NaN or infinite value
    makes the weighted sum NaN or infinite, and so does a sum of finite
    values that overflows.
    """
    weights = grid.plane_weights
    if np.shape(values) != weights.shape:
        values = np.broadcast_to(values, weights.shape)
    # inf - inf and an overflow read as the non-finite integral checked below
    with np.errstate(invalid="ignore", over="ignore"):
        integral = float(np.dot(weights, values))
    if not np.isfinite(integral):
        raise ValueError(f"the integral is not finite on the grid: {integral!r}")
    return integral
