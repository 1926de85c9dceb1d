"""Torus geometry, coordinate transforms, and volume quadrature grids.

Coordinates: a point inside the torus tube is (r, theta, phi) with
r the distance from the tube centreline, theta the poloidal angle and
phi the azimuthal angle around the symmetry axis.  The cylindrical image
is R = R0 + r*cos(theta), z = r*sin(theta), phi unchanged.  The volume
element is dV = r*(R0 + r*cos(theta)) dr dtheta dphi.

Quadrature: Gauss-Legendre nodes in r on [0, r0] combined with uniform
(rectangle-rule) nodes in the two periodic angles.  The rectangle rule is
spectrally accurate for smooth periodic integrands, so the torus volume
and the R-moment integrals used by the observables come out exact to
machine precision at the default resolution.  An integrand that does not
depend on phi is integrated on the (r, theta) meridian plane alone, with
the phi rule collapsed to its weight sum 2*pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

# Fewest nodes per axis that build_grid accepts.
MIN_RESOLUTION = 4

# (n_r, n_theta, n_phi) of the grid the library and the CLI use by default.
DEFAULT_RESOLUTION = (32, 64, 64)


@dataclass(frozen=True)
class TorusGeometry:
    """Torus with major radius R0 and tube (minor) radius r0, in metres."""

    R0: float
    r0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r0 < self.R0):
            raise ValueError(
                f"need 0 < r0 < R0 for a proper torus, got r0={self.r0}, R0={self.R0}"
            )

    @property
    def volume(self) -> float:
        """Exact tube volume 2*pi^2*R0*r0^2."""
        return 2.0 * np.pi**2 * self.R0 * self.r0**2


def toroidal_to_cylindrical(r, theta, phi, g: TorusGeometry):
    """Map toroidal coordinates to cylindrical (R, phi, z).

    Accepts scalars or broadcastable arrays.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("minor-radial coordinate r must be >= 0")
    R = g.R0 + r * np.cos(theta)
    z = r * np.sin(theta)
    return R, np.asarray(phi, dtype=float), z


def inside_torus(R, z, g: TorusGeometry):
    """True strictly inside the tube: (R - R0)^2 + z^2 < r0^2.

    The boundary itself counts as outside, so the field mask is a strict
    inequality and every quantity vanishes exactly at r = r0.  Only
    ``g.R0`` and ``g.r0`` are read, so field parameters that carry the two
    radii may be passed in place of a :class:`TorusGeometry`.
    """
    R = np.asarray(R, dtype=float)
    z = np.asarray(z, dtype=float)
    return (R - g.R0) ** 2 + z**2 < g.r0**2


def jacobian(r, theta, g: TorusGeometry):
    """Volume-element factor r*(R0 + r*cos(theta)); dV = jacobian dr dtheta dphi."""
    r = np.asarray(r, dtype=float)
    return r * (g.R0 + r * np.cos(theta))


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature over the torus volume, kept as its factors.

    The ``plane_*`` arrays hold the n_r*n_theta nodes of the (r, theta)
    meridian plane, flattened with theta varying fastest.  ``plane_weights``
    is the r weight times the theta weight times the Jacobian times 2*pi,
    the phi rule's weight sum, so a phi-independent integrand is a plain
    weighted sum of its plane values (:func:`integrate_axisymmetric`).

    The flat 3-D node arrays ``r, theta, phi, weights, R, z`` (n_r*n_theta*
    n_phi entries, phi varying fastest) serve integrands that depend on phi
    (:func:`integrate`).  Each is built on first access, with the Jacobian
    already folded into ``weights``.  Only ``phi`` varies along phi, so the
    others repeat plane values computed with the same arithmetic as a full
    3-D meshgrid would use, and are bit-identical to it.
    """

    geometry: TorusGeometry
    resolution: tuple[int, int, int]
    r_weights: np.ndarray = field(repr=False)
    phi_nodes: np.ndarray = field(repr=False)
    plane_r: np.ndarray = field(repr=False)
    plane_theta: np.ndarray = field(repr=False)
    plane_R: np.ndarray = field(repr=False)
    plane_z: np.ndarray = field(repr=False)
    plane_weights: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        """Nodes of the full 3-D rule, n_r*n_theta*n_phi."""
        return self.plane_weights.size * self.phi_nodes.size

    def _along_phi(self, plane_values: np.ndarray) -> np.ndarray:
        """Repeat each plane-node value over the phi nodes (phi fastest)."""
        return np.repeat(plane_values, self.phi_nodes.size)

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
            * jacobian(self.plane_r, self.plane_theta, self.geometry)
        )

    @cached_property
    def R(self) -> np.ndarray:
        return self._along_phi(self.plane_R)

    @cached_property
    def z(self) -> np.ndarray:
        return self._along_phi(self.plane_z)


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared by every caller, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def build_grid(g: TorusGeometry,
               resolution: tuple[int, int, int] = DEFAULT_RESOLUTION) -> QuadratureGrid:
    """Build a (n_r, n_theta, n_phi) quadrature grid over the torus.

    Gauss-Legendre in r keeps every node strictly inside 0 < r < r0,
    which sidesteps both the Jacobian zero at the axis and the boundary
    convention at r = r0.  Only the meridian plane is evaluated here.
    """
    n_r, n_theta, n_phi = resolution
    if min(n_r, n_theta, n_phi) < MIN_RESOLUTION:
        raise ValueError(f"resolution counts must be >= {MIN_RESOLUTION}, got {resolution}")

    x, w = _gauss_legendre(n_r)
    r_nodes = 0.5 * g.r0 * (x + 1.0)
    r_weights = 0.5 * g.r0 * w
    theta_nodes = 2.0 * np.pi * np.arange(n_theta) / n_theta
    phi_nodes = 2.0 * np.pi * np.arange(n_phi) / n_phi

    r2, t2 = np.meshgrid(r_nodes, theta_nodes, indexing="ij")
    w2 = r_weights[:, None] * (2.0 * np.pi / n_theta) * (2.0 * np.pi) * jacobian(r2, t2, g)
    R2, _, z2 = toroidal_to_cylindrical(r2, t2, 0.0, g)
    return QuadratureGrid(
        geometry=g,
        resolution=(n_r, n_theta, n_phi),
        r_weights=r_weights,
        phi_nodes=phi_nodes,
        plane_r=r2.ravel(),
        plane_theta=t2.ravel(),
        plane_R=R2.ravel(),
        plane_z=z2.ravel(),
        plane_weights=w2.ravel(),
    )


def _weighted_sum(weights: np.ndarray, values) -> float:
    values = np.broadcast_to(np.asarray(values, dtype=float), weights.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand produced non-finite values on the grid")
    return float(np.dot(weights, values))


def integrate(values, grid: QuadratureGrid) -> float:
    """Integrate over the torus volume with the full 3-D rule.

    ``values`` are the integrand at the grid nodes (``grid.r``,
    ``grid.theta``, ``grid.phi``; constant scalars are broadcast).  Raises
    ValueError if any value is non-finite.
    """
    return _weighted_sum(grid.weights, values)


def integrate_axisymmetric(values, grid: QuadratureGrid) -> float:
    """Integrate a phi-independent integrand over the torus volume.

    ``values`` are the integrand at the meridian-plane nodes
    (``grid.plane_R``, ``grid.plane_z``; constant scalars are broadcast).
    This is the full rule of :func:`integrate` with its n_phi identical
    phi-planes summed in closed form, so it agrees with it up to summation
    order.  Raises ValueError if any value is non-finite.
    """
    return _weighted_sum(grid.plane_weights, values)
