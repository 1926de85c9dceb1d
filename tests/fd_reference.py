"""Central finite-difference cylindrical div and curl, kept as a reference.

The residual checks take exact derivatives (dual numbers in R, and
kernel calls on the derivative of the phase factor); these second-order
central differences are an independent route to the same derivatives,
which the tests use to check the field formulas and criterion 7's
convergence order.  Points within ``BOUNDARY_MARGIN_STEPS`` steps of the
tube boundary raise :class:`BoundaryProximityError`, since a stencil there
crosses the confinement mask.
"""

import numpy as np

from toroidal_em.fields import AnsatzParams

# Points closer than this many FD steps to the tube boundary are rejected.
BOUNDARY_MARGIN_STEPS = 10.0


class BoundaryProximityError(ValueError):
    """Point too close to the mask discontinuity for finite differences."""


def _check_margin(R, z, p: AnsatzParams, dl: float) -> None:
    s = np.sqrt((np.asarray(R, dtype=float) - p.R0) ** 2 + np.asarray(z, dtype=float) ** 2)
    if np.any(np.abs(s - p.r0) < BOUNDARY_MARGIN_STEPS * dl):
        raise BoundaryProximityError(
            f"point within {BOUNDARY_MARGIN_STEPS} FD steps of the tube boundary; "
            "derivatives are undefined across the confinement mask"
        )


def _stencil(field, R, phi, z, h: float, dl):
    """``field`` at the six central-difference neighbours of (R, phi, z).

    Order: R + dl, R - dl, phi + h, phi - h, z + dl, z - dl.
    """
    return (field(R + dl, phi, z), field(R - dl, phi, z),
            field(R, phi + h, z), field(R, phi - h, z),
            field(R, phi, z + dl), field(R, phi, z - dl))


def _steps(R, h: float, dl):
    """Terms every difference at R shares: the pair (R + dl, R - dl) on a
    leading axis, and the denominators 2*dl*R, 2*h*R and 2*dl."""
    return np.add.outer((dl, -dl), R), 2.0 * dl * R, 2.0 * h * R, 2.0 * dl


def _diff(f, den):
    """Central difference (f[0] - f[1])/den of the pair f at +- one step.

    df/dz and df/dR over den = 2*dl, and (1/R)*df/dphi over 2*h*R.
    """
    return (f[0] - f[1]) / den


def _diff_R(f, R_pm, den_R):
    """(1/R)*d(R*f)/dR from the pair f at R_pm = (R + dl, R - dl); den_R = 2*dl*R."""
    return (R_pm[0] * f[0] - R_pm[1] * f[1]) / den_R


def fd_div_cylindrical(field, R, phi, z, h: float, p: AnsatzParams):
    """Central-difference cylindrical divergence of ``field`` at (R, phi, z).

    ``field(R, phi, z)`` must return the (R, phi, z) components on the
    leading axis.  Steps: h*p.R0 in R and z and h radians in phi.  Points
    within ``BOUNDARY_MARGIN_STEPS`` steps of the tube boundary of ``p``
    raise :class:`BoundaryProximityError`.
    """
    R, dl = np.asarray(R, dtype=float), h * p.R0
    _check_margin(R, z, p, dl)
    f_rp, f_rm, f_pp, f_pm, f_zp, f_zm = _stencil(field, R, phi, z, h, dl)
    R_pm, den_R, den_phi, den_z = _steps(R, h, dl)
    return (_diff_R((f_rp[0], f_rm[0]), R_pm, den_R) + _diff((f_pp[1], f_pm[1]), den_phi)
            + _diff((f_zp[2], f_zm[2]), den_z))


def fd_curl_cylindrical(field, R, phi, z, h: float, p: AnsatzParams) -> np.ndarray:
    """Central-difference cylindrical curl; same conventions as the divergence."""
    R, dl = np.asarray(R, dtype=float), h * p.R0
    _check_margin(R, z, p, dl)
    f_rp, f_rm, f_pp, f_pm, f_zp, f_zm = _stencil(field, R, phi, z, h, dl)
    R_pm, den_R, den_phi, den_z = _steps(R, h, dl)
    curl_r = _diff((f_pp[2], f_pm[2]), den_phi) - _diff((f_zp[1], f_zm[1]), den_z)
    curl_phi = _diff((f_zp[0], f_zm[0]), den_z) - _diff((f_rp[2], f_rm[2]), den_z)
    curl_z = _diff_R((f_rp[1], f_rm[1]), R_pm, den_R) - _diff((f_pp[0], f_pm[0]), den_phi)
    return np.stack(np.broadcast_arrays(curl_r, curl_phi, curl_z))


def margin_samples(p: AnsatzParams, n: int, seed: int, h: float):
    """``n`` seeded (R, phi, z, t) points of the tube, each at least
    ``BOUNDARY_MARGIN_STEPS`` steps h*p.R0 inside its wall, and times over
    one period."""
    rng = np.random.default_rng(seed)
    s = (p.r0 - BOUNDARY_MARGIN_STEPS * h * p.R0) * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    t = rng.uniform(0.0, 2.0 * np.pi / p.omega, size=n)
    return p.R0 + s * np.cos(theta), phi, s * np.sin(theta), t
