"""Property test of the constant set: eps0*mu0*c^2 = 1 for any c and eps0.

mu0 is derived as 1/(eps0*c^2), so mu0*eps0*c^2 - 1 is only the roundoff
of the two evaluations.  c^2 rounds to the same float in both; the other
four operations (eps0*c^2, the quotient, mu0*eps0 and its product with
c^2) round by at most half an ulp, 1.11e-16, each, so the bound is
4.5e-16.  It holds while every product stays a normal float; c and eps0
are drawn log-uniform over 40 and 100 decades.
"""

import dataclasses

from hypothesis import given, strategies as st

from toroidal_em.constants import CODATA


@given(c=st.floats(-20.0, 20.0).map(lambda e: 10.0**e),
       eps0=st.floats(-50.0, 50.0).map(lambda e: 10.0**e))
def test_mu0_eps0_c2_is_one(c, eps0):
    k = dataclasses.replace(CODATA, c=c, eps0=eps0)
    assert abs(k.mu0 * k.eps0 * k.c**2 - 1.0) <= 4.5e-16
