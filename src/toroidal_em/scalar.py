"""The numpy-free scalar layer: parameter records, field kernels, closed
forms and defaults.

Everything here runs on Python numbers and the standard library, so the
commands that need nothing else (``constants`` and ``solve``) start
without importing numpy:

* :class:`TorusGeometry` and :class:`AnsatzParams`, the validated
  geometry and field parameters, and ``_faraday_omega``, the Faraday
  frequency 2c/R0, which :meth:`AnsatzParams.faraday`, the constraint
  solve and the faraday detune of :mod:`.maxwell` all read, so each
  forms the same float;
* the field kernels, one per nonzero component, each holding its
  interior formula (see below): ``_e_r``, ``_e_phi``, ``_b_z``,
  ``_j_r``, ``_j_phi``, ``_g_phi`` and ``_charge_density`` for rho, each
  from the phase's sine or cosine, and ``_energy_density_model`` from R,
  and ``_UNIT``, the phase factor 1 at which a kernel is its amplitude
  (see below);
* the closed forms of the four observables over the torus volume
  (``_q_rms_closed``, ``_mu_z_closed``, ``_l_z_closed``, ``_u_closed``),
  which the constraint solve and the observables both evaluate, and
  their constants ``_SQRT2`` and ``_PI2``, √2 and π² formed once, from
  ``math.sqrt`` and ``math.pi``.  Each stands in every place where its
  expression was written (the torus volume too), the same float in the
  same position, so every product keeps its bits; a constant is folded
  into its neighbours only where it leads its product, since a float
  product rounds left to right;
* :class:`SamplingConfig` and :class:`SamplingError` of the residual
  checks, and the library defaults ``DEFAULT_TOLERANCE``,
  ``DEFAULT_RESOLUTION`` and ``MIN_RESOLUTION``;
* the library's two input rules, each raising the exception class its
  caller names (ValueError, or SamplingError for :class:`SamplingConfig`):
  the count rule ``_require_count``, an int, not a bool, at least a
  minimum (``SamplingConfig``'s ``n_points`` and ``seed``, and the three
  counts of ``geometry.build_grid``), and the tolerance rule
  ``_require_positive``, a finite number > 0, not a bool
  (``SamplingConfig.h`` and the ``tol`` of ``maxwell.full_verification``
  and of the constraint solve);
* :func:`to_json`, the one serializer of every JSON the workbench writes:
  a recursive writer that emits the bytes of ``json.dumps(doc,
  indent=2)`` in one pass, without the pure-Python encoder that
  ``indent`` selects in ``json`` and without leaving cyclic garbage;
  and ``SCHEMA_VERSION``, the version of those documents, which the
  report and the export-field header both write.

Each name is defined here once; :mod:`.fields`, :mod:`.geometry`,
:mod:`.maxwell`, :mod:`.observables`, :mod:`.solver` and :mod:`.report`
import it from here.

Every record of the package that is built per call is declared with
``_record`` rather than ``@dataclass(frozen=True)``: the same frozen
dataclass, with the same fields, signature, ``repr``, ``==``, ``hash``,
pickling and ``dataclasses`` functions, whose ``__init__`` writes the
instance dict directly instead of calling ``object.__setattr__`` once
per field.  A constraint fit builds four records with 27 fields between
them, and building them is a large share of its cost; the solver builds
its two result records positionally, in field order, which its
bit-for-bit reference test pins.
``PhysicalConstants`` and ``DerivedScales`` stay plain frozen
dataclasses: they are built about once per process, and
:mod:`.constants`, which this module imports, cannot import the
decorator from here without a cycle.

A kernel reads neither the mask nor z.  It is its amplitude at a point
(constants and radial profile) times the phase factor, multiplied in
that order, so it broadcasts: given a stack of phase factors on a
leading axis, it forms the amplitude once and returns one value per
factor, each equal, bit for bit, to a separate call.  Its body is +, -,
*, / and integer powers with integer literals only, so it computes in
the arithmetic of its inputs: Python floats and numpy arrays (the public
evaluators of :mod:`.fields`, which multiply it by the mask, and the
observable quadratures), ``fractions.Fraction`` exactly, sympy symbols
(the symbolic audit of the tests) and, for R, the dual numbers of
:mod:`.maxwell`.  Each of the six kernels that the Maxwell verification
reads is linear in its phase factor and uses only +, * and / on R, so
the verification takes its derivatives by calling it on the dual radius
R + 1*dR and on the phase factor's derivative (cos for sin, -sin for
cos).  Neither the verification nor the quadratures evaluate the mask:
their nodes lie strictly inside the tube, where it reads 1.0.

Every caller that needs a kernel's amplitude calls the kernel on
``_UNIT``, the phase factor 1, whose product with any operand is that
operand: the Maxwell radial profile and its J_R normalization, and the
observable densities of :mod:`.observables`.  The amplitude times
``_UNIT`` is the amplitude itself, bit for bit the kernel at 1.0, but
without the pass that multiplies a whole array by 1.0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii as _encode_str

from .constants import CODATA, PhysicalConstants

# Fewest nodes per axis that build_grid accepts.
MIN_RESOLUTION = 4

# (n_r, n_theta, n_phi) of the grid the library and the CLI use by default.
DEFAULT_RESOLUTION = (32, 64, 64)

# Normalized residual bound of each Maxwell check: the exact-derivative
# residuals read at most about 2e-14 over 0.01 <= r0/R0 <= 0.95.
DEFAULT_TOLERANCE = 1e-12

# sqrt(2) and pi^2 of the closed forms and the constraint solve, formed once.
_SQRT2 = math.sqrt(2.0)
_PI2 = math.pi**2


def _record(cls):
    """``dataclass(frozen=True)`` whose ``__init__`` writes the instance dict.

    The class is made a frozen dataclass without its generated
    ``__init__``; in its place goes one built here, once per class, with
    the same signature and defaults, that stores each field with
    ``d[name] = name`` on ``d = self.__dict__`` and then calls
    ``__post_init__`` where the class defines one.  A frozen dataclass's
    own ``__init__`` stores each field through ``object.__setattr__``,
    which makes an 11-field record about three times as costly to build.
    Only fields that ``__init__`` takes, with a plain default or none,
    are supported.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    params, stores, defaults = [], [], {}
    for f in fields(cls):
        if (not f.init or f.kw_only or f.default_factory is not MISSING
                or f.name in ("self", "d")):
            raise TypeError(f"{cls.__name__}.{f.name}: _record supports only "
                            "positional init fields with a plain default, "
                            "named neither self nor d")
        if f.default is MISSING:
            params.append(f.name)
        else:
            defaults[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"    d[{f.name!r}] = {f.name}\n")
    if hasattr(cls, "__post_init__"):
        stores.append("    self.__post_init__()\n")
    namespace = {"__name__": cls.__module__, **defaults}
    exec(f"def __init__(self, {', '.join(params)}):\n    d = self.__dict__\n"
         + "".join(stores), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields(cls)}, "return": None}
    cls.__init__ = init
    return cls


def _require_count(value, minimum: int, name: str, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is an int, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise error(f"{name} must be an int >= {minimum}, got {value!r}")


def _require_positive(value, name: str, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` is a finite number > 0, not a bool
    (a NaN fails too)."""
    if isinstance(value, bool) or not 0.0 < value < math.inf:
        raise error(f"{name} must be finite and > 0, got {value!r}")


def _require_torus(R0, r0) -> None:
    """Raise ValueError unless 0 < r0 < R0 (a NaN fails too)."""
    if not (0.0 < r0 < R0):
        raise ValueError(f"need 0 < r0 < R0 for a proper torus, got r0={r0}, R0={R0}")


def _faraday_omega(R0, k: PhysicalConstants):
    """The Faraday frequency 2c/R0, the one omega at which the ansatz holds."""
    return 2.0 * k.c / R0


@_record
class TorusGeometry:
    """Torus with major radius R0 and tube (minor) radius r0, in metres."""

    R0: float
    r0: float

    def __post_init__(self) -> None:
        _require_torus(self.R0, self.r0)

    @property
    def volume(self) -> float:
        """Exact tube volume 2*pi^2*R0*r0^2."""
        return 2.0 * _PI2 * self.R0 * self.r0**2


@_record
class AnsatzParams:
    """Free parameters of the field configuration.

    Use :meth:`faraday` to construct with the self-consistent frequency
    omega = 2c/R0, and the constructor for any other omega; :meth:`with_omega`
    repeats the constructor only for the benchmark harness
    (``perfbench/workloads.py``).  The field kernels derive B0 = E0/c.
    """

    E0: float      # electric amplitude [V/m]
    R0: float      # major radius [m]
    r0: float      # tube radius [m]
    omega: float   # angular frequency [rad/s]

    def __post_init__(self) -> None:
        E0, R0, r0, omega = self.E0, self.R0, self.r0, self.omega
        if not (math.isfinite(E0) and math.isfinite(R0) and math.isfinite(r0)
                and math.isfinite(omega)):
            for name, value in zip(("E0", "R0", "r0", "omega"), (E0, R0, r0, omega)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
        if E0 < 0.0:
            raise ValueError("E0 must be >= 0")
        _require_torus(R0, r0)
        if omega < 0.0:
            raise ValueError("omega must be >= 0")

    @classmethod
    def faraday(cls, E0: float, R0: float, r0: float,
                k: PhysicalConstants = CODATA) -> "AnsatzParams":
        """Construct with the unique Faraday-consistent frequency 2c/R0."""
        return cls(E0, R0, r0, _faraday_omega(R0, k))

    @classmethod
    def with_omega(cls, E0: float, R0: float, r0: float, omega: float) -> "AnsatzParams":
        """Construct with a free frequency (residual experiments only)."""
        return cls(E0=E0, R0=R0, r0=r0, omega=omega)

    @property
    def geometry(self) -> TorusGeometry:
        return TorusGeometry(R0=self.R0, r0=self.r0)


class SamplingError(ValueError):
    """Sampling settings that the residual checks cannot honour for a configuration."""


@_record
class SamplingConfig:
    """Residual-check settings.

    ``maxwell.full_verification`` reads only ``n_points``, the number of
    Chebyshev nodes in R.  ``seed`` feeds only ``maxwell.interior_samples``,
    and nothing reads ``h``; both stay, validated, for ``report``'s
    ``sampling`` record and for the benchmark harness, which passes them.
    """

    n_points: int = 1000
    seed: int = 42
    h: float = 1e-5

    def __post_init__(self) -> None:
        _require_count(self.n_points, 1, "n_points", SamplingError)
        _require_count(self.seed, 0, "seed", SamplingError)
        _require_positive(self.h, "h", SamplingError)


# Field kernels: the interior formula of each nonzero component.

class _Unit:
    """The phase factor 1: its product with any operand is that operand, so
    a kernel called on ``_UNIT`` is its amplitude with no pass that
    multiplies by 1.0.  Floats, arrays, Fractions, sympy expressions and
    duals all defer to it."""

    __array_ufunc__ = None

    def __mul__(self, other):
        return other

    __rmul__ = __mul__


_UNIT = _Unit()


def _e_r(sin_psi, p: AnsatzParams):
    """E_R inside the tube from sin(psi)."""
    return -p.E0 * sin_psi


def _e_phi(R, cos_psi, p: AnsatzParams):
    """E_phi inside the tube from cos(psi)."""
    return -p.E0 * (1 + R / p.R0) * cos_psi


def _b_z(sin_psi, p: AnsatzParams, k: PhysicalConstants):
    """B_z inside the tube from sin(psi); the amplitude is B0 = E0/c."""
    return -(p.E0 / k.c) * sin_psi


def _charge_density(sin_psi, p: AnsatzParams, k: PhysicalConstants):
    """Kernel of :func:`.fields.charge_density` from sin(psi)."""
    return k.eps0 * p.E0 / p.R0 * sin_psi


def _j_r(R, cos_psi, p: AnsatzParams, k: PhysicalConstants):
    """J_R inside the tube from cos(psi)."""
    return -k.eps0 * p.E0 * (k.c / R + p.omega) * cos_psi


def _j_phi(R, sin_psi, p: AnsatzParams, k: PhysicalConstants):
    """J_phi inside the tube from sin(psi)."""
    return k.eps0 * p.E0 * p.omega * (1 + R / p.R0) * sin_psi


def _g_phi(sin_psi, p: AnsatzParams, k: PhysicalConstants):
    """g_phi = eps0*(E x B)_phi = -eps0*E_R*B_z inside the tube from sin(psi),
    squared as a product: a float's ** calls libm pow, which can round apart."""
    return -k.eps0 * p.E0 * (p.E0 / k.c) * (sin_psi * sin_psi)


def _energy_density_model(R, p: AnsatzParams, k: PhysicalConstants):
    """Kernel of :func:`.fields.energy_density_model` inside the tube."""
    return k.eps0 * p.E0**2 * (1 + R / (4 * p.R0))


# Closed forms of the four observables over the torus volume.  Each
# O(r0^2/R0^2) bracket is the full-corrections value; ``corrections=False``
# sets it to its thin-torus limit, as the thin constraint system does.

def _aspect2(R0, r0, corrections: bool):
    """(r0/R0)^2 as it enters the brackets: 0 without the corrections."""
    return r0**2 / R0**2 if corrections else 0.0


def _q_rms_closed(E0, r0, k: PhysicalConstants):
    """RMS charge sqrt(2)*pi^2*eps0*E0*r0^2; it has no bracket."""
    return _SQRT2 * _PI2 * k.eps0 * E0 * r0**2


def _mu_z_closed(E0, R0, r0, k: PhysicalConstants, corrections: bool = True):
    """Magnetic moment sqrt(2)*eps0*pi*c*E0*R0*r0^2*(1 + r0^2/(2R0^2))."""
    return (_SQRT2 * k.eps0 * math.pi * k.c * E0 * R0 * r0**2
            * (1.0 + _aspect2(R0, r0, corrections) / 2.0))


def _l_z_closed(E0, R0, r0, k: PhysicalConstants, corrections: bool = True):
    """Angular momentum (1/c)*eps0*E0^2*pi^2*R0^2*r0^2*(1 + r0^2/(4R0^2))."""
    return (k.eps0 * E0**2 * _PI2 * R0**2 * r0**2 / k.c
            * (1.0 + _aspect2(R0, r0, corrections) / 4.0))


def _u_closed(E0, R0, r0, k: PhysicalConstants, corrections: bool = True):
    """Total energy eps0*pi^2*R0*r0^2*E0^2*(5/2 + r0^2/(8R0^2))."""
    return (k.eps0 * _PI2 * R0 * r0**2 * E0**2
            * (2.5 + _aspect2(R0, r0, corrections) / 8.0))


# Version of the report and of the export-field header, which move together.
SCHEMA_VERSION = "3.0"


def _fields_dict(obj) -> dict:
    """One dataclass level as a dict of its fields, in field order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@functools.cache
def _field_keys(cls) -> tuple:
    """(name, '"name": ') of each field of a dataclass type, in field order;
    TypeError for any other type."""
    return tuple((f.name, _encode_str(f.name) + ": ") for f in fields(cls))


def _token(o):
    """JSON text of a str, None, bool, int or float, tested in that order
    as ``json`` does; None for any other object."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o or o == math.inf or o == -math.inf:
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    return None


def _write(o, nl: str, out: list) -> None:
    """Append the JSON of ``o`` to ``out``; ``nl`` is a newline plus the
    indent of the line that ``o`` starts on."""
    token = _token(o)
    if token is not None:
        out.append(token)
        return
    if isinstance(o, (list, tuple)):
        items = [("", v) for v in o]
        brackets = "[]"
    elif isinstance(o, dict):
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append((_encode_str(k) + ": ", v))
        brackets = "{}"
    else:
        items = [(key, getattr(o, name)) for name, key in _field_keys(type(o))]
        brackets = "{}"
    if not items:
        out.append(brackets)
        return
    inner = nl + "  "
    sep = brackets[0] + inner
    for key, v in items:
        token = _token(v)
        if token is None:
            out.append(sep + key)
            _write(v, inner, out)
        else:
            out.append(sep + key + token)
        sep = "," + inner
    out.append(nl + brackets[1])


def to_json(doc) -> str:
    """Strict JSON of ``doc`` with a trailing newline: the one serializer of
    every JSON the workbench writes.

    The bytes are those of ``json.dumps(doc, indent=2,
    default=_fields_dict, allow_nan=False)`` plus the newline: a
    two-space indent, ``","`` between items and ``": "`` after keys,
    ASCII-escaped strings, and the ``repr`` of each int and float.  Types
    are tested in ``json``'s order (str, None, True, False, int, float,
    list or tuple, dict), and any other object must be a dataclass
    instance, written as an object of its fields in field order.

    * A NaN or infinity raises ValueError instead of writing a token that
      JSON does not have.
    * Any other object raises TypeError.
    * A dict key that is not a str raises TypeError, where ``json`` would
      coerce an int, float, bool or None key; no caller passes one.

    ``json.dumps`` is not called because ``indent`` makes it leave its C
    encoder for the pure-Python ``_make_iterencode``, whose nested
    closures are about twice as slow as this writer and leave a
    reference cycle of about 30 objects per call for the garbage collector.
    ``_write`` is a module-level function and keeps no closure, so a call
    leaves no cyclic garbage.
    """
    out: list = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)
