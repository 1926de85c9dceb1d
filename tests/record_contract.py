"""The record contract: a ``scalar._record`` class behaves as the frozen
dataclass that ``dataclasses`` would build from the same fields.

:func:`check_record` compares a record class with its twin, a
``dataclasses.make_dataclass(..., frozen=True)`` class of the same name,
fields, defaults and ``__post_init__``, on the arguments of one instance.
It needs neither numpy nor pytest, so it also runs on an interpreter that
has neither:

    PYTHONPATH=src python tests/record_contract.py

checks the records of the numpy-free modules (:mod:`toroidal_em.scalar`
and :mod:`toroidal_em.solver`) and that ``dataclasses.replace`` runs
their validation; ``tests/test_records.py`` checks every record.
"""

import dataclasses
import inspect
import pickle

from toroidal_em.constants import CODATA, derived_scales
from toroidal_em.scalar import SamplingConfig, SamplingError, to_json
from toroidal_em.solver import THIN, ConstraintSystem, ratio_report, solve_full


def twin(cls):
    """The frozen dataclass that ``dataclasses`` builds from ``cls``'s fields."""
    spec = [(f.name, f.type, dataclasses.field(default=f.default, repr=f.repr,
                                               hash=f.hash, compare=f.compare))
            for f in dataclasses.fields(cls)]
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def outcome(call):
    """A call's result, or the type of the exception it raised."""
    try:
        return "returned", call()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return "raised", type(exc)


def check_record(instance) -> None:
    """Assert that ``type(instance)`` and its twin agree, built from
    ``instance``'s field values, in every respect a caller can see."""
    cls = type(instance)
    other = twin(cls)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(instance)
    assert inspect.signature(cls) == inspect.signature(other)
    assert inspect.signature(cls.__init__) == inspect.signature(other.__init__)
    names = [f.name for f in dataclasses.fields(cls)]
    args = [getattr(instance, name) for name in names]
    a, b = cls(*args), other(*args)
    assert list(vars(a)) == names
    assert repr(a) == repr(b)
    # arrays make == and hash raise; both classes must then raise alike
    assert outcome(lambda: a == cls(*args)) == outcome(lambda: b == other(*args))
    assert repr(cls(**dict(zip(names, args)))) == repr(a)
    assert outcome(lambda: hash(a)) == outcome(lambda: hash(b))
    assert repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))
    assert outcome(lambda: to_json(a)) == outcome(lambda: to_json(b))
    for name in names:
        for act in (lambda: setattr(a, name, None), lambda: delattr(a, name)):
            assert outcome(act) == ("raised", dataclasses.FrozenInstanceError)
    assert list(vars(a)) == names
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is cls and repr(dataclasses.asdict(copy)) == repr(dataclasses.asdict(a))
    if all(f.default is not dataclasses.MISSING for f in dataclasses.fields(cls)):
        assert repr(cls()) == repr(other())


def check_replace_validates() -> None:
    """``dataclasses.replace`` runs ``__post_init__``, as construction does."""
    p = solve_full().as_params()
    for record, change, error in [
            (p, {"r0": p.R0}, ValueError),
            (SamplingConfig(), {"n_points": 0}, SamplingError),
            (ConstraintSystem.for_electron(), {"mode": "thick"}, ValueError)]:
        assert outcome(lambda: dataclasses.replace(record, **change)) == ("raised", error)


def numpy_free_records() -> list:
    """One instance of each record of the numpy-free modules."""
    system = ConstraintSystem.for_electron(mode=THIN)
    sr = solve_full(CODATA, system)
    p = sr.as_params()
    return [p.geometry, p, SamplingConfig(n_points=7, seed=3, h=0.5), system, sr,
            ratio_report(sr, derived_scales(CODATA))]


if __name__ == "__main__":
    for record in numpy_free_records():
        check_record(record)
    check_replace_validates()
    print("record contract holds for",
          ", ".join(type(r).__name__ for r in numpy_free_records()))
