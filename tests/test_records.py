"""Every ``scalar._record`` class keeps the frozen-dataclass contract.

Each record is compared with its ``make_dataclass`` twin by
:func:`record_contract.check_record`, on the arguments of an instance
that the library builds.  ``PhysicalConstants`` and ``DerivedScales``
are the package's only plain frozen dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import toroidal_em
from record_contract import check_record, check_replace_validates, numpy_free_records
from toroidal_em.geometry import build_grid
from toroidal_em.report import build_full_report
from toroidal_em.scalar import SamplingConfig


def library_records() -> dict:
    """One library-built instance of each record type, by type name."""
    report = build_full_report(resolution=(4, 4, 4), sampling=SamplingConfig(n_points=8))
    records = [report, report.residual_checks[0], report.observables,
               report.observables.U, report.claims[0],
               build_grid(report.solve_full.as_params().geometry, (4, 5, 6))]
    records += numpy_free_records()
    return {type(r).__name__: r for r in records}


RECORDS = library_records()


def test_every_package_dataclass_is_a_record_but_the_constants():
    found = set()
    for info in pkgutil.iter_modules(toroidal_em.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"toroidal_em.{info.name}")
        found |= {name for name, obj in inspect.getmembers(module, inspect.isclass)
                  if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__}
    assert found - set(RECORDS) == {"PhysicalConstants", "DerivedScales"}
    assert set(RECORDS) <= found


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_its_dataclass_twin(name):
    check_record(RECORDS[name])


def test_replace_runs_the_validation():
    check_replace_validates()


def test_cached_properties_of_a_grid_record():
    grid = RECORDS["QuadratureGrid"]
    assert grid.r is grid.r and grid.r.size == grid.n_nodes
    assert "r" in vars(grid)
