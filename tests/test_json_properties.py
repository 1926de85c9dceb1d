"""Property: ``to_json`` writes the bytes of ``json.dumps(doc, indent=2)``
plus a newline for any nested document of the types the workbench
serializes: dicts with str keys, lists, tuples, scalars, numpy float64 and
the package dataclasses."""

import json
from dataclasses import fields

import numpy as np
from hypothesis import given, strategies as st

from toroidal_em.maxwell import ResidualReport
from toroidal_em.scalar import AnsatzParams, _fields_dict, to_json
from toroidal_em.solver import RatioReport, SolveResult

finite = st.floats(allow_nan=False, allow_infinity=False)
floats = st.one_of(
    finite,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
    finite.map(np.float64),
)
texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t \ud800'),
                          st.characters()), max_size=8)
params = st.builds(
    lambda E0, R0, frac, omega: AnsatzParams(E0, R0, R0 * frac, omega),
    st.floats(0.0, 1e300), st.floats(1e-300, 1e300), st.floats(0.01, 0.99),
    st.floats(0.0, 1e300))
leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
                   floats, texts, params)


def dataclass_of(cls, values):
    return st.builds(cls, *[values] * len(fields(cls)))


# Only SolveResult takes nested values in its fields: a dataclass of nested
# fields costs a draw per field, and nesting all three doubled the test time.
def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        dataclass_of(SolveResult, children),
        dataclass_of(RatioReport, leaves),
        dataclass_of(ResidualReport, leaves),
    )


@given(st.recursive(leaves, containers, max_leaves=20))
def test_to_json_matches_json_dumps(doc):
    reference = json.dumps(doc, indent=2, default=_fields_dict, allow_nan=False) + "\n"
    assert to_json(doc) == reference
