"""``to_json``: the bytes of ``json.dumps(indent=2)``, its errors, and no
cyclic garbage left behind by a JSON-emitting command."""

import gc
import json

import numpy as np
import pytest

from toroidal_em.cli import EXIT_OK, main
from toroidal_em.maxwell import ResidualReport
from toroidal_em.scalar import SamplingConfig, _fields_dict, to_json


def reference(doc) -> str:
    return json.dumps(doc, indent=2, default=_fields_dict, allow_nan=False) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, -0.0, 5e-324, 1.7976931348623157e308, -2**1000, None, True,
    {"a": {}, "b": [], "c": ((),), "d": [{}]},
    ['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t", "café ≤ \U0001f600", "\ud800"],
    {"é\"\\": [np.float64(1.5), np.float64(-0.0), 10**30, False]},
    [SamplingConfig(), ResidualReport("faraday", 1, 2, 1e-5, 0.0, 0.0, 0.0, "E0",
                                      1.0, 1e-6, True)],
], ids=repr)
def test_edge_documents_match_json_dumps(doc):
    assert to_json(doc) == reference(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None, ("a",)], ids=repr)
def test_non_str_keys_are_rejected(key):
    with pytest.raises(TypeError):
        to_json({"ok": {key: 0}})


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf")],
    ids=repr)
def test_non_finite_floats_are_rejected(value):
    residual = ResidualReport("faraday", 1, 2, 1e-5, value, 0.0, 0.0, "E0", 1.0, 1e-6, False)
    for doc in (value, [1.0, value], {"x": {"y": value}}, [residual]):
        with pytest.raises(ValueError):
            to_json(doc)


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, np.float32(1.0), SamplingConfig],
                         ids=repr)
def test_objects_that_are_neither_json_nor_dataclass_instances_are_rejected(value):
    with pytest.raises(TypeError):
        to_json({"x": [value]})


# A first call of each command imports, builds the parser and fills the
# caches; the second call is the one that must leave no cycle behind.
@pytest.mark.parametrize("argv", [
    ["report", "--format", "json", "--output", "-"],
    ["solve"],
    ["constants"],
    ["observables"],
    ["verify-maxwell"],
], ids=" ".join)
def test_json_commands_leave_no_cyclic_garbage(argv, capsys):
    assert main(argv) == EXIT_OK
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == EXIT_OK
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    out = capsys.readouterr().out
    assert out.endswith("}\n") or out.endswith("]\n")
