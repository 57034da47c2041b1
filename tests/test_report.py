"""The one float policy of JSON and CSV reports, pinned as literal text, and
the JSON layout, checked against the stdlib's ``indent=2`` rendering."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab.report import csv_table, dumps_report, round_float

EDGE_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "ninf": float("-inf"),
    "neg0": -0.0,
    "tiny": 5e-324,
    "third": 1 / 3,
    "f64": np.float64(2 / 3),
    "bool": True,
    "none": None,
    "tuple": (1, 0.1 + 0.2),
}


def test_json_report_edge_values():
    assert dumps_report(EDGE_VALUES) == """{
  "nan": NaN,
  "inf": Infinity,
  "ninf": -Infinity,
  "neg0": -0.0,
  "tiny": 5e-324,
  "third": 0.333333333333,
  "f64": 0.666666666667,
  "bool": true,
  "none": null,
  "tuple": [
    1,
    0.3
  ]
}
"""


def test_csv_table_edge_values():
    row = {key: value for key, value in EDGE_VALUES.items() if isinstance(value, float)}
    row["int"] = 3
    assert csv_table(list(row), [list(row.values())]) == (
        "nan,inf,ninf,neg0,tiny,third,f64,int\n"
        "nan,inf,-inf,-0,4.94065645841e-324,0.333333333333,0.666666666667,3\n"
    )


@pytest.mark.parametrize(
    "value",
    [True, None, (1, 2), "a,b", 1j, np.int64(1), np.bool_(True)],
    ids=["bool", "none", "tuple", "str", "complex", "int64", "bool_"],
)
def test_csv_table_refuses_cells_that_are_not_floats_or_ints(value):
    with pytest.raises(TypeError, match=type(value).__name__):
        csv_table(["t"], [[value]])


@pytest.mark.parametrize(
    "value",
    [1j, np.complex128(1j), np.int64(1), np.bool_(True), np.zeros(2)],
    ids=["complex", "complex128", "int64", "bool_", "ndarray"],
)
def test_json_report_refuses_types_it_does_not_convert(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps_report({"result": [value]})


# The fisher envelope of {"n_qubits": 1} before rounding: floats carry their
# last digits, the spectrum is a table of same-keyed rows.
FISHER_N1 = {
    "tool": "probelab",
    "version": "0.1.0",
    "task": "fisher",
    "seed": 0,
    "config": {"n_qubits": 1},
    "tolerances": {
        "kernel_tol": 1e-10,
        "sld_residual": 1e-08,
        "saturation": 1e-08,
        "solution_residual": 1e-07,
        "psd_min_eigenvalue": -1e-09,
        "probability_floor": 1e-12,
    },
    "result": {
        "classical_fisher": 0.9999999999999996,
        "quantum_fisher": np.float64(0.9999999999999996),
        "saturated": True,
        "im_condition_max": 1.232595164407831e-32,
        "diagonal_residual": 0.0,
        "inv_lambdas": [
            {"label": "+", "real": -1.0, "imag": 2.465190328815663e-32, "unconstrained": False},
            {"label": "-", "real": 1.0, "imag": 2.465190328815663e-32, "unconstrained": False},
        ],
        "bound": 0.010000000000000002,
    },
}


def test_json_report_fisher_envelope():
    assert dumps_report(FISHER_N1) == """{
  "tool": "probelab",
  "version": "0.1.0",
  "task": "fisher",
  "seed": 0,
  "config": {
    "n_qubits": 1
  },
  "tolerances": {
    "kernel_tol": 1e-10,
    "sld_residual": 1e-08,
    "saturation": 1e-08,
    "solution_residual": 1e-07,
    "psd_min_eigenvalue": -1e-09,
    "probability_floor": 1e-12
  },
  "result": {
    "classical_fisher": 1.0,
    "quantum_fisher": 1.0,
    "saturated": true,
    "im_condition_max": 1.23259516441e-32,
    "diagonal_residual": 0.0,
    "inv_lambdas": [
      {
        "label": "+",
        "real": -1.0,
        "imag": 2.46519032882e-32,
        "unconstrained": false
      },
      {
        "label": "-",
        "real": 1.0,
        "imag": 2.46519032882e-32,
        "unconstrained": false
      }
    ],
    "bound": 0.01
  }
}
"""


def _rounded(obj):
    """The report tree with every float rounded, for the stdlib to write."""
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return round_float(obj) if isinstance(obj, float) else obj


_TEXT = st.text() | st.sampled_from(
    ['"', "%", "%s", "%%", "\\", "a\nb", "\x00\x1f", "é", "\u2028", "\ud800", "🙂"]
)
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**300),
    _FLOATS,
    _FLOATS.map(np.float64),
    _TEXT,
)
# Types JSON cannot write; a tree holding one must raise as json.dumps does.
_UNWRITABLE = st.one_of(
    st.complex_numbers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(), max_size=3).map(np.array),
)
# str, int, float, bool and None keys are written; a tuple key raises.
_KEYS = st.one_of(
    _TEXT, st.integers(), _FLOATS, _FLOATS.map(np.float64), st.booleans(), st.none(), st.tuples(st.integers())
)
# three writable leaves to one unwritable, so that about half the trees are written
_LEAVES = st.one_of(_SCALARS, _SCALARS, _SCALARS, _UNWRITABLE)


def _tables(values):
    """Lists of dicts with the same keys in the same order: the spectrum's shape."""
    return st.lists(_KEYS, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({key: values for key in keys}), max_size=4)
    )


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        _tables(_SCALARS),
        _tables(children),
    )


_TREES = st.recursive(_LEAVES, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_json_report_is_the_stdlib_indent_2_rendering_of_the_rounded_tree(tree):
    try:
        expected = json.dumps(_rounded(tree), indent=2) + "\n"
    except Exception as exc:
        with pytest.raises(type(exc)):
            dumps_report(tree)
    else:
        assert dumps_report(tree) == expected
