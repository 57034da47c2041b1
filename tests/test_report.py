"""The one float policy of JSON and CSV reports, pinned as literal text."""

import numpy as np
import pytest

from probelab.report import csv_table, dumps_report

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
