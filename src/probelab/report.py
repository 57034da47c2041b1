"""Report serialization with reproducible formatting.

Floating-point values are rounded to 12 significant digits before emission,
so identical inputs produce byte-identical JSON and CSV across runs and any
parallelism level.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

SIGNIFICANT_DIGITS = 12


def format_float(value: float) -> str:
    """The one float policy: 12 significant digits; nan, inf and -inf as
    Python prints them."""
    return f"{float(value):.{SIGNIFICANT_DIGITS}g}"


def round_float(value: float) -> float:
    return float(format_float(value))


def jsonify(obj: Any) -> Any:
    """Round every float (``np.float64`` included) in nested dicts, lists and
    tuples.  Any other value passes through, so ``json.dumps`` refuses a type
    it cannot write (a complex number, an array, a numpy integer or bool)
    instead of converting it silently."""
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, float):
        return round_float(obj)
    return obj


def dumps_report(obj: Any) -> str:
    return json.dumps(jsonify(obj), indent=2) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise TypeError(f"a CSV cell must be a float or an int, not {type(value).__name__}")


def csv_table(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV with LF line endings and the float policy of the JSON reports:
    floats (``np.float64`` included) at 12 significant digits, ints as
    written; any other cell, which could need quoting, raises ``TypeError``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"
