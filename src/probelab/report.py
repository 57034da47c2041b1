"""Report serialization with reproducible formatting.

Floating-point values are rounded to 12 significant digits before emission,
so identical inputs produce byte-identical JSON and CSV across runs and any
parallelism level.  A JSON report is exactly ``json.dumps(tree, indent=2)``
of the tree with its floats so rounded, plus a newline.  ``indent`` would
switch the stdlib to its pure-Python encoder, so :func:`dumps_report` lays out
the containers itself and writes all scalars in one call of the C encoder.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

SIGNIFICANT_DIGITS = 12
_FLOAT_FORMAT = f"%.{SIGNIFICANT_DIGITS}g"
_CONTAINERS = (dict, list, tuple)
# The encoder escapes newlines in strings, so each raw one is a separator.
_ENCODE = json.JSONEncoder(separators=("\n", ": ")).encode


def format_float(value: float) -> str:
    """The one float policy: 12 significant digits; nan, inf and -inf as
    Python prints them."""
    return _FLOAT_FORMAT % value


def round_float(value: float) -> float:
    return float(format_float(value))


def dumps_report(obj: Any) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` with every float (``np.float64``
    included) rounded by :func:`round_float`.  Any other value is written as
    is, so a type JSON cannot write (a complex number, an array, a numpy
    integer or bool) raises ``TypeError`` instead of being converted."""
    scalars: list = []
    template = _layout(obj, "\n", scalars)
    texts = _ENCODE([round_float(v) if isinstance(v, float) else v for v in scalars])
    return template % tuple(texts[1:-1].split("\n") if scalars else ()) + "\n"


def _layout(obj: Any, newline: str, scalars: list) -> str:
    """The ``indent=2`` text of ``obj``, each of whose lines starts after
    ``newline``, as a %-template: every scalar is appended to ``scalars``
    and stands as ``%s``."""
    if not isinstance(obj, _CONTAINERS):
        scalars.append(obj)
        return "%s"
    opening, closing = "{}" if isinstance(obj, dict) else "[]"
    if not obj:
        return opening + closing
    inner = newline + "  "
    if isinstance(obj, dict):
        keys = _ENCODE(dict.fromkeys(obj))[1:-1].split("\n")  # '"key": null' each
        texts = [k[:-4].replace("%", "%%") + _layout(v, inner, scalars)
                 for k, v in zip(keys, obj.values())]
    elif (all(isinstance(row, dict) for row in obj) and len({tuple(row) for row in obj}) == 1
            and not any(isinstance(v, _CONTAINERS) for row in obj for v in row.values())):
        # a table, such as a spectrum: its rows share the first row's template
        scalars += [v for row in obj for v in row.values()]
        texts = [_layout(obj[0], inner, [])] * len(obj)
    else:
        texts = [_layout(v, inner, scalars) for v in obj]
    return opening + inner + ("," + inner).join(texts) + newline + closing


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
