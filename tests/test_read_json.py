"""``config.read_json`` gives ``json.loads``'s value, type for type.

orjson parses first and its value stands only when the guard proves it is
json's; every other document goes through ``json.loads``.  Random documents
are compared with ``json.loads`` on their decoded text, floats by
``float.hex`` (so ``-0.0``, subnormals, NaN and the infinities count), and the
documents that orjson reads differently or refuses are named cases.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab.config import read_json
from probelab.errors import ConfigError


def canonical(value):
    """``value`` with every type spelled out and floats as ``float.hex``."""
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, list):
        return "list", [canonical(item) for item in value]
    if isinstance(value, dict):
        return "dict", [(key, canonical(item)) for key, item in value.items()]
    return type(value).__name__, value


def read_bytes(path, data):
    path.write_bytes(data)
    return read_json(str(path), "input")


_INTEGERS = st.one_of(
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1]),
).map(str)
#: Number tokens of up to 30 digits with exponents up to +/-400.
_TOKENS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,29})(\.[0-9]{1,30})?([eE][+-]?(0{0,2}[0-9]{1,2}|[1-3][0-9]{2}|400))?",
    fullmatch=True,
)
#: Every float, -0.0, the subnormals, NaN and the infinities as json writes them.
_FLOATS = st.floats().map(json.dumps)
_NUMBERS = st.one_of(_INTEGERS, _TOKENS, _FLOATS)
#: Strings, lone surrogates included, with escapes (json's ASCII form) or raw.
_STRINGS = st.text(st.characters(exclude_categories=()), max_size=6).flatmap(
    lambda text: st.just(json.dumps(text)) if any("\ud800" <= c <= "\udfff" for c in text)
    else st.sampled_from([json.dumps(text), json.dumps(text, ensure_ascii=False)])
)
_LEAVES = st.one_of(_NUMBERS, _STRINGS, st.sampled_from(["true", "false", "null"]))


def documents(depth):
    """JSON texts that nest at most ``depth`` containers deep."""
    if depth == 0:
        return _LEAVES
    inner = documents(depth - 1)
    separators = st.sampled_from([",", ", ", " ,\n\t"])
    arrays = st.tuples(separators, st.lists(inner, max_size=4)).map(
        lambda parts: "[" + parts[0].join(parts[1]) + "]"
    )
    objects = st.tuples(separators, st.lists(st.tuples(_STRINGS, inner), max_size=4)).map(
        lambda parts: "{" + parts[0].join(f"{key}: {item}" for key, item in parts[1]) + "}"
    )
    return st.one_of(_LEAVES, arrays, objects)


@settings(max_examples=60)
@given(text=documents(6))
def test_random_documents_read_as_json_loads_reads_them(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "document.json"
    data = text.encode("utf-8")
    assert canonical(read_bytes(path, data)) == canonical(json.loads(text))


@settings(max_examples=40)
@given(numbers=st.lists(_NUMBERS, min_size=1, max_size=20))
def test_number_rows_read_as_json_loads_reads_them(tmp_path_factory, numbers):
    # a list of numbers is bounded by the sum of its magnitudes
    path = tmp_path_factory.getbasetemp() / "row.json"
    text = "[" + ",".join(numbers) + "]"
    assert canonical(read_bytes(path, text.encode("utf-8"))) == canonical(json.loads(text))


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"[NaN, Infinity, -Infinity, 1e400, -1e400]", id="non-finite"),
        pytest.param(b'["\\ud800", "\\udfff"]', id="lone-surrogate-escape"),
        pytest.param(b"18446744073709551616", id="2^64"),
        pytest.param(b"[-9223372036854775809]", id="-2^63-1"),
        pytest.param(b"[1" + b"0" * 30 + b", 0.5]", id="31-digit-integer"),
        pytest.param(b"[" * 33 + b"]" * 33, id="33-deep"),
    ],
)
def test_documents_orjson_reads_otherwise_read_as_json_loads_reads_them(tmp_path, data):
    expected = json.loads(data.decode("utf-8"))
    assert canonical(read_bytes(tmp_path / "in.json", data)) == canonical(expected)


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(b'\xef\xbb\xbf{"seed": 1}',
                     "input is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) "
                     "at line 1 column 1", id="bom"),
        pytest.param(b'{"x\xff": 1}', "input is not valid UTF-8: invalid start byte at byte 3",
                     id="non-utf8"),
        pytest.param(b'"\xed\xa0\x80"', "input is not valid UTF-8: invalid continuation byte at byte 1",
                     id="encoded-surrogate"),
        pytest.param(b"[1,]", "input is not valid JSON: Expecting value at line 1 column 4",
                     id="syntax"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000,
                     "input is not valid JSON: maximum recursion depth exceeded", id="deep"),
    ],
)
def test_refused_documents_keep_json_error_texts(tmp_path, data, message):
    with pytest.raises(ConfigError) as excinfo:
        read_bytes(tmp_path / "in.json", data)
    assert str(excinfo.value).startswith(message)
