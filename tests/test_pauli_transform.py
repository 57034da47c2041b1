"""The Pauli-basis transform pair against a per-string dense reference.

The reference builds every Pauli string as a Kronecker product of the
single-qubit matrices written out below, independently of ``operators``, and
contracts it with the matrix (forward) or sums the weighted strings (inverse).
The expansion by type of a permutation-symmetric ket is held to the forward
transform of |ket><ket|, string by string.
"""

from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import operators, solver, states
from probelab.errors import DimensionError, ValidationError

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=30, deadline=None)

PAULIS = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def reference_strings(n):
    """(label, dense matrix) for every Pauli string, labels in I < X < Y < Z order."""
    for letters in product("IXYZ", repeat=n):
        dense = np.eye(1)
        for letter in letters:
            dense = np.kron(dense, PAULIS[letter])
        yield "".join(letters), dense


def random_complex(rng, shape):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


@SETTINGS
@given(n=st.integers(1, 5), seed=SEEDS)
def test_forward_matches_per_string_traces(n, seed):
    a = random_complex(np.random.default_rng(seed), (2**n, 2**n))
    expected = np.array([np.trace(p @ a) / 2**n for _, p in reference_strings(n)])
    np.testing.assert_allclose(operators.pauli_transform(a), expected, rtol=0, atol=1e-12)


@SETTINGS
@given(n=st.integers(1, 5), seed=SEEDS)
def test_inverse_matches_per_string_sum(n, seed):
    coefficients = random_complex(np.random.default_rng(seed), 4**n)
    expected = sum(c * p for c, (_, p) in zip(coefficients, reference_strings(n)))
    got = operators.inverse_pauli_transform(coefficients)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@SETTINGS
@given(n=st.integers(1, 5), seed=SEEDS)
def test_expand_and_dense_round_trip_hermitian_matrices(n, seed):
    g = random_complex(np.random.default_rng(seed), (2**n, 2**n))
    h = g + g.conj().T
    terms = operators.pauli_expand(h, drop_tol=0.0)
    assert list(terms) == [label for label, _ in reference_strings(n)]
    np.testing.assert_allclose(operators.pauli_terms_dense(terms), h, rtol=0, atol=1e-12)


def test_expansion_of_optimal_tensor_power_is_the_i_y_strings():
    # ((1 + Y) / 2)^(x 8) = 2^-8 sum over the 256 strings over {I, Y}
    rho = states.tensor_power(states.optimal_single_qubit(+1), 8)
    terms = operators.pauli_expand(rho.matrix)
    assert terms == {"".join(s): 2.0**-8 for s in product("IY", repeat=8)}


def test_expansion_is_not_capped_at_the_dense_string_limit():
    n = operators.MAX_QUBITS + 1
    z_on_first = np.diag(np.repeat([1.0, -1.0], 2 ** (n - 1)))
    assert operators.pauli_expand(z_on_first) == {"Z" + "I" * (n - 1): 1.0}


def test_dedup_key_keeps_exact_zero_coefficients():
    # the search keys a point on v v^dagger in its own coordinates, not on
    # Pauli coefficients: |0><0| keeps its three zero entries
    key = solver._dedup_key(np.array([2.0, 0.0], dtype=complex))
    assert key == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@SETTINGS
@given(size=st.integers(1, 11), seed=SEEDS, zeros=st.booleans())
def test_dedup_key_matches_a_per_coefficient_round(size, seed, zeros):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 10.0) * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    if zeros:  # a sector point with empty weight classes
        v[rng.permutation(size)[: size // 2]] = 0.0
    key = solver._dedup_key(v)
    unit = v / np.linalg.norm(v)
    entries = [part for z in np.outer(unit, unit.conj()).ravel() for part in (z.real, z.imag)]
    assert key == tuple(round(e, solver.DEDUP_DECIMALS) for e in entries)
    assert all(type(c) is float for c in key)


def test_inverse_rejects_a_length_that_is_not_a_power_of_four():
    for size in (1, 2, 8):
        with pytest.raises(DimensionError):
            operators.inverse_pauli_transform(np.ones(size))


def _symmetric_ket(rng, n, empty):
    """A random ket whose amplitude is a function of popcount, with ``empty``
    weight classes (at most n) set to zero and a random norm."""
    c = rng.uniform(0.1, 10.0) * random_complex(rng, n + 1)
    c[rng.permutation(n + 1)[: min(empty, n)]] = 0.0
    return (c / np.sqrt([comb(n, w) for w in range(n + 1)]))[operators.bit_counts(n)]


@SETTINGS
@given(n=st.integers(1, 6), seed=SEEDS, empty=st.integers(0, 6))
def test_expansion_by_type_is_the_transform_of_a_symmetric_ket(n, seed, empty):
    rng = np.random.default_rng(seed)
    ket = _symmetric_ket(rng, n, empty)
    rows = operators.pauli_expand_by_type(ket)
    types = [(row["x"], row["y"], row["z"]) for row in rows]
    assert len(rows) == comb(n + 3, 3) and types == sorted(types)
    assert sum(row["strings"] for row in rows) == 4**n
    assert all(type(row[key]) is int for row in rows for key in ("x", "y", "z", "strings"))
    assert all(type(row["coefficient"]) is float for row in rows)
    table = dict(zip(types, (row["coefficient"] for row in rows)))
    strings = dict.fromkeys(types, 0)
    transform = operators.pauli_transform(np.outer(ket, ket.conj()))
    scale = np.vdot(ket, ket).real / 2**n  # the identity's coefficient, the largest
    for label, value in zip(operators.pauli_labels(n), transform):
        kind = (label.count("X"), label.count("Y"), label.count("Z"))
        strings[kind] += 1
        assert abs(table[kind] - value) <= 1e-13 * scale
    assert [strings[kind] for kind in types] == [row["strings"] for row in rows]
    tol = 0.5 * scale
    assert operators.pauli_expand_by_type(ket, drop_tol=tol) == [
        row for row in rows if abs(row["coefficient"]) > tol
    ]


@SETTINGS
@given(n=st.integers(2, 6), seed=SEEDS, empty=st.integers(0, 6))
def test_expansion_by_type_refuses_a_ket_that_is_not_symmetric(n, seed, empty):
    rng = np.random.default_rng(seed)
    ket = _symmetric_ket(rng, n, empty)
    # an index whose weight class has other members, moved by 1e-6 of the norm
    index = rng.choice(np.flatnonzero((operators.bit_counts(n) > 0) & (operators.bit_counts(n) < n)))
    broken = ket.copy()
    broken[index] += 1e-6 * np.linalg.norm(ket) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    with pytest.raises(ValidationError, match="not permutation-symmetric"):
        operators.pauli_expand_by_type(broken)
    # within MATRIX_ATOL of the norm, the ket still counts as symmetric
    broken[index] = ket[index] + 1e-12 * np.linalg.norm(ket)
    assert len(operators.pauli_expand_by_type(broken)) == comb(n + 3, 3)
