"""The Pauli-basis transform pair against a per-string dense reference.

The reference builds every Pauli string as a Kronecker product of the
single-qubit matrices written out below, independently of ``operators``, and
contracts it with the matrix (forward) or sums the weighted strings (inverse).
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import operators, solver, states
from probelab.errors import DimensionError

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
