"""Property tests of the readout-diagonal kernel against direct references.

The references are the 3-operand contraction sum_ij conj(V_ik) A_ij V_jk and
the per-label Kronecker construction of the |+>/|-> kets.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import dynamics, fisher, operators, states

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=40, deadline=None)


def reference_diagonal(basis, a):
    return np.einsum("ik,ij,jk->k", basis.kets.conj(), a, basis.kets)


def reference_pm_kets(n):
    single = {"+": np.array([1.0, 1.0]) / np.sqrt(2.0), "-": np.array([1.0, -1.0]) / np.sqrt(2.0)}
    labels = tuple("".join(s) for s in product("+-", repeat=n))
    kets = np.zeros((2**n, 2**n), dtype=complex)
    for k, label in enumerate(labels):
        kets[:, k] = operators.kron_all(single[c] for c in label)
    return labels, kets


@SETTINGS
@given(n=st.integers(1, 6), seed=SEEDS, product_readout=st.booleans())
def test_diagonal_matches_ket_sandwich_for_non_hermitian_operators(n, seed, product_readout):
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    assert basis.hadamard == product_readout
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    got = basis.diagonal(a)
    expected = np.array([ket.conj() @ a @ ket for ket in basis.kets.T])
    assert got.dtype == complex
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * 2**n)


@SETTINGS
@given(n=st.integers(1, 8))
def test_product_readout_kets_match_per_label_construction(n):
    basis = dynamics.product_pm_readout(n)
    labels, kets = reference_pm_kets(n)
    assert basis.labels == labels
    assert np.array_equal(basis.kets, kets)


@SETTINGS
@given(n=st.integers(1, 5), seed=SEEDS, entangling=st.booleans())
def test_fisher_on_mixed_states_matches_einsum_reference(n, seed, entangling):
    rho = states.random_mixed_state(n, seed)
    generator = (
        dynamics.entangling_generator(n) if entangling else dynamics.nonentangling_generator(n)
    )
    basis = dynamics.product_pm_readout(n)
    rho_prime = dynamics.state_derivative(generator, rho)
    sld = fisher.sld_from_state(rho, rho_prime)

    probs = np.real(reference_diagonal(basis, rho.matrix))
    dprobs = np.real(reference_diagonal(basis, rho_prime))
    numerators = reference_diagonal(basis, rho.matrix @ sld.operator)
    traces = reference_diagonal(basis, sld.operator @ rho.matrix)

    f_classical = fisher.classical_fisher(basis, rho, rho_prime)
    assert abs(f_classical - np.sum(dprobs**2 / probs)) <= 1e-12 * max(1.0, f_classical)
    spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, sld.operator)
    assert not any(spectrum.unconstrained)
    np.testing.assert_allclose(spectrum.values * probs, numerators, rtol=0, atol=1e-12)
    report = fisher.check_saturation(basis, rho, rho_prime, sld=sld)
    assert abs(report.im_condition_max - np.max(np.abs(traces.imag))) <= 1e-12
    np.testing.assert_allclose(
        np.real(dynamics.probability_vector(basis, rho)), probs, rtol=0, atol=1e-12
    )
