"""The closed-form analysis of a pure probe against the dense route.

``fisher.analyze`` takes the closed-form route for a state that carries its
ket, which ``states.density_matrix`` recovers from any pure matrix; the
reference is the same call on a ket-less copy of the same matrix, which takes
the dense eigenbasis route.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probelab import dynamics, fisher, states
from probelab.errors import DimensionError, ProbeLabError
from probelab.operators import Tolerances

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _generator(kind, n, rng):
    if kind == "nonentangling":
        return dynamics.nonentangling_generator(n)
    if kind == "entangling":
        return dynamics.entangling_generator(n)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    return dynamics.Generator(n, np.linalg.eigvalsh(0.5 * (g + g.conj().T)))


def _outcome(generator, state, basis, tol):
    try:
        return fisher.analyze(generator, state, basis, tol)
    except ProbeLabError as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=SEEDS,
    product_readout=st.booleans(),
    kind=st.sampled_from(["nonentangling", "entangling", "custom"]),
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    probability_floor=st.sampled_from([1e-12, 0.02]),
    kernel_tol=st.sampled_from([1e-10, 1.5]),
)
def test_closed_form_analysis_matches_the_dense_route(
    n, seed, product_readout, kind, zero_fraction, probability_floor, kernel_tol
):
    rng = np.random.default_rng(seed)
    basis = (
        dynamics.product_pm_readout(n)
        if product_readout
        else dynamics.random_projective_readout(n, rng)
    )
    generator = _generator(kind, n, rng)
    # readout amplitudes with the given share of exactly zero entries
    phi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    phi[rng.permutation(basis.dim)[: int(zero_fraction * basis.dim)]] = 0.0
    state = states.pure_state(basis.kets @ phi)
    tol = Tolerances(probability_floor=probability_floor, kernel_tol=kernel_tol)

    pure = _outcome(generator, state, basis, tol)
    dense = _outcome(generator, dataclasses.replace(state, ket=None), basis, tol)

    if isinstance(dense, type) or isinstance(pure, type):
        assert pure == dense
        return
    scale = max(1.0, float(np.max(np.abs(dense.spectrum.values))))
    assert pure.classical_fisher == pytest.approx(dense.classical_fisher, rel=1e-9, abs=1e-9)
    assert pure.quantum_fisher == pytest.approx(dense.quantum_fisher, rel=1e-9, abs=1e-9)
    assert pure.spectrum.labels == dense.spectrum.labels
    assert pure.spectrum.unconstrained == dense.spectrum.unconstrained
    np.testing.assert_allclose(pure.spectrum.values, dense.spectrum.values, rtol=0, atol=1e-8 * scale)
    for name in ("im_condition_max", "diagonal_residual"):
        assert getattr(pure.saturation, name) == pytest.approx(
            getattr(dense.saturation, name), rel=1e-8, abs=1e-8 * scale
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=SEEDS,
    phase=st.floats(0.0, 2.0 * np.pi),
    zero_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75]),
    first_zero=st.booleans(),
    kind=st.sampled_from(["nonentangling", "entangling", "custom"]),
)
def test_density_matrix_recovers_the_ket_of_every_pure_matrix(
    n, seed, phase, zero_fraction, first_zero, kind
):
    rng = np.random.default_rng(seed)
    dim = 2**n
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ket[rng.permutation(dim)[: int(zero_fraction * dim)]] = 0.0
    if first_zero:
        ket[0] = 0.0
    if not ket.any():
        ket[-1] = 1.0
    ket = np.exp(1j * phase) * ket / np.linalg.norm(ket)
    state = states.density_matrix(np.outer(ket, ket.conj()))
    assert state.ket is not None
    assert np.linalg.norm(state.matrix - np.outer(state.ket, state.ket.conj())) <= states.KET_ATOL
    # rank-2 mixtures with a ket orthogonal to the first, at least their
    # smaller weight from any pure state (the second one passes the purity
    # screen), and full-rank states get no ket
    other = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    other = states.pure_state(other - np.vdot(ket, other) * ket).matrix
    for weight in (0.5, 1e-8):
        assert states.density_matrix((1 - weight) * state.matrix + weight * other).ket is None
    assert states.random_mixed_state(n, rng).ket is None

    basis = dynamics.product_pm_readout(n)
    generator = _generator(kind, n, rng)
    pure = _outcome(generator, state, basis, Tolerances())
    dense = _outcome(generator, dataclasses.replace(state, ket=None), basis, Tolerances())
    if isinstance(dense, type) or isinstance(pure, type):
        assert pure == dense
        return
    scale = max(1.0, float(np.max(np.abs(dense.spectrum.values))), dense.quantum_fisher)
    assert abs(pure.classical_fisher - dense.classical_fisher) <= 1e-9 * scale
    assert abs(pure.quantum_fisher - dense.quantum_fisher) <= 1e-9 * scale
    assert pure.spectrum.unconstrained == dense.spectrum.unconstrained
    np.testing.assert_allclose(pure.spectrum.values, dense.spectrum.values, rtol=0, atol=1e-9 * scale)
    for name in ("im_condition_max", "diagonal_residual"):
        assert abs(getattr(pure.saturation, name) - getattr(dense.saturation, name)) <= 1e-9 * scale



def test_both_routes_reject_mismatched_dimensions():
    state = states.tensor_power(states.optimal_single_qubit(+1), 2)
    for generator, basis in (
        (dynamics.nonentangling_generator(3), dynamics.product_pm_readout(2)),
        (dynamics.nonentangling_generator(2), dynamics.product_pm_readout(3)),
    ):
        for probe in (state, dataclasses.replace(state, ket=None)):
            with pytest.raises(DimensionError):
                fisher.analyze(generator, probe, basis)
