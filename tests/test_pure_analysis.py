"""The closed-form analysis of a pure probe against the dense route.

``fisher.analyze`` takes the closed-form route for a state that carries its
ket; the reference is the same call on a ket-less copy of the same matrix,
which takes the dense eigenbasis route.
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
    return dynamics.custom_generator(0.5 * (g + g.conj().T))


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



def test_both_routes_reject_mismatched_dimensions():
    state = states.tensor_power(states.optimal_single_qubit(+1), 2)
    for generator, basis in (
        (dynamics.nonentangling_generator(3), dynamics.product_pm_readout(2)),
        (dynamics.nonentangling_generator(2), dynamics.product_pm_readout(3)),
    ):
        for probe in (state, dataclasses.replace(state, ket=None)):
            with pytest.raises(DimensionError):
                fisher.analyze(generator, probe, basis)
