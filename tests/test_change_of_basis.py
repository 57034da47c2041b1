"""A non-diagonal generator through a change of basis, against dense references.

A Hermitian H = W diag(h) W^dagger with probe rho and readout kets V poses the
same problem as the diagonal ``Generator(n, h)`` with probe W^dagger rho W and
readout kets W^dagger V: every readout number is unchanged, and an evolved
state rotates back as W rho_x W^dagger.  Each number of the rotated problem is
checked here against a reference built from the dense H, rho and V: p and
dp/dx from ``expm`` and -i[H, rho], F_Q and the ratios from the SLD in the
eigenbasis of rho, and the optimality-equation fit from a dense least squares
with target -i[H, rho].
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from probelab import dynamics, fisher, solver, states
from probelab.montecarlo import MeasurementModel

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
RTOL = 1e-9


def _close(found, expected):
    expected = np.asarray(expected)
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(found, expected, rtol=0, atol=RTOL * scale)


def _readout_numbers(kets, a):
    """<k|A|k> for every readout ket k."""
    return np.einsum("ik,ij,jk->k", kets.conj(), a, kets)


def _dense_sld(rho, drho, kernel_tol=1e-10):
    """L_jk = 2 drho_jk / (p_j + p_k) in the eigenbasis of rho, 0 on the kernel."""
    p, vectors = np.linalg.eigh(rho)
    sums = p[:, None] + p[None, :]
    weights = np.where(sums > kernel_tol, 2.0 / np.where(sums > kernel_tol, sums, 1.0), 0.0)
    return vectors @ (weights * (vectors.conj().T @ drho @ vectors)) @ vectors.conj().T


def _dense_fit(h, rho, kets):
    """Least squares of (1/2){sum_k u_k E_k, rho} = -i[H, rho] over real u:
    (u, residual, sum_k u_k^2 p_k)."""
    target = -1j * (h @ rho - rho @ h)
    columns = []
    for ket in kets.T:
        e_rho = np.outer(ket, ket.conj() @ rho)
        columns.append((0.5 * (e_rho + e_rho.conj().T)).ravel())
    columns = np.array(columns).T
    a = np.vstack([columns.real, columns.imag])
    b = np.concatenate([target.ravel().real, target.ravel().imag])
    u = np.linalg.lstsq(a, b, rcond=None)[0]
    l_op = (kets * u) @ kets.conj().T
    residual = np.linalg.norm(0.5 * (l_op @ rho + rho @ l_op) - target)
    return u, residual, float(u * u @ _readout_numbers(kets, rho).real)


def _problem(n, seed, product_readout, pure):
    """The dense (H, rho, V) and the rotated (generator, state, readout)."""
    rng = np.random.default_rng(seed)
    w = dynamics.random_projective_readout(n, rng).kets
    spectrum = rng.standard_normal(2**n)
    h = (w * spectrum) @ w.conj().T
    kets = (
        dynamics.product_pm_readout(n).kets
        if product_readout
        else dynamics.random_projective_readout(n, rng).kets
    )
    if pure:
        psi = states.random_pure_state(n, rng).ket
        rho, state = np.outer(psi, psi.conj()), states.pure_state(w.conj().T @ psi)
    else:
        rho = states.random_mixed_state(n, rng).matrix
        state = states.density_matrix(w.conj().T @ rho @ w)
    rotated = (dynamics.Generator(n, spectrum), state, dynamics.readout_from_kets(w.conj().T @ kets))
    return w, h, rho, kets, rotated


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=SEEDS,
    product_readout=st.booleans(),
    pure=st.booleans(),
    xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
)
def test_the_rotated_problem_matches_the_dense_one(n, seed, product_readout, pure, xs):
    w, h, rho, kets, (generator, state, basis) = _problem(n, seed, product_readout, pure)
    drho = -1j * (h @ rho - rho @ h)
    probs = _readout_numbers(kets, rho).real
    dprobs = _readout_numbers(kets, drho).real
    l_op = _dense_sld(rho, drho)

    analysis = fisher.analyze(generator, state, basis)
    _close(analysis.classical_fisher, np.sum(dprobs**2 / probs))
    _close(analysis.quantum_fisher, np.trace(rho @ l_op @ l_op).real)
    _close(analysis.spectrum.values, _readout_numbers(kets, rho @ l_op) / probs)

    spectrum, residual, qfi = solver.solve_lambdas_given_state(state, basis, generator)
    u_ref, residual_ref, qfi_ref = _dense_fit(h, rho, kets)
    _close(spectrum.real_values(), u_ref)
    _close(residual, residual_ref)
    _close(qfi, qfi_ref)

    model = MeasurementModel(generator, state, basis)
    table, slopes = model.probability_table(np.array(xs)), model.derivative_table(np.array(xs))
    for x, p_row, dp_row in zip(xs, table, slopes):
        u = expm(-1j * x * h)
        rho_x = u @ rho @ u.conj().T
        _close(w @ dynamics.evolve(state, generator, x).matrix @ w.conj().T, rho_x)
        _close(p_row, _readout_numbers(kets, rho_x).real)
        _close(dp_row, _readout_numbers(kets, -1j * (h @ rho_x - rho_x @ h)).real)
