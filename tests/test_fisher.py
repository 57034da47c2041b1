import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probelab import dynamics, fisher, states
from probelab.operators import Tolerances
from probelab.errors import (
    ProbeLabError,
    SingularOutcomeError,
    SLDInconsistencyError,
    ValidationError,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def single_qubit_setup(sign=+1):
    gen = dynamics.nonentangling_generator(1)
    rho = states.optimal_single_qubit(sign)
    return rho, dynamics.state_derivative(gen, rho), dynamics.product_pm_readout(1)


def test_sld_golden_single_qubit():
    rho, rho_prime, _ = single_qubit_setup(+1)
    result = fisher.sld_from_state(rho, rho_prime)
    assert np.allclose(result.operator, -SX, atol=1e-10)
    assert result.kernel_dim == 1  # the single zero-eigenvalue diagonal pair


def test_sld_zero_derivative_gives_zero_operator():
    rho = states.random_mixed_state(2, 5)
    result = fisher.sld_from_state(rho, np.zeros((4, 4)))
    assert np.linalg.norm(result.operator) < 1e-12


def test_sld_two_qubit_product_state():
    gen = dynamics.nonentangling_generator(2)
    rho = states.tensor_power(states.optimal_single_qubit(+1), 2)
    rho_prime = dynamics.state_derivative(gen, rho)
    l_min = fisher.sld_from_state(rho, rho_prime).operator
    expected = -(np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX))
    # the two agree wherever the state has support: same defining equation
    lhs = 0.5 * (l_min @ rho.matrix + rho.matrix @ l_min)
    lhs_expected = 0.5 * (expected @ rho.matrix + rho.matrix @ expected)
    assert np.allclose(lhs, lhs_expected, atol=1e-10)
    assert np.allclose(lhs, rho_prime, atol=1e-10)


def test_sld_defining_equation_residual_full_rank_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = states.random_mixed_state(2, rng)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = h + h.conj().T
        rho_prime = -1j * (h @ rho.matrix - rho.matrix @ h)
        l_op = fisher.sld_from_state(rho, rho_prime).operator
        residual = np.linalg.norm(
            0.5 * (l_op @ rho.matrix + rho.matrix @ l_op) - rho_prime
        )
        assert residual <= 1e-8


def test_sld_rejects_derivative_outside_support():
    # rank-1 state with a derivative living entirely on the kernel
    rho = states.pure_state(np.array([1.0, 0.0]))
    bad = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    bad = bad - np.trace(bad) * np.eye(2) / 2  # traceless, still kernel-supported
    with pytest.raises(SLDInconsistencyError):
        fisher.sld_from_state(rho, bad)


def test_sld_with_a_negative_kernel_tol_fails_its_residual_check():
    # |0><0| (x) I/2 has two zero eigenvalues; a negative kernel threshold
    # would divide by their zero sums, and a negative residual bound would
    # refuse the exact SLD: both are refused before any division, by name
    rho = states.from_bloch([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], np.zeros((3, 3)))
    rho_prime = dynamics.state_derivative(dynamics.nonentangling_generator(2), rho)
    for name in ("tol", "residual_tol"):
        for value in (-1.0, float("nan")):
            with pytest.raises(ValidationError, match=f"^sld_from_state: {name} must be >= 0"):
                fisher.sld_from_state(rho, rho_prime, **{name: value})


def test_lambda_spectrum_golden_single_qubit():
    rho, rho_prime, basis = single_qubit_setup(+1)
    l_op = fisher.sld_from_state(rho, rho_prime).operator
    spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, l_op)
    assert spectrum["+"] == pytest.approx(-1.0)
    assert spectrum["-"] == pytest.approx(1.0)
    assert np.max(np.abs(np.imag(spectrum.values))) < 1e-12


def test_lambda_spectrum_additivity_two_qubits():
    gen = dynamics.nonentangling_generator(2)
    basis = dynamics.product_pm_readout(2)
    rho = states.tensor_power(states.optimal_single_qubit(+1), 2)
    rho_prime = dynamics.state_derivative(gen, rho)
    l_op = fisher.sld_from_state(rho, rho_prime).operator
    spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, l_op)
    expected = {"++": -2.0, "+-": 0.0, "-+": 0.0, "--": 2.0}
    for label, value in expected.items():
        assert spectrum[label] == pytest.approx(value, abs=1e-10)


def test_lambda_spectrum_pure_imaginary_for_entangling_pair():
    gen = dynamics.entangling_generator(2)
    basis = dynamics.product_pm_readout(2)
    rho = states.tensor_power(states.optimal_single_qubit(+1), 2)
    rho_prime = dynamics.state_derivative(gen, rho)
    l_op = fisher.sld_from_state(rho, rho_prime).operator
    spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, l_op)
    assert np.max(np.abs(np.real(spectrum.values))) < 1e-12
    assert np.min(np.abs(np.imag(spectrum.values))) > 0.5
    report = fisher.check_saturation(basis, rho, rho_prime)
    assert not report.saturated
    assert report.im_condition_max > 0.1


def test_lambda_spectrum_diagonal_operator_reads_eigenvalues():
    basis = dynamics.product_pm_readout(1)
    rho = states.from_bloch([0.0, 0.6, 0.0])
    gen = dynamics.nonentangling_generator(1)
    rho_prime = dynamics.state_derivative(gen, rho)
    l_op = fisher.sld_from_state(rho, rho_prime).operator
    spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, l_op)
    # L is diagonal in the readout basis here; ratios equal its eigenvalues
    for label in basis.labels:
        ket = basis.kets[:, basis.labels.index(label)]
        eig = np.real(np.vdot(ket, l_op @ ket))
        assert spectrum[label].real == pytest.approx(eig, abs=1e-10)


def test_lambda_spectrum_undefined_ratio_raises():
    # a near-zero outcome probability with a large numerator is numerically
    # undefined rather than unconstrained
    eps = 1e-13
    rho = states.density_matrix(np.diag([1.0 - eps, eps]).astype(complex))
    basis = dynamics.readout_from_kets(np.eye(2, dtype=complex))
    l_op = np.diag([0.0, 1e5]).astype(complex)
    with pytest.raises(fisher.UndefinedLambdaError):
        fisher.lambda_spectrum(basis, rho, np.zeros((2, 2)), l_op)


def test_check_saturation_golden_cases():
    rho, rho_prime, basis = single_qubit_setup(+1)
    assert fisher.check_saturation(basis, rho, rho_prime).saturated

    cat = states.cat_state(2)
    gen = dynamics.nonentangling_generator(2)
    report = fisher.check_saturation(
        dynamics.product_pm_readout(2), cat, dynamics.state_derivative(gen, cat)
    )
    assert not report.saturated


def test_classical_fisher_golden_values():
    rho, rho_prime, basis = single_qubit_setup(+1)
    assert fisher.classical_fisher(basis, rho, rho_prime) == pytest.approx(1.0)

    gen2 = dynamics.nonentangling_generator(2)
    rho2 = states.tensor_power(states.optimal_single_qubit(+1), 2)
    rp2 = dynamics.state_derivative(gen2, rho2)
    assert fisher.classical_fisher(
        dynamics.product_pm_readout(2), rho2, rp2
    ) == pytest.approx(2.0)

    cat = states.cat_state(2)
    rp_cat = dynamics.state_derivative(gen2, cat)
    assert abs(fisher.classical_fisher(dynamics.product_pm_readout(2), cat, rp_cat)) < 1e-10


def test_classical_fisher_singular_outcome_error():
    basis = dynamics.product_pm_readout(1)
    rho = states.pure_state(np.array([1.0, -1.0]) / np.sqrt(2.0))  # p(+) = 0
    rho_prime = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)  # d p(+) != 0
    with pytest.raises(SingularOutcomeError):
        fisher.classical_fisher(basis, rho, rho_prime)


def test_quantum_fisher_golden_values():
    rho, rho_prime, _ = single_qubit_setup(+1)
    assert fisher.quantum_fisher(rho, rho_prime) == pytest.approx(1.0)
    for n in range(1, 7):
        gen = dynamics.nonentangling_generator(n)
        rng_state = states.tensor_power(states.optimal_single_qubit(+1), n)
        rp = dynamics.state_derivative(gen, rng_state)
        assert fisher.quantum_fisher(rng_state, rp) == pytest.approx(n, abs=1e-8)
    ent = dynamics.entangling_generator(2)
    candidate = states.two_qubit_entangling_candidate(1.0, 1.0, 1.0)
    rp = dynamics.state_derivative(ent, candidate)
    assert fisher.quantum_fisher(candidate, rp) == pytest.approx(1.0)


def test_fisher_hierarchy_random_sweep():
    rng = np.random.default_rng(71)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        rho = (
            states.random_pure_state(n, rng)
            if rng.random() < 0.5
            else states.random_mixed_state(n, rng)
        )
        dim = 2**n
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gen = dynamics.Generator(n, np.linalg.eigvalsh(h + h.conj().T))
        rho_prime = dynamics.state_derivative(gen, rho)
        basis = (
            dynamics.product_pm_readout(n)
            if rng.random() < 0.5
            else dynamics.random_projective_readout(n, rng)
        )
        f_c = fisher.classical_fisher(basis, rho, rho_prime)
        f_q = fisher.quantum_fisher(rho, rho_prime)
        assert f_c <= f_q + 1e-9
        if fisher.check_saturation(basis, rho, rho_prime).saturated:
            assert abs(f_c - f_q) <= 1e-7


def test_saturation_implies_fisher_equality():
    gen = dynamics.nonentangling_generator(2)
    rho = states.tensor_power(states.optimal_single_qubit(+1), 2)
    rho_prime = dynamics.state_derivative(gen, rho)
    basis = dynamics.product_pm_readout(2)
    assert fisher.check_saturation(basis, rho, rho_prime).saturated
    f_c = fisher.classical_fisher(basis, rho, rho_prime)
    f_q = fisher.quantum_fisher(rho, rho_prime)
    assert abs(f_c - f_q) <= 1e-7


def test_cramer_rao_bound():
    assert fisher.cramer_rao_bound(1.0, 1) == 1.0
    for n in range(1, 7):
        assert fisher.cramer_rao_bound(float(n), 1) == pytest.approx(1 / np.sqrt(n))
    assert fisher.cramer_rao_bound(1.0, 10**4) == pytest.approx(0.01)
    assert np.isinf(fisher.cramer_rao_bound(0.0, 5))
    with pytest.raises(ValidationError, match="repetitions must be >= 1"):
        fisher.cramer_rao_bound(1.0, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analyze_matches_its_parts(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed
    # the pure seed-0 probe drops its ket, so analyze takes the dense route too
    rho = (
        states.random_mixed_state(n, rng)
        if seed
        else dataclasses.replace(states.optimal_single_qubit(+1), ket=None)
    )
    gen = dynamics.entangling_generator(n)
    basis = dynamics.product_pm_readout(n)
    rho_prime = dynamics.state_derivative(gen, rho)
    sld = fisher.sld_from_state(rho, rho_prime)
    spectrum = fisher.lambda_spectrum(basis, rho, rho_prime, sld.operator)
    saturation = fisher.check_saturation(basis, rho, rho_prime)
    analysis = fisher.analyze(gen, rho, basis)
    # F_C reads the same readout diagonals, bit for bit; the rest comes from
    # the state's eigenframe, not from these parts, and agrees to rounding
    assert analysis.classical_fisher == fisher.classical_fisher(basis, rho, rho_prime)
    assert abs(analysis.quantum_fisher - fisher.quantum_fisher(rho, rho_prime)) <= 1e-12
    assert np.max(np.abs(analysis.spectrum.values - spectrum.values)) <= 1e-12
    assert analysis.spectrum.unconstrained == spectrum.unconstrained
    assert abs(analysis.saturation.im_condition_max - saturation.im_condition_max) <= 1e-12
    assert abs(analysis.saturation.diagonal_residual - saturation.diagonal_residual) <= 1e-12
    assert analysis.saturation.saturated == saturation.saturated


def _parts_or_error(generator, rho, basis, tol):
    """F_C, F_Q, the spectrum and (with the default floor, or no outcome at
    or below ``tol``'s) the saturation from the generic parts, composed in
    the order of :func:`fisher.analyze`; or the class of the first error."""
    rho_prime = dynamics.state_derivative(generator, rho)
    floor = tol.probability_floor
    try:
        f_classical = fisher.classical_fisher(basis, rho, rho_prime, probability_floor=floor)
        sld = fisher.sld_from_state(
            rho, rho_prime, tol.kernel_tol, residual_tol=tol.sld_residual
        )
        spectrum = fisher.lambda_spectrum(
            basis, rho, rho_prime, sld.operator, probability_floor=floor
        )
    except ProbeLabError as exc:
        return type(exc)
    # check_saturation takes its ratios with the default floor: the same
    # ratios as analyze's when no outcome is at or below the given floor
    saturation = (
        fisher.check_saturation(basis, rho, rho_prime, tol=tol.saturation, sld=sld)
        if floor == Tolerances.probability_floor or not any(spectrum.unconstrained)
        else None
    )
    return f_classical, fisher.quantum_fisher(rho, rho_prime, sld=sld), spectrum, saturation


#: A rank-deficient probe with an eigenvalue of 1e-5 beside its kernel, at
#: kernel_tol 1e-3: its SLD drops the (1e-5, 0) pairs, where the derivative
#: lives, so the defining equation fails (the derivative has support outside
#: what the SLD can reach).
_OUTSIDE = dict(n=2, rank=2, small=True, generator="nonentangling", hadamard=True,
                thresholds=(1e-3, Tolerances.sld_residual),
                floor=Tolerances.probability_floor, seed=3)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 4),
    rank=st.sampled_from([1, 2, 3, None]),
    small=st.booleans(),
    generator=st.sampled_from(["nonentangling", "entangling", "random"]),
    hadamard=st.booleans(),
    # (kernel_tol, sld_residual): repeats weight the draw, so that most
    # examples pass every rule
    thresholds=st.sampled_from(
        [(Tolerances.kernel_tol, Tolerances.sld_residual)] * 2
        + [(1e-3, Tolerances.sld_residual)] * 2
        + [(1e-3, 1.0), (Tolerances.kernel_tol, 1.0)]
        + [(-1.0, Tolerances.sld_residual), (Tolerances.kernel_tol, -1.0)]
    ),
    floor=st.sampled_from([Tolerances.probability_floor] * 3 + [0.25]),
    seed=st.integers(0, 2**32 - 1),
)
@example(**_OUTSIDE)
@example(**{**_OUTSIDE, "thresholds": (-1.0, Tolerances.sld_residual)})
def test_dense_analyze_matches_the_generic_parts(
    n, rank, small, generator, hadamard, thresholds, floor, seed
):
    # a random spectrum of weights in [0.1, 1] on `rank` random orthonormal
    # kets (all d when None), with one more eigenvalue of 1e-5 when `small`:
    # a rank below d leaves kernel pairs, and the 1e-5 eigenvalue falls into
    # the kernel at kernel_tol 1e-3
    rng = np.random.default_rng(seed)
    d = 2**n
    unitary, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    weights = rng.uniform(0.1, 1.0, d if rank is None else min(rank, d - 1))
    weights = weights / weights.sum()
    if small and len(weights) < d:
        weights = np.append((1.0 - 1e-5) * weights, 1e-5)
    kets = unitary[:, : len(weights)]
    rho = dataclasses.replace(
        states.density_matrix((kets * weights) @ kets.conj().T), ket=None
    )
    gen = {
        "nonentangling": dynamics.nonentangling_generator(n),
        "entangling": dynamics.entangling_generator(n),
        "random": dynamics.Generator(n, rng.standard_normal(d)),
    }[generator]
    basis = dynamics.product_pm_readout(n) if hadamard else dynamics.random_projective_readout(n, rng)
    # a ratio's rounding error grows as 1/p_k: from p_k = 1e-3 on, no rule
    # of either route is decided by it
    probs = np.real(basis.diagonal(rho.matrix))
    assume(probs.min() >= 1e-3)
    kernel_tol, sld_residual = thresholds
    tol = Tolerances(kernel_tol=kernel_tol, sld_residual=sld_residual, probability_floor=floor)

    expected = _parts_or_error(gen, rho, basis, tol)
    try:
        analysis = fisher.analyze(gen, rho, basis, tol)
    except ProbeLabError as exc:
        assert type(exc) is expected
        return
    assert not isinstance(expected, type), expected
    f_classical, f_quantum, spectrum, saturation = expected
    assert analysis.classical_fisher == f_classical
    assert abs(analysis.quantum_fisher - f_quantum) <= 1e-12 * max(1.0, f_quantum)
    assert analysis.spectrum.unconstrained == spectrum.unconstrained
    assert np.max(np.abs(analysis.spectrum.values - spectrum.values) * probs) <= 1e-12
    if saturation is not None:
        assert abs(analysis.saturation.im_condition_max - saturation.im_condition_max) <= 1e-12
        assert abs(analysis.saturation.diagonal_residual - saturation.diagonal_residual) <= 1e-12
        assert analysis.saturation.saturated == saturation.saturated


def test_dense_analyze_keeps_the_order_of_its_checks():
    # a rank-3 probe with an eigenvalue of 1e-5 beside its kernel, as in
    # _OUTSIDE: at kernel_tol 1e-3 the derivative is outside the SLD's reach,
    # an SLDInconsistencyError; a negative threshold is refused before that,
    # and a divergent Fisher sum before both
    rng = np.random.default_rng(3)
    unitary, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    kets = unitary[:, :3]
    weights = np.array([0.6, 0.4 - 1e-5, 1e-5])
    rho = dataclasses.replace(states.density_matrix((kets * weights) @ kets.conj().T), ket=None)
    gen, basis = dynamics.nonentangling_generator(2), dynamics.product_pm_readout(2)
    cases = [
        (Tolerances(kernel_tol=1e-3), SLDInconsistencyError, "defining-equation residual"),
        (Tolerances(kernel_tol=-1.0), ValidationError,
         r"^analyze: tolerances\.kernel_tol must be >= 0, got -1\.0$"),
        (Tolerances(kernel_tol=1e-3, sld_residual=-1.0), ValidationError,
         r"^analyze: tolerances\.sld_residual must be >= 0, got -1\.0$"),
        (Tolerances(kernel_tol=-1.0, probability_floor=1.0), SingularOutcomeError, "outcome"),
    ]
    for tol, error, message in cases:
        with pytest.raises(error, match=message):
            fisher.analyze(gen, rho, basis, tol)


def _dense_reference(generator, rho, basis, kernel_tol):
    """F_C, F_Q, ratios, im-condition and saturation residual from explicit
    d x d products: the eigenbasis SLD, tr(L L rho), the ratios as the rho L
    readout diagonal <k|rho L|k>/p_k = conj(tr(E_k L rho))/p_k, and each
    saturation row <k|(L - Re ratio_k) rho formed as its own product."""
    h = generator.matrix
    drho = -1j * (h @ rho - rho @ h)
    p, v = np.linalg.eigh(rho)
    p = np.clip(p, 0.0, None)
    sums = p[:, None] + p[None, :]
    keep = sums > kernel_tol
    l_op = v @ np.where(keep, 2.0 * (v.conj().T @ drho @ v) / np.where(keep, sums, 1.0), 0.0) @ v.conj().T
    kets = basis.kets
    probs = np.real(np.diag(kets.conj().T @ rho @ kets))
    dprobs = np.real(np.diag(kets.conj().T @ drho @ kets))
    ratios = np.diag(kets.conj().T @ (rho @ l_op) @ kets) / probs
    eye = np.eye(len(p))
    rows = [kets[:, k].conj() @ (l_op - ratios[k].real * eye) @ rho for k in range(len(p))]
    return {
        "probs": probs,
        "classical_fisher": float(np.sum(dprobs**2 / probs)),
        "quantum_fisher": float(np.real(np.trace(l_op @ l_op @ rho))),
        "ratios": ratios,
        "im_condition_max": float(np.max(np.abs(ratios.imag * probs))),
        "diagonal_residual": float(np.linalg.norm(rows)),
    }


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    rank=st.sampled_from([1, 2, 3, None]),
    entangling=st.booleans(),
    kernel_tol=st.sampled_from([Tolerances.kernel_tol, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_analyze_matches_a_textbook_reference(n, rank, entangling, kernel_tol, seed):
    # rank-deficient states mix 1-3 orthonormal kets, full-rank ones (rank
    # None) mix all d; every weight is at least 1/10 of the largest, so no
    # eigenvalue pair of the support falls in the kernel at either kernel_tol
    # (so L is the same at both, and only the numerically zero block drops)
    rng = np.random.default_rng(seed)
    d = 2**n
    unitary, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    weights = rng.uniform(0.1, 1.0, d if rank is None else min(rank, d - 1))
    kets = unitary[:, : len(weights)]
    rho = dataclasses.replace(
        states.density_matrix((kets * (weights / weights.sum())) @ kets.conj().T), ket=None
    )
    gen = (dynamics.entangling_generator if entangling else dynamics.nonentangling_generator)(n)
    basis = dynamics.product_pm_readout(n)

    expected = _dense_reference(gen, rho.matrix, basis, kernel_tol)
    # a ratio's rounding error grows as 1/p_k, its numerator being a sum of
    # O(1/d) products; from p_k = 1e-3 on it stays 30x inside 1e-12
    assume(expected["probs"].min() >= 1e-3)
    analysis = fisher.analyze(gen, rho, basis, Tolerances(kernel_tol=kernel_tol))

    def close(value, reference):
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))

    close(analysis.classical_fisher, expected["classical_fisher"])
    close(analysis.quantum_fisher, expected["quantum_fisher"])
    assert not any(analysis.spectrum.unconstrained)
    for value, reference in zip(analysis.spectrum.values, expected["ratios"]):
        close(value, reference)
    close(analysis.saturation.im_condition_max, expected["im_condition_max"])
    close(analysis.saturation.diagonal_residual, expected["diagonal_residual"])


def _loop_fisher_sum(labels, probs, dprobs, probability_floor):
    """``fisher._fisher_sum`` as a loop over the outcomes: the reference of
    the array form."""
    total = 0.0
    for label, p, dp in zip(labels, probs, dprobs):
        if p <= probability_floor:
            if abs(dp) > fisher.ZERO_OUTCOME_ATOL:
                raise SingularOutcomeError(
                    f"outcome {label!r} has probability {p:.3e} but derivative {dp:.3e}"
                )
            continue
        total += dp * dp / p
    return float(total)


def _loop_ratio_spectrum(labels, numerators, probs, dprobs, probability_floor):
    """``fisher._ratio_spectrum`` as a loop over the outcomes."""
    values = np.zeros(len(labels), dtype=complex)
    unconstrained = []
    for k, label in enumerate(labels):
        if probs[k] <= probability_floor:
            if abs(numerators[k]) > fisher.ZERO_OUTCOME_ATOL:
                raise fisher.UndefinedLambdaError(
                    f"outcome {label!r} has probability {probs[k]:.3e} but "
                    f"|tr(E L rho)| = {abs(numerators[k]):.3e}"
                )
            unconstrained.append(True)
            continue
        ratio = numerators[k] / probs[k]
        if abs(ratio.real - dprobs[k] / probs[k]) > fisher.SCORE_ATOL:
            raise SLDInconsistencyError(
                f"outcome {label!r}: Re tr(E L rho)/p = {ratio.real:.12g} does not "
                f"match tr(E rho')/p = {dprobs[k] / probs[k]:.12g}"
            )
        values[k] = ratio
        unconstrained.append(False)
    return values, tuple(unconstrained)


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except (SingularOutcomeError, SLDInconsistencyError, fisher.UndefinedLambdaError) as exc:
        return type(exc), str(exc)


#: One outcome: where its p lies against the floor (a kept p is the second
#: entry), its dp/dx, the imaginary part of its numerator, and whether it
#: breaks the floor rule of F_C (dp/dx at a zero outcome) and the rule of its
#: ratio (a numerator at a zero outcome, or Re ratio off from (dp/dx)/p at a
#: kept one).
_OUTCOMES = st.tuples(
    st.one_of(
        st.just("kept"),
        st.sampled_from(["zero", "negative-zero", "at-floor", "above-floor", "below-floor"]),
    ),
    st.floats(1e-9, 1.0),
    st.floats(-3.0, 3.0),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.booleans(),
)


def _outcome_arrays(outcomes, floor):
    probs, dprobs, numerators = [], [], []
    for where, kept_p, dp, imag, breaks_fisher, breaks_ratio in outcomes:
        p = {
            "zero": 0.0,
            "negative-zero": -0.0,
            "at-floor": floor,
            "above-floor": np.nextafter(floor, 1.0),
            "below-floor": 0.5 * floor,
            "kept": kept_p,
        }[where]
        if p <= floor:
            dp = 1e-3 * dp if breaks_fisher else 1e-12 * dp
            numerator = (1e-3 if breaks_ratio else 1e-12) * complex(1.0, imag)
        else:
            numerator = complex(dp + (1e-6 * p if breaks_ratio else 0.0), imag)
        probs.append(p)
        dprobs.append(dp)
        numerators.append(numerator)
    return np.array(probs), np.array(dprobs), np.array(numerators)


@settings(max_examples=200, deadline=None)
@given(
    outcomes=st.integers(1, 32).flatmap(lambda d: st.lists(_OUTCOMES, min_size=d, max_size=d)),
    floor=st.sampled_from([Tolerances.probability_floor, 1e-6, 0.25]),
)
# both kinds of ratio violation in one array, in either order
@example(
    outcomes=[("kept", 0.5, 1.0, 0.0, False, True), ("zero", 0.5, 1.0, 0.5, True, True)],
    floor=Tolerances.probability_floor,
)
@example(
    outcomes=[("at-floor", 0.5, 1.0, 0.5, False, True), ("kept", 0.5, 1.0, 0.0, True, True)],
    floor=Tolerances.probability_floor,
)
def test_floor_rules_match_the_outcome_loops(outcomes, floor):
    labels = tuple(f"o{k}" for k in range(len(outcomes)))
    # as drawn, and with no rule broken on purpose, so that the sum and the
    # spectrum are reached in most examples
    for drawn in (outcomes, [outcome[:-2] + (False, False) for outcome in outcomes]):
        probs, dprobs, numerators = _outcome_arrays(drawn, floor)

        expected = _result_or_error(_loop_fisher_sum, labels, probs, dprobs, floor)
        found = _result_or_error(fisher._fisher_sum, labels, probs, dprobs, floor)
        if isinstance(expected, float):
            # the same bits, the sign of zero included
            assert np.float64(found).tobytes() == np.float64(expected).tobytes()
        else:
            assert found == expected

        args = (labels, numerators, probs, dprobs, floor)
        expected = _result_or_error(_loop_ratio_spectrum, *args)
        found = _result_or_error(fisher._ratio_spectrum, *args)
        if isinstance(found, fisher.LambdaSpectrum):
            values, unconstrained = expected
            assert found.values.tobytes() == values.tobytes()
            assert found.unconstrained == unconstrained
            assert found.labels == labels
        else:
            assert found == expected
