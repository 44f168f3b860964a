"""Linear-algebra primitives: tensor products, partial traces, trace norms,
Choi matrices, channels, and Hamiltonians."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    apply_via_choi,
    ginibre_density,
    haar_vector,
    kraus_apply,
    loop_partial_trace,
    random_channel,
    svd_trace_norm,
)
from ecdnorm import (
    Channel,
    DensityOperator,
    EcdProblem,
    Ensemble,
    Hamiltonian,
    HermitianPreservingMap,
    apply_channel,
    attenuator,
    choi_of,
    dagger,
    energy,
    energy_constrained_sup,
    estimate_ecd_norm,
    hermitian_abs,
    identity_channel,
    is_hermitian,
    partial_trace,
    solve_gibbs,
    state_truncation_bound,
    tensor,
    trace_norm,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_tensor_pauli_entries():
    m = tensor(X, Z)
    expected = np.zeros((4, 4))
    expected[0, 2] = 1.0
    expected[1, 3] = -1.0
    expected[2, 0] = 1.0
    expected[3, 1] = -1.0
    np.testing.assert_allclose(m, expected, atol=0.0)


def test_tensor_mixed_product_state():
    rng = np.random.default_rng(0)
    a = ginibre_density(rng, 2).matrix
    b = ginibre_density(rng, 3).matrix
    m = tensor(a, b)
    np.testing.assert_allclose(partial_trace(m, (2, 3), 0), a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(m, (2, 3), 1), b, atol=1e-13)


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for d1, d2 in [(2, 2), (2, 3), (3, 2), (3, 4), (4, 4)]:
        m = rng.standard_normal((d1 * d2,) * 2) + 1j * rng.standard_normal((d1 * d2,) * 2)
        for keep in (0, 1):
            got = partial_trace(m, (d1, d2), keep)
            want = loop_partial_trace(m, (d1, d2), keep)
            np.testing.assert_allclose(got, want, atol=1e-12)
            assert abs(np.trace(got) - np.trace(m)) < 1e-10


def test_trace_norm_basic_values():
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-14
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        rho = ginibre_density(rng, d).matrix
        assert abs(trace_norm(rho) - 1.0) < 1e-12


def test_trace_norm_matches_svd_oracle():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 6):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert abs(trace_norm(m) - svd_trace_norm(m)) < 1e-10
        h = m + m.conj().T
        assert abs(trace_norm(h) - svd_trace_norm(h)) < 1e-10


def test_trace_norm_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_hermitian_abs():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 5))
    h = m + m.T
    a = hermitian_abs(h)
    assert np.linalg.eigvalsh(a).min() > -1e-12
    assert abs(np.trace(a).real - trace_norm(h)) < 1e-10
    # squares agree since |H|^2 = H^2
    np.testing.assert_allclose(a @ a, h @ h, atol=1e-10)


def test_is_hermitian_and_dagger():
    assert is_hermitian(Z)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    np.testing.assert_allclose(dagger(m), m.conj().T, atol=0.0)


def test_choi_of_qubit_identity():
    c = choi_of([np.eye(2)])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
    np.testing.assert_allclose(c, expected, atol=0.0)


def test_choi_of_replacer_is_target_tensor_identity():
    # the channel rho -> sigma * tr(rho) has Choi matrix sigma (x) I
    from ecdnorm import depolarize_to

    rng = np.random.default_rng(6)
    sigma = ginibre_density(rng, 3)
    ch = depolarize_to(sigma, 1.0)
    np.testing.assert_allclose(ch.choi, tensor(sigma.matrix, np.eye(3)), atol=1e-12)


def test_apply_channel_matches_choi_route():
    rng = np.random.default_rng(7)
    for d_in, d_out in [(2, 2), (3, 3), (3, 4), (4, 2)]:
        ch = random_channel(rng, d_in, d_out, 3)
        rho = ginibre_density(rng, d_in)
        got = apply_channel(ch, rho)
        want = apply_via_choi(ch.choi, d_in, d_out, rho.matrix)
        np.testing.assert_allclose(got, want, atol=1e-10)
        assert abs(np.trace(got) - 1.0) < 1e-10


def test_channel_choi_reduction_is_identity():
    # trace over the output slot of any CPTP Choi gives the input identity
    rng = np.random.default_rng(8)
    channels = [
        identity_channel(3),
        random_channel(rng, 3, 5, 2),
        random_channel(rng, 4, 2, 4),
    ]
    for ch in channels:
        d_in = ch.kraus[0].shape[1]
        d_out = ch.kraus[0].shape[0]
        red = partial_trace(ch.choi, (d_out, d_in), 1)
        np.testing.assert_allclose(red, np.eye(d_in), atol=1e-10)


def test_channel_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        Channel([0.5 * np.eye(2)])


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_operator_pure():
    v = haar_vector(np.random.default_rng(9), 4)
    rho = DensityOperator.pure(v)
    np.testing.assert_allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-14)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


def test_hamiltonian_spectral_form():
    h = Hamiltonian([0.0, 1.0, 3.0])
    np.testing.assert_allclose(h.matrix, np.diag([0.0, 1.0, 3.0]), atol=0.0)
    with pytest.raises(ValueError):
        Hamiltonian([1.0, 0.0])  # not sorted
    with pytest.raises(ValueError):
        Hamiltonian([-1.0, 0.0])  # negative level


def test_hamiltonian_from_matrix_round_trip():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((4, 4))
    m = m + m.T
    m = m - np.linalg.eigvalsh(m)[0] * np.eye(4)  # shift to nonnegative
    h = Hamiltonian.from_matrix(m)
    np.testing.assert_allclose(h.matrix, m, atol=1e-10)
    assert np.all(np.diff(h.eigenvalues) >= -1e-12)


def test_hamiltonian_lowest_levels_isometry():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5))
    m = m + m.T
    m = m - np.linalg.eigvalsh(m)[0] * np.eye(5)
    h = Hamiltonian.from_matrix(m)
    for n in (1, 2, 4):
        v = h.lowest_levels(n)
        assert v.shape == (5, n)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)
        # columns are eigenvectors for the n smallest eigenvalues
        np.testing.assert_allclose(m @ v, v @ np.diag(h.eigenvalues[:n]), atol=1e-10)


def test_hamiltonian_ground_multiplicity():
    assert Hamiltonian([0.0, 0.0, 1.0]).ground_multiplicity() == 2
    assert Hamiltonian([0.2, 1.0, 2.0]).ground_multiplicity() == 1


def test_energy_expectation():
    h = Hamiltonian([0.0, 1.0, 2.0])
    rho = DensityOperator(np.diag([0.5, 0.25, 0.25]))
    assert abs(energy(rho, h) - 0.75) < 1e-14


def test_map_difference_apply():
    rng = np.random.default_rng(12)
    phi = random_channel(rng, 3, 3, 2)
    psi = random_channel(rng, 3, 3, 2)
    diff = HermitianPreservingMap.difference(phi, psi)
    rho = ginibre_density(rng, 3)
    want = kraus_apply(phi.kraus, rho.matrix) - kraus_apply(psi.kraus, rho.matrix)
    np.testing.assert_allclose(diff.apply(rho.matrix), want, atol=1e-11)


def test_map_from_channel_and_arithmetic():
    rng = np.random.default_rng(13)
    phi = random_channel(rng, 2, 3, 2)
    m = HermitianPreservingMap.from_channel(phi)
    rho = ginibre_density(rng, 2)
    np.testing.assert_allclose(m.apply(rho.matrix), apply_channel(phi, rho), atol=1e-12)
    scaled = m.scaled(-2.5)
    np.testing.assert_allclose(
        scaled.apply(rho.matrix), -2.5 * m.apply(rho.matrix), atol=1e-12
    )
    total = m + scaled
    np.testing.assert_allclose(
        total.apply(rho.matrix), -1.5 * m.apply(rho.matrix), atol=1e-11
    )


def test_channel_difference_retains_one_choi_matrix():
    # the channels hold only their Kraus operators, so the difference's own
    # Choi matrix is all that its construction leaves allocated
    phi, psi = attenuator(24, 0.70), attenuator(24, 0.69)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        diff = HermitianPreservingMap.difference(phi, psi)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert phi.kraus and psi.kraus  # both channels stay alive
    assert retained < 1.5 * diff.choi.nbytes


LEVELS = Hamiltonian(np.array([0.5, 1.5]))
# the records that hold an array or a state, each built afresh by one call
RECORDS = {
    "DensityOperator": lambda: DensityOperator(np.eye(2) / 2),
    "GibbsSolution": lambda: solve_gibbs(LEVELS, 1.0),
    "EnergyConstrainedSup": lambda: energy_constrained_sup(X, LEVELS, 1.0),
    "EcdEstimate": lambda: estimate_ecd_norm(
        EcdProblem(HermitianPreservingMap.difference(attenuator(2, 0.7), attenuator(2, 0.6)), LEVELS, 1.0),
        restarts=1,
    ),
    "StateTruncation": lambda: state_truncation_bound(DensityOperator(np.eye(4) / 4), LEVELS, 1),
    "Ensemble": lambda: Ensemble((0.5, 0.5), (DensityOperator(np.eye(2) / 2), DensityOperator.pure([1.0, 0.0]))),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=list(RECORDS))
def test_records_compare_by_identity(build):
    """Like the value types, a record equals only itself and hashes, where
    field-wise equality would take the truth value of an array."""
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a)
