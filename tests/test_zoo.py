"""Reference channels and Hamiltonians used by the experiments."""

import math

import numpy as np
import pytest

from conftest import ginibre_density, kraus_apply
from ecdnorm import (
    DensityOperator,
    TruncatedOscillator,
    apply_channel,
    attenuator,
    depolarize_to,
    identity_channel,
    phase_rotation,
    tensor,
    vacuum_state,
)


def _check_trace_preserving(channel, tol=1e-12):
    d = channel.kraus[0].shape[1]
    acc = np.zeros((d, d), dtype=np.complex128)
    for k in channel.kraus:
        acc += k.conj().T @ k
    np.testing.assert_allclose(acc, np.eye(d), atol=tol)


def test_identity_channel():
    ch = identity_channel(3)
    _check_trace_preserving(ch)
    rho = ginibre_density(np.random.default_rng(90), 3)
    np.testing.assert_allclose(apply_channel(ch, rho), rho.matrix, atol=1e-14)
    # Choi matrix is d times the maximally entangled state
    bell = np.zeros(9)
    bell[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
    np.testing.assert_allclose(ch.choi, 3.0 * np.outer(bell, bell), atol=1e-14)


def test_phase_rotation():
    assert len(phase_rotation(4, 0.0).kraus) == 1
    np.testing.assert_allclose(phase_rotation(4, 0.0).kraus[0], np.eye(4), atol=1e-15)
    z = phase_rotation(2, math.pi).kraus[0]
    np.testing.assert_allclose(z / z[0, 0], np.diag([1.0, -1.0]), atol=1e-12)
    ch = phase_rotation(5, 0.3)
    _check_trace_preserving(ch)
    want = np.exp(1j * 0.3 * np.arange(5))
    np.testing.assert_allclose(np.diag(ch.kraus[0]) / ch.kraus[0][0, 0], want, atol=1e-12)


def test_depolarize_to_endpoints():
    rng = np.random.default_rng(91)
    sigma = ginibre_density(rng, 3)
    rho = ginibre_density(rng, 3)
    ident = depolarize_to(sigma, 0.0)
    np.testing.assert_allclose(apply_channel(ident, rho), rho.matrix, atol=1e-12)
    full = depolarize_to(sigma, 1.0)
    _check_trace_preserving(full)
    np.testing.assert_allclose(apply_channel(full, rho), sigma.matrix, atol=1e-12)
    half = depolarize_to(sigma, 0.5)
    _check_trace_preserving(half)
    np.testing.assert_allclose(
        apply_channel(half, rho), 0.5 * rho.matrix + 0.5 * sigma.matrix, atol=1e-12
    )
    with pytest.raises(ValueError):
        depolarize_to(sigma, 1.2)


def test_vacuum_state():
    v = vacuum_state(5)
    want = np.zeros((5, 5))
    want[0, 0] = 1.0
    np.testing.assert_allclose(v.matrix, want, atol=0.0)


def test_truncated_oscillator_hamiltonian():
    osc = TruncatedOscillator(4, hbar_omega=0.7)
    np.testing.assert_allclose(
        osc.hamiltonian.eigenvalues, 0.7 * (np.arange(4) + 0.5), atol=1e-14
    )
    with pytest.raises(ValueError):
        TruncatedOscillator(1)
    with pytest.raises(ValueError):
        TruncatedOscillator(3, hbar_omega=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            TruncatedOscillator(3, hbar_omega=bad)


def test_attenuator_endpoints():
    ch = attenuator(4, 1.0)
    rho = ginibre_density(np.random.default_rng(92), 4)
    np.testing.assert_allclose(apply_channel(ch, rho), rho.matrix, atol=1e-12)
    ch0 = attenuator(4, 0.0)
    np.testing.assert_allclose(apply_channel(ch0, rho), vacuum_state(4).matrix, atol=1e-12)
    with pytest.raises(ValueError):
        attenuator(4, -0.1)


def test_attenuator_trace_preserving_and_entries():
    for dim, eta in [(4, 0.5), (8, 0.3), (16, 0.7)]:
        _check_trace_preserving(attenuator(dim, eta))
    # K_1 |2> = sqrt(2 eta (1-eta)) |1> for the one-loss Kraus operator
    eta = 0.6
    ch = attenuator(4, eta)
    want = math.sqrt(2.0 * eta * (1.0 - eta))
    assert abs(ch.kraus[1][1, 2] - want) < 1e-12
    # losing j quanta maps |n> to |n-j> only
    for j, k in enumerate(ch.kraus):
        for n in range(4):
            col = k[:, n]
            nz = np.nonzero(np.abs(col) > 1e-14)[0]
            if n - j >= 0:
                assert list(nz) == [n - j]
            else:
                assert nz.size == 0


def test_attenuator_composes_multiplicatively():
    # two beamsplitters in series attenuate by the product of transmissivities
    rng = np.random.default_rng(93)
    rho = ginibre_density(rng, 5).matrix
    a = attenuator(5, 0.8)
    b = attenuator(5, 0.75)
    once = attenuator(5, 0.6)
    via_two = kraus_apply(b.kraus, kraus_apply(a.kraus, rho))
    np.testing.assert_allclose(via_two, kraus_apply(once.kraus, rho), atol=1e-10)


def test_depolarize_choi_structure():
    rng = np.random.default_rng(94)
    sigma = ginibre_density(rng, 2)
    ch = depolarize_to(sigma, 1.0)
    np.testing.assert_allclose(ch.choi, tensor(sigma.matrix, np.eye(2)), atol=1e-12)
