import numpy as np
import pytest

from tribell import qalg
from conftest import (
    bloch_projectors,
    partial_trace_dims,
    permute_qubits,
    random_density_matrix,
    random_pure_state,
)


def test_tensor_xxx_ghz_expectation():
    # independent oracle: plain numpy kron chain and trace
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = np.outer(ghz, ghz.conj())
    xxx = np.kron(np.kron(qalg.PAULI_X, qalg.PAULI_X), qalg.PAULI_X)
    expected = np.trace(rho @ xxx).real
    assert expected == pytest.approx(1.0, abs=1e-12)
    assert qalg.pauli_tensor(rho, 3)[0, 0, 0] == pytest.approx(expected, abs=1e-15)


def test_partial_trace_ghz_single_qubit():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    reduced = qalg.partial_trace(qalg.projector(ghz), keep=[1])
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_gghz_two_qubit_marginal():
    eta = 0.57
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = np.cos(eta), np.sin(eta)
    reduced = qalg.partial_trace(qalg.projector(psi), keep=[1, 2])
    expected = np.diag([np.cos(eta) ** 2, 0.0, 0.0, np.sin(eta) ** 2])
    assert np.allclose(reduced, expected, atol=1e-14)


def test_partial_trace_product_state():
    zero3 = np.zeros(8, dtype=complex)
    zero3[0] = 1.0
    reduced = qalg.partial_trace(qalg.projector(zero3), keep=[2, 3])
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(reduced, expected)


@pytest.mark.parametrize("keep", [[], [1, 2, 3], [0], [4]])
def test_partial_trace_invalid_subsets(keep):
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        qalg.partial_trace(rho, keep=keep)


def test_partial_trace_two_qubit_subsets_and_shapes():
    rho = np.eye(4) / 4
    for keep in ([], [1, 2], [3]):
        with pytest.raises(ValueError, match="keep must be"):
            qalg.partial_trace(rho, keep=keep)
    with pytest.raises(ValueError, match="4x4 or 8x8"):
        qalg.partial_trace(np.eye(2) / 2, keep=[1])


def test_partial_trace_preserves_trace_and_psd(rng):
    for _ in range(20):
        rho = random_density_matrix(rng)
        for keep in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
            red = qalg.partial_trace(rho, keep)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(red).min() >= -1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_partial_trace_matches_trace_loop_oracle(rng, n):
    keeps = [[1], [2]] if n == 2 else [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
    for rank in (1, 2, 2**n) * 10:
        rho = random_density_matrix(rng, dim=2**n, rank=rank)
        for keep in keeps:
            got = qalg.partial_trace(rho, keep)
            ref = partial_trace_dims(rho, [2] * n, [q - 1 for q in keep])
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 2e-16
            if len(keep) == 2:
                assert np.array_equal(got, ref)


def test_partial_trace_sequential_matches_direct(rng):
    rho = random_density_matrix(rng)
    step = qalg.partial_trace(qalg.partial_trace(rho, keep=[1, 2]), keep=[1])
    direct = qalg.partial_trace(rho, keep=[1])
    assert np.allclose(step, direct, atol=1e-13)


def test_entropy_edge_cases(rng):
    psi = random_pure_state(rng, dim=4)
    assert qalg.von_neumann_entropy(qalg.projector(psi)) == pytest.approx(0.0, abs=1e-10)
    assert qalg.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
    assert qalg.von_neumann_entropy(np.eye(8) / 8) == pytest.approx(3.0)


def test_entropy_zero_iff_pure(rng):
    for _ in range(20):
        psi = random_pure_state(rng)
        rho = qalg.projector(psi)
        assert qalg.von_neumann_entropy(rho) <= 1e-10
        assert np.linalg.eigvalsh(rho)[-1] == pytest.approx(1.0, abs=1e-10)


def test_check_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qalg.check_density_matrix(np.eye(8))  # trace 8
    bad = np.eye(2) / 2
    bad = bad.astype(complex)
    bad[0, 1] = 0.5j  # not Hermitian
    with pytest.raises(ValueError):
        qalg.check_density_matrix(bad)
    with pytest.raises(ValueError):
        qalg.check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_check_state_vector_norm():
    with pytest.raises(ValueError):
        qalg.check_state_vector(np.array([1.0, 1.0]))


def test_permute_qubits_roundtrip(rng):
    rho = random_density_matrix(rng)
    swapped = permute_qubits(rho, (1, 3, 2))
    assert np.allclose(permute_qubits(swapped, (1, 3, 2)), rho)
    psi = random_pure_state(rng)
    assert np.allclose(
        permute_qubits(permute_qubits(psi, (2, 3, 1)), (3, 1, 2)), psi
    )


def test_bloch_helpers():
    v = qalg.bloch_vector(0.0, 0.0)
    assert np.allclose(v, [0, 0, 1])
    assert np.allclose(qalg.bloch_observable(v), qalg.PAULI_Z)
    plus, minus = bloch_projectors(v)
    assert np.allclose(plus + minus, np.eye(2))
    assert np.allclose(plus @ plus, plus, atol=1e-15)
