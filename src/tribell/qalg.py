"""Dense complex linear algebra for one-, two- and three-qubit systems.

Everything downstream (states, channels, Bell operators, discord) is built on
the small set of exact operations in this module: projectors, state checks,
one einsum partial trace, the Pauli expansion, von Neumann entropy and Bloch
observables.

Basis convention: a three-qubit computational basis index is
``b = 4*q1 + 2*q2 + q3`` with qubit 1 the most significant bit, i.e. qubit 1
is the leftmost factor of every Kronecker product.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

# Tolerances for the structural invariants of density matrices and state
# vectors. EIG_CLAMP is the floating-point slack allowed on spectra and on
# quantities confined to [0, 1] (binary-entropy arguments, the tangle).
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
NORM_ATOL = 1e-12
EIG_CLAMP = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# sigma_0..3 = X, Y, Z, I: the identity last, so index 3 is the constant slot.
_PAULI_TENSOR_BASIS = np.stack([*PAULIS, IDENTITY_2])


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def check_state_vector(psi: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate a pure-state vector: dim in {2,4,8}, unit norm to 1e-12."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] not in (2, 4, 8):
        raise ValueError(f"{name} dimension must be 2, 4 or 8, got {psi.shape[0]}")
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError(f"{name} contains non-finite amplitudes")
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"{name} is not normalized: |psi|^2 = {norm_sq!r}")
    return psi


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD within tolerance."""
    rho = _as_square(rho, name)
    d = rho.shape[0]
    if d not in (2, 4, 8):
        raise ValueError(f"{name} dimension must be 2, 4 or 8, got {d}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_ATOL:
        raise ValueError(f"{name} is not Hermitian to {HERMITICITY_ATOL}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name} trace is {tr!r}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -PSD_ATOL:
        raise ValueError(f"{name} has negative eigenvalue {evals.min()!r}")
    return rho


def partial_trace(rho: np.ndarray, keep: Iterable[int]) -> np.ndarray:
    """Reduced state of a 4x4 two-qubit or 8x8 three-qubit density matrix.

    ``keep`` is a non-empty proper subset of the 1-based qubit labels; the
    qubit ordering of the result follows the input ordering. One einsum over
    the ``(2,) * 2n`` view: a traced qubit's column axis reuses its row label.
    """
    rho = _as_square(rho, "rho")
    n = {4: 2, 8: 3}.get(rho.shape[0])
    if n is None:
        raise ValueError(f"partial_trace expects a 4x4 or 8x8 matrix, got {rho.shape}")
    keep_set = sorted(set(int(q) for q in keep))
    if not keep_set or keep_set[0] < 1 or keep_set[-1] > n:
        labels = ",".join(map(str, range(1, n + 1)))
        raise ValueError(f"keep must be a non-empty subset of {{{labels}}}, got {keep_set}")
    if len(keep_set) == n:
        raise ValueError("keep must be a proper subset; nothing to trace out")
    kept = [q - 1 for q in keep_set]
    cols = [i + n if i in kept else i for i in range(n)]
    out = np.einsum(rho.reshape((2,) * (2 * n)), [*range(n), *cols], kept + [i + n for i in kept])
    d = 2 ** len(keep_set)
    return out.reshape(d, d)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(l log2 l) in bits, with 0*log0 := 0."""
    rho = _as_square(rho, "rho")
    evals = np.linalg.eigvalsh(rho)
    positive = evals[evals > 0.0]
    return float(-np.sum(positive * np.log2(positive)))


def pauli_tensor(rho: np.ndarray, n: int) -> np.ndarray:
    """Full Pauli expansion R[i, j, ...] = Tr[rho s_i x s_j x ...] of an n-qubit state.

    ``s = (X, Y, Z, I)``: the identity is index 3, so R[..., 3] holds the
    marginals and R[3, 3, ...] = Tr rho. Returns a real array of shape (4,) * n.
    """
    rho = np.asarray(rho, dtype=complex)
    if not 1 <= n <= 3 or rho.shape != (2**n, 2**n):
        raise ValueError(f"expected a {n}-qubit density matrix, got shape {rho.shape}")
    rows, cols, out = "abc"[:n], "def"[:n], "ijk"[:n]
    spec = rows + cols + "".join(f",{o}{c}{r}" for o, c, r in zip(out, cols, rows)) + "->" + out
    return np.einsum(spec, rho.reshape((2,) * (2 * n)), *[_PAULI_TENSOR_BASIS] * n).real


def bloch_vector(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t) on the Bloch sphere."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def bloch_observable(v: np.ndarray) -> np.ndarray:
    """Dichotomic observable v . sigma for a Bloch unit vector."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {v.shape}")
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z
