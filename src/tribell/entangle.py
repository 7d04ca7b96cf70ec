"""Entanglement and quantum-correlation measures.

Wootters concurrence for two-qubit states, the three-tangle 4|Det psi| of
pure three-qubit states (Det the hyperdeterminant, so no marginal or
concurrence is formed), two-qubit quantum discord over rank-1 projective
measurements, and the discord monogamy score
delta_D = D(A:BC) - D(AB) - D(AC) with qubit A as the nodal observer.

The discord of a state of rank at most 2 is exact: purified by one qubit C,
the best measurement on the measured qubit leaves the unmeasured qubit U
with average entropy E_F(rho_UC) (Koashi & Winter, PRA 69, 022309 (2004)),
which Wootters' concurrence gives in closed form (PRL 80, 2245 (1998)).
The concurrence kernel takes the purification's two vectors as they are,
without forming rho_UC. Every two-qubit marginal of a pure three-qubit
state has rank at most 2, which is all the monogamy score needs;
``discord_numeric`` raises ValueError on a state of rank 3 or 4. The
closed-form monogamy scores are binary entropies and are evaluated through
``binary_entropy``.

All entropies and discords are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qalg, states

_SIGMA_YY = np.kron(qalg.PAULI_Y, qalg.PAULI_Y)


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) = -x log2 x - (1-x) log2 (1-x), in bits."""
    if x < -qalg.EIG_CLAMP or x > 1.0 + qalg.EIG_CLAMP:
        raise ValueError(f"binary entropy argument must lie in [0,1], got {x}")
    x = min(max(x, 0.0), 1.0)
    out = 0.0
    if x > 0.0:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def _wootters(phi: np.ndarray) -> float:
    """Wootters concurrence of rho = phi phi^dagger, phi of shape (4, r).

    C = max(0, s1 - s2 - s3 - s4) with s_i the descending square roots of
    the eigenvalues of rho (Y x Y) rho* (Y x Y), taken as the singular values
    of the r x r matrix phi^T (Y x Y) phi (zero past r), which is
    numerically stable.
    """
    s = np.linalg.svd(phi.T @ _SIGMA_YY @ phi, compute_uv=False)
    return float(max(0.0, s[0] - np.sum(s[1:])))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix, through ``_wootters``
    on its eigenvectors scaled by the square roots of their eigenvalues."""
    rho = qalg.check_density_matrix(rho, name="rho")
    if rho.shape[0] != 4:
        raise ValueError(f"concurrence expects a 4x4 matrix, got {rho.shape}")
    evals, vecs = np.linalg.eigh(rho)
    return _wootters(vecs * np.sqrt(np.maximum(evals, 0.0)))


def three_tangle_pure(psi: np.ndarray) -> float:
    """Three-tangle tau = 4 |Det psi| of a pure state, clamped at 1.

    Det psi = B^2 - 4 A C is Cayley's hyperdeterminant, with
    A + B t + C t^2 = det(psi_0 + t psi_1) for the 2x2 slices psi_i of fixed
    first qubit (Coffman, Kundu & Wootters, PRA 61, 052306 (2000)).
    """
    psi = qalg.check_state_vector(psi)
    if psi.shape[0] != 8:
        raise ValueError("three-tangle is defined for three-qubit pure states")
    s0, s1 = psi.reshape(2, 2, 2)
    a, c = np.linalg.det(s0), np.linalg.det(s1)
    b = np.linalg.det(s0 + s1) - a - c
    return float(min(4.0 * abs(b * b - 4.0 * a * c), 1.0))


def _weight_entropy(x: float) -> float:
    """h(x) of the smaller weight x of a qubit spectrum; x <= EIG_CLAMP counts as 0.

    With the cut a pure product state has a discord of exactly 0, not a
    rounding residue.
    """
    return binary_entropy(x) if x > qalg.EIG_CLAMP else 0.0


def discord_numeric(rho: np.ndarray, measured: int = 1) -> float:
    """Quantum discord D(A|B) of a two-qubit state of rank at most 2.

    ``rho`` must be 4x4. ``measured`` selects the measured qubit B (0 or 1).
    D = I - J = S(B) - S(AB) + min over rank-1 projective measurements of
    sum_i p_i S(rho_{A|i}). Purified by a qubit C from its top two
    eigenpairs, rho has min sum_i p_i S(rho_{A|i}) = E_F(rho_AC) (Koashi &
    Winter), and E_F follows from Wootters' concurrence. That minimum is over
    all POVMs, so it bounds the projective one from below; on every rank-2
    input tested the two agree to 1e-12. Rank at most 2 means the two
    smallest eigenvalues sum to at most ``qalg.EIG_CLAMP``; any other state
    raises ValueError naming its rank.
    """
    rho = qalg.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"discord_numeric takes two qubits, got shape {rho.shape}")
    if measured not in (0, 1):
        raise ValueError(f"measured must be 0 or 1, got {measured}")
    evals, vecs = np.linalg.eigh(rho)
    if evals[0] + evals[1] > qalg.EIG_CLAMP:
        rank = 3 if evals[0] <= qalg.EIG_CLAMP else 4
        raise ValueError(f"discord_numeric is exact on states of rank at most 2, got rank {rank}")
    # Pauli expansion r_ij = Tr(rho sigma_i x sigma_j), sigma_0 = I, with the
    # unmeasured qubit on the rows; the measured qubit's Bloch vector b has
    # the spectrum (1 +- |b|)/2.
    r = np.roll(qalg.pauli_tensor(rho, 2), 1, axis=(0, 1))
    b = r[0, 1:] if measured == 1 else r[1:, 0]
    s_b = _weight_entropy((1.0 - min(float(np.linalg.norm(b)), 1.0)) / 2.0)

    kept = np.maximum(evals[2:], 0.0)
    kept /= np.sum(kept)
    s_ab = _weight_entropy(kept[0])
    # psi[u, m, c] with u the unmeasured qubit, m the measured one and c
    # the purifying qubit; measuring m leaves an ensemble of rho_uc.
    psi = (vecs[:, 2:] * np.sqrt(kept)).reshape(2, 2, 2)
    if measured == 0:
        psi = psi.transpose(1, 0, 2)
    # rho_uc = phi phi^dagger with phi[(u, c), m] = psi[u, m, c].
    # E_F = h((1 + sqrt(1 - C^2))/2), through the small weight
    # C^2 / (2 (1 + sqrt(1 - C^2))), which keeps its precision.
    c = _wootters(psi.transpose(0, 2, 1).reshape(4, 2))
    e_f = _weight_entropy(c * c / (2.0 * (1.0 + math.sqrt(max(1.0 - c * c, 0.0)))))
    return s_b - s_ab + e_f


@dataclass
class MonogamyScore:
    """delta_D and its three discord components, all in bits."""

    delta_d: float
    d_a_bc: float
    d_ab: float
    d_ac: float


def discord_monogamy_score(psi: np.ndarray) -> MonogamyScore:
    """Discord monogamy score delta_D = D(A:BC) - D(AB) - D(AC) of a pure state.

    Qubit A (qubit 1) is the nodal observer: D(A:BC) is the discord of the
    pure A:BC split, which equals S(rho_A), and the pairwise discords are
    computed with the rank-1 measurement on the shared qubit A. Both pair
    marginals of a pure state have rank at most 2, where ``discord_numeric``
    is exact.
    """
    psi = qalg.check_state_vector(psi)
    if psi.shape[0] != 8:
        raise ValueError("monogamy score is defined for three-qubit pure states")
    rho = qalg.projector(psi)
    d_a_bc = qalg.von_neumann_entropy(qalg.partial_trace(rho, keep=[1]))
    rho_ab = qalg.partial_trace(rho, keep=[1, 2])
    rho_ac = qalg.partial_trace(rho, keep=[1, 3])
    d_ab = discord_numeric(rho_ab, measured=0)
    d_ac = discord_numeric(rho_ac, measured=0)
    return MonogamyScore(
        delta_d=d_a_bc - d_ab - d_ac, d_a_bc=d_a_bc, d_ab=d_ab, d_ac=d_ac
    )


def delta_d_gghz(eta: float) -> float:
    """Closed-form delta_D of a GGHZ state: h(cos^2 eta) in bits.

    Evaluated as h(sin^2 eta), which keeps the precision of the small weight.
    """
    states.check_eta(states.Family.GGHZ, eta)
    return binary_entropy(math.sin(eta) ** 2)


def delta_d_subclass_s(tau: float) -> float:
    """Closed-form delta_D of a subclass-S state as a function of tau.

    Printed form
      -[(1 - sqrt(1-tau)) ln((1 - sqrt(1-tau))/2)
        + (1 + sqrt(1-tau)) ln((1 + sqrt(1-tau))/2)] / ln 4,
    which reduces to the binary entropy of (1 - sqrt(1-tau))/2 in bits,
    evaluated as tau / (2 (1 + sqrt(1-tau))), which does not cancel at small
    tau. tau goes through ``states.check_tau_c12``.
    """
    tau = states.check_tau_c12(tau, 0.0)[0]
    return binary_entropy(tau / (2.0 * (1.0 + math.sqrt(1.0 - tau))))
