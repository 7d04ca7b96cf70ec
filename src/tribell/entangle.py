"""Entanglement and quantum-correlation measures.

Wootters concurrence for two-qubit states, the three-tangle for pure
three-qubit states, two-qubit quantum discord over rank-1 projective
measurements, and the discord monogamy score
delta_D = D(A:BC) - D(AB) - D(AC) with qubit A as the nodal observer.

The discord of a state of rank at most 2 is exact: purified by one qubit C,
the best measurement on the measured qubit leaves the unmeasured qubit U
with average entropy E_F(rho_UC) (Koashi & Winter, PRA 69, 022309 (2004)),
which Wootters' concurrence gives in closed form (PRL 80, 2245 (1998)).
Every two-qubit marginal of a pure three-qubit state has rank at most 2,
so the monogamy score runs no minimization. States of rank 3 and 4 are
minimized on their Pauli expansion (``qalg.pauli_tensor``), where the states
left by a measurement along n have closed-form spectra: a grid, then a zoom
refinement, each level one batched real-arithmetic call over many axes.
The closed-form monogamy scores and X-state discord are differences of
binary entropies and are evaluated through ``binary_entropy``.

All entropies and discords are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qalg

# Measurement-minimization controls: a dense (theta, phi) grid, then a zoom
# over REFINE_STENCIL x REFINE_STENCIL stencils of axes, one batched call per
# level, until the stencil spacing is at most REFINE_STEP_TOL.
THETA_GRID = 64
PHI_GRID = 32
REFINE_STENCIL = 9
REFINE_STEP_TOL = 1e-10

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


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, sqrt(m1) - sqrt(m2) - sqrt(m3) - sqrt(m4)) with m_i the
    descending eigenvalues of rho (Y x Y) rho* (Y x Y). The square roots
    are evaluated as the singular values of sqrt(rho) (Y x Y) sqrt(rho)*,
    which is numerically stable.
    """
    rho = qalg.check_density_matrix(rho, name="rho")
    if rho.shape[0] != 4:
        raise ValueError(f"concurrence expects a 4x4 matrix, got {rho.shape}")
    evals, vecs = np.linalg.eigh(rho)
    root = np.sqrt(np.maximum(evals, 0.0))
    sqrt_rho = (vecs * root) @ vecs.conj().T
    m = sqrt_rho @ _SIGMA_YY @ sqrt_rho.conj()
    roots = np.sort(np.linalg.svd(m, compute_uv=False))[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def three_tangle_pure(psi: np.ndarray) -> float:
    """Three-tangle tau = C^2_{1(23)} - C^2_{12} - C^2_{13} of a pure state.

    C^2_{1(23)} is computed as 4 det(rho_1). The result is clamped to [0, 1]
    at 1e-10 tolerance.
    """
    psi = qalg.check_state_vector(psi)
    if psi.shape[0] != 8:
        raise ValueError("three-tangle is defined for three-qubit pure states")
    rho = qalg.projector(psi)
    rho_1 = qalg.partial_trace(rho, keep=[1])
    c_sq_1_23 = 4.0 * float(np.linalg.det(rho_1).real)
    c_12 = concurrence(qalg.partial_trace(rho, keep=[1, 2]))
    c_13 = concurrence(qalg.partial_trace(rho, keep=[1, 3]))
    tau = c_sq_1_23 - c_12 * c_12 - c_13 * c_13
    if tau < -qalg.EIG_CLAMP or tau > 1.0 + qalg.EIG_CLAMP:
        raise ValueError(f"three-tangle {tau} outside [0,1] beyond tolerance")
    return float(min(max(tau, 0.0), 1.0))


def three_tangle_symmetric(
    a: float, b: float, c: float, d: float, h: float, gamma: float
) -> float:
    """Three-tangle of a|011> + b|101> + c|110> + d|000> + h e^{i gamma}|111>.

    tau = 4 d sqrt((d h^2 - 4 a b c)^2 + 16 a b c d h^2 cos^2(gamma)).
    """
    norm_sq = a * a + b * b + c * c + d * d + h * h
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"amplitudes not normalized: sum of squares = {norm_sq!r}")
    inner = (d * h * h - 4.0 * a * b * c) ** 2
    inner += 16.0 * a * b * c * d * h * h * math.cos(gamma) ** 2
    tau = 4.0 * d * math.sqrt(max(inner, 0.0))
    return float(min(max(tau, 0.0), 1.0))


def _conditional_entropy_batch(
    a: np.ndarray, b: np.ndarray, t: np.ndarray, theta: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Average post-measurement entropy of the unmeasured qubit A for a batch of axes.

    ``a``, ``b``: Bloch vectors of A and of the measured qubit; ``t``: the
    correlation matrix, A on the rows; theta/phi: flat arrays giving axes n.
    Outcome +-1 has p = (1 +- b.n)/2 and leaves the unnormalized block
    ((1 +- b.n) I + (a +- T n).sigma)/4, whose eigenvalues are
    ((1 +- b.n) +- |a +- T n|)/4. Returns the array of sum_i p_i S(rho_{A|i}).
    """
    st = np.sin(theta)
    n = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    sign = np.array([1.0, -1.0])[:, None]
    p = 0.5 * (1.0 + sign * (n @ b))
    radius = np.linalg.norm(a + sign[..., None] * (n @ t.T), axis=-1)
    evals = np.stack([0.5 * p + 0.25 * radius, 0.5 * p - 0.25 * radius])
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.sum(np.where(evals > qalg.EIG_CLAMP, evals * np.log2(evals), 0.0), axis=0)
        # S(rho_{A|i}) needs the normalized block; entropy of block/p is
        # ent/p + log2(p), and it enters weighted by p.
        return np.sum(np.where(p > 1e-14, ent + p * np.log2(p), 0.0), axis=0)


def _weight_entropy(x: float) -> float:
    """h(x) of the smaller weight x of a qubit spectrum; x <= EIG_CLAMP counts as 0.

    The conditional-entropy kernel drops eigenvalues at or below
    ``qalg.EIG_CLAMP`` the same way; with it a pure product state has a
    discord of exactly 0, not a rounding residue.
    """
    return binary_entropy(x) if x > qalg.EIG_CLAMP else 0.0


def discord_numeric(rho: np.ndarray, measured: int = 1) -> float:
    """Quantum discord D(A|B) of a two-qubit state, rank-1 projective measurements.

    ``rho`` must be 4x4. ``measured`` selects the measured qubit B (0 or 1).
    D = I - J = S(B) - S(AB) + min over axes of sum_i p_i S(rho_{A|i}).

    Rank at most 2 (the two smallest eigenvalues sum to at most
    ``qalg.EIG_CLAMP``) is exact: purified by a qubit C from its top two
    eigenpairs, rho has min sum_i p_i S(rho_{A|i}) = E_F(rho_AC) (Koashi &
    Winter), and E_F follows from Wootters' concurrence. That minimum is over
    all POVMs, so it bounds the projective one from below; on every rank-2
    input tested the two agree to the minimization's precision. Rank 3 and 4
    are minimized on a theta x phi grid followed by a batched zoom
    refinement, which is why the function keeps its name.
    """
    rho = qalg.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"discord_numeric takes two qubits, got shape {rho.shape}")
    if measured not in (0, 1):
        raise ValueError(f"measured must be 0 or 1, got {measured}")
    # Pauli expansion r_ij = Tr(rho sigma_i x sigma_j), sigma_0 = I, with the
    # unmeasured qubit on the rows.
    r = np.roll(qalg.pauli_tensor(rho, 2), 1, axis=(0, 1))
    if measured == 0:
        r = r.T
    a, b, t = r[1:, 0], r[0, 1:], r[1:, 1:]
    # The measured qubit's spectrum is (1 +- |b|)/2.
    s_b = _weight_entropy((1.0 - min(float(np.linalg.norm(b)), 1.0)) / 2.0)

    evals, vecs = np.linalg.eigh(rho)
    if evals[0] + evals[1] <= qalg.EIG_CLAMP:
        kept = np.maximum(evals[2:], 0.0)
        kept /= np.sum(kept)
        s_ab = _weight_entropy(kept[0])
        # psi[u, m, c] with u the unmeasured qubit, m the measured one and c
        # the purifying qubit; measuring m leaves an ensemble of rho_uc.
        psi = (vecs[:, 2:] * np.sqrt(kept)).reshape(2, 2, 2)
        if measured == 0:
            psi = psi.transpose(1, 0, 2)
        rho_uc = np.einsum("umc,vmd->ucvd", psi, psi.conj()).reshape(4, 4)
        # E_F = h((1 + sqrt(1 - C^2))/2), through the small weight
        # C^2 / (2 (1 + sqrt(1 - C^2))), which keeps its precision.
        c = concurrence(rho_uc)
        e_f = _weight_entropy(c * c / (2.0 * (1.0 + math.sqrt(max(1.0 - c * c, 0.0)))))
        return s_b - s_ab + e_f

    s_ab = qalg.von_neumann_entropy(rho)
    thetas = np.linspace(0.0, math.pi, THETA_GRID)
    phis = np.linspace(0.0, 2.0 * math.pi, PHI_GRID, endpoint=False)
    tg, pg = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    vals = _conditional_entropy_batch(a, b, t, tg, pg)
    i = int(np.argmin(vals))
    best, theta0, phi0 = float(vals[i]), tg[i], pg[i]

    # Zoom, one call per level: an improvement on the stencil's edge may lie
    # further out, so the stencil moves there at the same step; otherwise it
    # recentres on the best point and shrinks by its half-width.
    step = max(thetas[1] - thetas[0], phis[1] - phis[0])
    half = (REFINE_STENCIL - 1) // 2
    off_t, off_p = np.mgrid[-half : half + 1, -half : half + 1].reshape(2, -1).astype(float)
    edge = np.maximum(np.abs(off_t), np.abs(off_p)) == half
    while step > REFINE_STEP_TOL:
        vals = _conditional_entropy_batch(a, b, t, theta0 + step * off_t, phi0 + step * off_p)
        i = int(np.argmin(vals))
        improved = vals[i] < best - 1e-16
        if improved:
            best = float(vals[i])
            theta0 += step * off_t[i]
            phi0 += step * off_p[i]
        if not (improved and edge[i]):
            step /= half
    return s_b - s_ab + best


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
    marginals of a pure state have rank at most 2, so both ``discord_numeric``
    calls take its exact route and no minimization runs.
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
    if not 0.0 <= eta <= math.pi / 4 + 1e-12:
        raise ValueError(f"eta must lie in [0, pi/4], got {eta}")
    return binary_entropy(math.sin(eta) ** 2)


def delta_d_subclass_s(tau: float) -> float:
    """Closed-form delta_D of a subclass-S state as a function of tau.

    Printed form
      -[(1 - sqrt(1-tau)) ln((1 - sqrt(1-tau))/2)
        + (1 + sqrt(1-tau)) ln((1 + sqrt(1-tau))/2)] / ln 4,
    which reduces to the binary entropy of (1 - sqrt(1-tau))/2 in bits.
    """
    if not -1e-12 <= tau <= 1.0 + 1e-12:
        raise ValueError(f"tau must lie in [0,1], got {tau}")
    return binary_entropy((1.0 - math.sqrt(max(1.0 - tau, 0.0))) / 2.0)


def xstate_discord_subclass_s(l0: float, l3: float) -> float:
    """Closed-form discord of the AB marginal of a subclass-S state.

    The marginal is the X state
      l0^2 |00><00| + (1-l0^2)|11><11| + l0 l3 (|00><11| + |11><00|);
    with r = sqrt(1 + 4 l0^4 + 4 l0^2 (l3^2 - 1)) its discord is

      [-ln4 (l0^2 ln l0^2 + (1-l0^2) ln(1-l0^2))
       + ln2 ((1+r) ln((1+r)/2) + (1-r) ln((1-r)/2))] / (ln2 ln4)

    i.e. h(l0^2) - h((1+r)/2) in bits, evaluated as h(l0^2) - h((1-r)/2) to
    keep the precision of the small weight. r > 1 means l0^2 + l3^2 > 1, which
    is not a state, and raises ValueError.
    """
    a = l0 * l0
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"l0^2 must lie in [0,1], got {a}")
    r = math.sqrt(max(1.0 + 4.0 * a * a + 4.0 * a * (l3 * l3 - 1.0), 0.0))
    return binary_entropy(a) - binary_entropy((1.0 - r) / 2.0)
