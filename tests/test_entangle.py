import math

import numpy as np
import pytest

from tribell import entangle, qalg, states
from conftest import partial_trace_dims, permute_qubits, random_pure_state, random_density_matrix


def _three_tangle_symmetric(a, b, c, d, h, gamma):
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


def _xstate_discord_subclass_s(l0, l3):
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
    return entangle.binary_entropy(a) - entangle.binary_entropy((1.0 - r) / 2.0)


def test_concurrence_bell_state():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert entangle.concurrence(qalg.projector(bell)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert entangle.concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_subclass_s_marginal():
    l0, l3, l4 = 0.6, 0.5, np.sqrt(0.39)
    psi = states.extended_ghz(l0, l3, l4)
    rho_ab = qalg.partial_trace(qalg.projector(psi), keep=[1, 2])
    c = entangle.concurrence(rho_ab)
    assert c * c == pytest.approx(4 * l0 * l0 * l3 * l3, abs=1e-10)
    assert c * c == pytest.approx(0.36, abs=1e-10)


def test_concurrence_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        entangle.concurrence(np.eye(8) / 8)


def test_concurrence_pure_marginal_formula(rng):
    # oracle: pure two-qubit state (a,b,c,d) has C = 2 |a d - b c|
    for _ in range(20):
        amps = random_pure_state(rng, dim=4)
        c = entangle.concurrence(qalg.projector(amps))
        expected = 2 * abs(amps[0] * amps[3] - amps[1] * amps[2])
        assert c == pytest.approx(expected, abs=1e-9)


def _concurrence_oracle(rho):
    """Wootters' concurrence from the singular values of sqrt(rho) (Y x Y) sqrt(rho)*."""
    evals, vecs = np.linalg.eigh(rho)
    sqrt_rho = (vecs * np.sqrt(np.maximum(evals, 0.0))) @ vecs.conj().T
    m = sqrt_rho @ np.kron(qalg.PAULI_Y, qalg.PAULI_Y) @ sqrt_rho.conj()
    roots = np.sort(np.linalg.svd(m, compute_uv=False))[::-1]
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def test_wootters_kernel_matches_the_square_root_form(rng):
    # phi phi^dagger of rank 1 to 4; a Bell-state bias keeps some mixed ones entangled.
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    for rank in (1, 2, 3, 4):
        for bias in (0.0, 1.0, 3.0):
            phi = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            phi[:, 0] += bias * bell
            phi /= np.linalg.norm(phi)
            rho = phi @ phi.conj().T
            oracle = _concurrence_oracle(rho)
            assert abs(entangle._wootters(phi) - oracle) <= 1e-12
            assert abs(entangle.concurrence(rho) - oracle) <= 1e-12


def _ckw_residual(psi):
    """The three-tangle as the CKW residual C^2_{1(23)} - C^2_{12} - C^2_{13}, through two
    partial traces and two Wootters concurrences, with C^2_{1(23)} = 4 det(rho_1)."""
    rho = qalg.projector(psi)
    c_sq_1_23 = 4.0 * float(np.linalg.det(qalg.partial_trace(rho, keep=[1])).real)
    c_12 = entangle.concurrence(qalg.partial_trace(rho, keep=[1, 2]))
    c_13 = entangle.concurrence(qalg.partial_trace(rho, keep=[1, 3]))
    return c_sq_1_23 - c_12 * c_12 - c_13 * c_13


def test_three_tangle_matches_the_ckw_residual(rng):
    worst = max(
        abs(entangle.three_tangle_pure(psi) - _ckw_residual(psi))
        for psi in (random_pure_state(rng) for _ in range(1000))
    )
    assert worst <= 1e-12


def test_three_tangle_known_values():
    assert entangle.three_tangle_pure(states.ghz_state()) == pytest.approx(1.0, abs=1e-10)
    assert entangle.three_tangle_pure(states.gghz(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert entangle.three_tangle_pure(states.gghz(np.pi / 8)) == pytest.approx(0.5, abs=1e-10)


def test_three_tangle_gghz_formula(rng):
    for eta in rng.uniform(0, np.pi / 4, size=10):
        tau = entangle.three_tangle_pure(states.gghz(float(eta)))
        assert tau == pytest.approx(np.sin(2 * eta) ** 2, abs=1e-10)


def test_three_tangle_permutation_invariance(rng):
    for _ in range(15):
        psi = random_pure_state(rng)
        base = entangle.three_tangle_pure(psi)
        for perm in ((2, 1, 3), (3, 2, 1), (2, 3, 1), (1, 3, 2), (3, 1, 2)):
            assert entangle.three_tangle_pure(
                permute_qubits(psi, perm)
            ) == pytest.approx(base, abs=1e-9)


def test_three_tangle_symmetric_cases():
    r = 1 / np.sqrt(2)
    assert _three_tangle_symmetric(0, 0, 0, r, r, 0.0) == pytest.approx(1.0)
    assert _three_tangle_symmetric(0.5, 0.5, 0.5, 0.0, 0.5, 1.3) == pytest.approx(0.0)
    # with abc = 0 the value cannot depend on the phase
    v1 = _three_tangle_symmetric(0.0, 0.6, 0.0, 0.6, np.sqrt(0.28), 0.0)
    v2 = _three_tangle_symmetric(0.0, 0.6, 0.0, 0.6, np.sqrt(0.28), 2.1)
    assert v1 == pytest.approx(v2, abs=1e-15)
    with pytest.raises(ValueError):
        _three_tangle_symmetric(0.5, 0.5, 0.5, 0.5, 0.5, 0.0)


def test_three_tangle_symmetric_matches_state_tangle():
    # cross-check against the concurrence-based tangle on the same state
    a, b, c, d = 0.2, 0.3, 0.25, 0.65
    h = np.sqrt(1 - (a * a + b * b + c * c + d * d))
    psi = np.zeros(8, dtype=complex)
    psi[0b011], psi[0b101], psi[0b110], psi[0b000], psi[0b111] = a, b, c, d, h
    tau_formula = _three_tangle_symmetric(a, b, c, d, h, 0.0)
    tau_state = entangle.three_tangle_pure(psi)
    assert tau_formula == pytest.approx(tau_state, abs=1e-9)


def test_discord_gghz_marginals_vanish():
    for eta in (0.2, 0.6, np.pi / 4):
        rho_ab = qalg.partial_trace(qalg.projector(states.gghz(eta)), keep=[1, 2])
        assert abs(entangle.discord_numeric(rho_ab)) <= 1e-12


def test_discord_pure_state_equals_marginal_entropy(rng):
    for _ in range(5):
        psi = random_pure_state(rng, dim=4)
        rho = qalg.projector(psi)
        d = entangle.discord_numeric(rho, measured=1)
        s_a = qalg.von_neumann_entropy(qalg.partial_trace(rho, keep=[1]))
        assert d == pytest.approx(s_a, abs=1e-12)


def test_discord_xstate_closed_form(rng):
    for _ in range(6):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        l0, l3, l4 = (abs(v[0]), abs(v[1]), abs(v[2]))
        rho_ab = qalg.partial_trace(
            qalg.projector(states.extended_ghz(l0, l3, l4)), keep=[1, 2]
        )
        numeric = entangle.discord_numeric(rho_ab, measured=1)
        closed = _xstate_discord_subclass_s(l0, l3)
        assert numeric == pytest.approx(closed, abs=1e-12)


def test_discord_nonnegative_random(rng):
    # Full-rank draws are outside the exact route and raise.
    for _ in range(10):
        rho = random_density_matrix(rng, dim=4)
        with pytest.raises(ValueError, match="rank at most 2, got rank 4"):
            entangle.discord_numeric(rho)


def test_discord_rejects_non_qubit_measured_side():
    # a three-qubit state has no two-qubit split to measure
    rho = np.eye(8, dtype=complex) / 8
    with pytest.raises(ValueError):
        entangle.discord_numeric(rho, measured=1)


def test_discord_rejects_non_two_qubit_dims():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        entangle.discord_numeric(rho, measured=1)


def _reference_conditional_entropy(rho, theta, phi):
    """Block-by-block oracle: <n|_B rho |n>_B and its spectrum, B trailing."""
    rho_r = rho.reshape(2, 2, 2, 2)
    ct, st, ph = np.cos(theta / 2.0), np.sin(theta / 2.0), np.exp(1j * phi)
    total = np.zeros(theta.shape[0])
    for n in (np.stack([ct, ph * st], axis=-1), np.stack([st, -ph * ct], axis=-1)):
        block = np.einsum("gb,abcd,gd->gac", n.conj(), rho_r, n)
        p = np.einsum("gaa->g", block).real
        evals = np.linalg.eigvalsh(block)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(evals > 0.0, evals, 1.0)
            ent = -np.sum(np.where(evals > 0.0, evals * np.log2(lam), 0.0), axis=-1)
        safe = p > 1e-14
        total += np.where(safe, ent + p * np.log2(np.where(safe, p, 1.0)), 0.0)
    return total


def _bloch_expansion(rho):
    """a_i = Tr rho (s_i x I), b_j = Tr rho (I x s_j), T_ij = Tr rho (s_i x s_j)."""
    def tr(op):
        return float(np.trace(rho @ op).real)

    eye = np.eye(2)
    a = np.array([tr(np.kron(s, eye)) for s in qalg.PAULIS])
    b = np.array([tr(np.kron(eye, s)) for s in qalg.PAULIS])
    t = np.array([[tr(np.kron(si, sj)) for sj in qalg.PAULIS] for si in qalg.PAULIS])
    return a, b, t


# The oracle of the exact rank-2 route minimizes over projective measurements:
# a dense (theta, phi) grid, then a zoom over REFINE_STENCIL x REFINE_STENCIL
# stencils of axes, one batched call per level, until the stencil spacing is
# at most REFINE_STEP_TOL.
THETA_GRID = 64
PHI_GRID = 32
REFINE_STENCIL = 9
REFINE_STEP_TOL = 1e-10


def _conditional_entropy_batch(a, b, t, theta, phi):
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
        ent = -np.sum(np.where(evals > 0.0, evals * np.log2(evals), 0.0), axis=0)
        # S(rho_{A|i}) needs the normalized block; entropy of block/p is
        # ent/p + log2(p), and it enters weighted by p.
        return np.sum(np.where(p > 1e-14, ent + p * np.log2(p), 0.0), axis=0)


def test_conditional_entropy_kernel_matches_block_oracle(rng):
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    rhos = [product, qalg.projector(np.array([1, 0, 0, 1]) / np.sqrt(2))]
    rhos += [random_density_matrix(rng, dim=4) for _ in range(4)]
    rhos += [random_density_matrix(rng, dim=4, rank=r) for r in (1, 2, 3) for _ in range(2)]
    poles = [(0.0, 0.0), (0.0, 1.3), (np.pi, 0.0), (np.pi, 4.0), (np.pi / 2, 0.0)]
    theta = np.concatenate([[t for t, _ in poles], rng.uniform(0.0, np.pi, 40)])
    phi = np.concatenate([[p for _, p in poles], rng.uniform(0.0, 2 * np.pi, 40)])
    for rho in rhos:
        kernel = _conditional_entropy_batch(*_bloch_expansion(rho), theta, phi)
        reference = _reference_conditional_entropy(rho, theta, phi)
        assert np.max(np.abs(kernel - reference)) <= 1e-12


def _former_discord_numeric(rho, measured):
    """The numeric discord, with S(B) from a partial trace and its spectrum."""
    r = np.roll(qalg.pauli_tensor(rho, 2), 1, axis=(0, 1))
    if measured == 0:
        r = r.T
    a, b, t = r[1:, 0], r[0, 1:], r[1:, 1:]

    s_ab = qalg.von_neumann_entropy(rho)
    s_b = qalg.von_neumann_entropy(partial_trace_dims(rho, (2, 2), keep=[measured]))

    thetas = np.linspace(0.0, math.pi, THETA_GRID)
    phis = np.linspace(0.0, 2.0 * math.pi, PHI_GRID, endpoint=False)
    tg, pg = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    vals = _conditional_entropy_batch(a, b, t, tg, pg)
    i = int(np.argmin(vals))
    best, theta0, phi0 = float(vals[i]), tg[i], pg[i]

    step = max(thetas[1] - thetas[0], phis[1] - phis[0])
    half = (REFINE_STENCIL - 1) // 2
    off_t, off_p = np.mgrid[-half : half + 1, -half : half + 1].reshape(2, -1).astype(float)
    edge = np.maximum(np.abs(off_t), np.abs(off_p)) == half
    while step > REFINE_STEP_TOL:
        vals = _conditional_entropy_batch(
            a, b, t, theta0 + step * off_t, phi0 + step * off_p
        )
        i = int(np.argmin(vals))
        improved = vals[i] < best - 1e-16
        if improved:
            best = float(vals[i])
            theta0 += step * off_t[i]
            phi0 += step * off_p[i]
        if not (improved and edge[i]):
            step /= half
    return s_b - s_ab + best


def test_discord_matches_former_partial_trace_path(rng):
    # The inputs of rank 3 and 4 the former path minimized are now rejected.
    rhos = [(np.eye(4, dtype=complex) / 4, 4)]
    rhos += [(random_density_matrix(rng, dim=4, rank=r), r) for r in (3, 4) for _ in range(3)]
    for rho, rank in rhos:
        for measured in (0, 1):
            with pytest.raises(ValueError, match=f"rank at most 2, got rank {rank}"):
                entangle.discord_numeric(rho, measured)


def test_rank_two_discord_meets_the_former_minimization(rng):
    # Koashi & Winter minimize over every POVM, so the exact value is a lower
    # bound of the projective minimum; the minimization meets it to rounding.
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    rhos = [product]
    rhos += [random_density_matrix(rng, dim=4, rank=r) for r in (1, 2) for _ in range(4)]
    rhos += [
        qalg.partial_trace(qalg.projector(random_pure_state(rng)), keep=keep)
        for _ in range(3)
        for keep in ([1, 2], [1, 3], [2, 3])
    ]
    for rho in rhos:
        for measured in (0, 1):
            exact = entangle.discord_numeric(rho, measured)
            assert abs(exact - _former_discord_numeric(rho, measured)) <= 1e-12


def test_rank_two_product_and_classical_discord_is_exact(rng):
    ket = {"0": np.array([1, 0]), "1": np.array([0, 1])}
    ket["+"] = np.array([1, 1]) / np.sqrt(2)
    ket["i"] = np.array([1, 1j]) / np.sqrt(2)
    ket["-i"] = np.array([1, -1j]) / np.sqrt(2)

    def pair(u, m):
        return qalg.projector(np.kron(ket[u], ket[m]))

    zero = [pair("0", "0"), pair("+", "i"), pair("-i", "1")]
    zero += [0.3 * pair("0", "1") + 0.7 * pair("1", "0"), (pair("0", "0") + pair("1", "1")) / 2]
    for rho in zero:
        for measured in (0, 1):
            assert entangle.discord_numeric(rho, measured) == 0.0
    bell = qalg.projector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert entangle.discord_numeric(bell, 0) == 1.0
    assert entangle.discord_numeric(bell, 1) == 1.0

    # In random bases a pure product stays exactly 0. A mixed one is 0 to
    # rounding: S(B) and S(AB) are then equal weights reached by different
    # roundings.
    for _ in range(20):
        u, m = (random_pure_state(rng, dim=2) for _ in range(2))
        u_perp, m_perp = (np.array([-v[1].conj(), v[0].conj()]) for v in (u, m))
        p = rng.uniform()
        mixed_m = p * qalg.projector(m) + (1 - p) * qalg.projector(m_perp)
        rhos = [
            qalg.projector(np.kron(u, m)),
            np.kron(qalg.projector(u), mixed_m),
            p * qalg.projector(np.kron(u, m)) + (1 - p) * qalg.projector(np.kron(u_perp, m_perp)),
        ]
        for measured in (0, 1):
            assert entangle.discord_numeric(rhos[0], measured) == 0.0
            for rho in rhos[1:]:
                assert abs(entangle.discord_numeric(rho, measured)) <= 1e-14


def _random_unitary(rng):
    u = random_pure_state(rng, dim=2)
    return np.stack([u, [-u[1].conj(), u[0].conj()]], axis=1)


def test_rank_three_classical_discord_has_no_negative_bias(rng):
    # Rank-3 states diagonal in a product basis are outside the exact route
    # and raise, however small their discord.
    rhos = [np.diag([0.2, 0.3, 0.5, 0.0]).astype(complex)]
    for _ in range(20):
        basis = np.kron(_random_unitary(rng), _random_unitary(rng))
        weights = np.append(rng.dirichlet(np.ones(3)), 0.0)
        rhos.append((basis * weights) @ basis.conj().T)
    for rho in rhos:
        for measured in (0, 1):
            with pytest.raises(ValueError, match="rank at most 2, got rank 3"):
                entangle.discord_numeric(rho, measured)


def test_rank_three_discord_just_above_the_cut_is_minimized(rng):
    # A third eigenvalue below EIG_CLAMP takes the exact route; above it the
    # state has rank 3 and raises.
    eps = 0.5 * qalg.EIG_CLAMP
    for _ in range(3):
        evals, vecs = np.linalg.eigh(random_density_matrix(rng, dim=4))
        rank2 = (vecs[:, 2:] * (evals[2:] / evals[2:].sum())) @ vecs[:, 2:].conj().T
        below, above = (
            (1.0 - w) * rank2 + w * qalg.projector(vecs[:, 1]) for w in (eps, 4.0 * eps)
        )
        for measured in (0, 1):
            exact = entangle.discord_numeric(rank2, measured)
            # Moving weight eps moves each entropy by O(eps log 1/eps).
            got = entangle.discord_numeric(below, measured)
            assert abs(got - exact) <= 10.0 * eps * np.log2(1.0 / eps)
            with pytest.raises(ValueError, match="rank at most 2, got rank 3"):
                entangle.discord_numeric(above, measured)


def test_discord_pure_marginals_match_koashi_winter(rng):
    # For pure psi_ABC, measuring A on rho_AB leaves an ensemble of rho_BC,
    # so min sum_i p_i S(B|i) = E_F(B:C) (Koashi & Winter, PRA 69, 022309
    # (2004)) and D(B|A) = S(A) - S(C) + E_F(B:C); E_F from Wootters'
    # concurrence (PRL 80, 2245 (1998)). The AC marginal swaps B and C.
    for _ in range(20):
        rho = qalg.projector(random_pure_state(rng))
        s_a, s_b, s_c = (
            qalg.von_neumann_entropy(qalg.partial_trace(rho, keep=[q])) for q in (1, 2, 3)
        )
        c = entangle.concurrence(qalg.partial_trace(rho, keep=[2, 3]))
        e_f = entangle.binary_entropy((1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0)
        d_ab = entangle.discord_numeric(qalg.partial_trace(rho, keep=[1, 2]), measured=0)
        d_ac = entangle.discord_numeric(qalg.partial_trace(rho, keep=[1, 3]), measured=0)
        assert d_ab == pytest.approx(s_a - s_c + e_f, abs=1e-12)
        assert d_ac == pytest.approx(s_a - s_b + e_f, abs=1e-12)


def test_monogamy_score_known_points():
    assert entangle.discord_monogamy_score(states.gghz(np.pi / 4)).delta_d == pytest.approx(
        1.0, abs=1e-12
    )
    assert entangle.discord_monogamy_score(states.gghz(0.0)).delta_d == pytest.approx(
        0.0, abs=1e-12
    )
    r = 1 / np.sqrt(2)
    psi = states.extended_ghz(r, 0.0, r)
    assert entangle.discord_monogamy_score(psi).delta_d == pytest.approx(1.0, abs=1e-12)


def test_monogamy_score_of_pure_states_runs_no_minimization(rng):
    # Every pair marginal of a pure state has rank at most 2, so none raises.
    for eta in (0.0, 0.3, np.pi / 4):
        score = entangle.discord_monogamy_score(states.gghz(eta))
        assert abs(score.delta_d - entangle.delta_d_gghz(eta)) <= 1e-12
    for l0, l3, l4 in ((0.6, 0.5, np.sqrt(0.39)), (0.8, 0.0, 0.6), (1.0, 0.0, 0.0)):
        score = entangle.discord_monogamy_score(states.extended_ghz(l0, l3, l4))
        tau = 4 * l0 * l0 * l4 * l4
        assert abs(score.delta_d - entangle.delta_d_subclass_s(tau)) <= 1e-12
    for _ in range(10):
        score = entangle.discord_monogamy_score(random_pure_state(rng))
        assert math.isfinite(score.delta_d)


def test_monogamy_score_matches_gghz_closed_form(rng):
    for eta in rng.uniform(0.05, np.pi / 4, size=5):
        eta = float(eta)
        score = entangle.discord_monogamy_score(states.gghz(eta))
        assert score.delta_d == pytest.approx(entangle.delta_d_gghz(eta), abs=1e-12)


def test_delta_d_gghz_values():
    assert entangle.delta_d_gghz(np.pi / 4) == pytest.approx(1.0)
    assert entangle.delta_d_gghz(0.0) == pytest.approx(0.0)
    c2 = np.cos(0.393) ** 2
    expected = -(c2 * np.log2(c2) + (1 - c2) * np.log2(1 - c2))
    assert entangle.delta_d_gghz(0.393) == pytest.approx(expected, abs=1e-12)


def test_delta_d_subclass_s_values():
    assert entangle.delta_d_subclass_s(1.0) == pytest.approx(1.0)
    assert entangle.delta_d_subclass_s(0.0) == pytest.approx(0.0)
    assert entangle.delta_d_subclass_s(0.75) == pytest.approx(
        entangle.binary_entropy(0.25), abs=1e-12
    )
    assert entangle.delta_d_subclass_s(0.75) == pytest.approx(0.8112781, abs=1e-6)


def test_delta_d_subclass_s_keeps_its_precision_at_small_tau():
    # (1 - sqrt(1 - tau))/2 cancels here: at tau = 4e-14 it is off by 7.5e-4 relative
    eta = 1e-7
    tau = math.sin(2.0 * eta) ** 2
    expected = entangle.delta_d_gghz(eta)
    assert entangle.delta_d_subclass_s(tau) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_monogamy_components_structure():
    score = entangle.discord_monogamy_score(states.extended_ghz(0.6, 0.5, np.sqrt(0.39)))
    assert score.delta_d == pytest.approx(
        score.d_a_bc - score.d_ab - score.d_ac, abs=1e-15
    )
    assert score.d_ac == pytest.approx(0.0, abs=1e-12)


# The closed forms written out term by term, as they were before the module
# evaluated each through binary_entropy.
def _reference_delta_d_gghz(eta):
    out = 0.0
    for w in (math.cos(eta) ** 2, math.sin(eta) ** 2):
        if w > 0.0:
            out -= w * math.log2(w)
    return out


def _reference_delta_d_subclass_s(tau):
    r = math.sqrt(max(1.0 - tau, 0.0))
    total = 0.0
    for w in (1.0 - r, 1.0 + r):
        if w > 0.0:
            total += w * math.log(w / 2.0)
    return -total / math.log(4.0)


def _reference_xstate_discord(l0, l3):
    a = l0 * l0
    r = math.sqrt(max(1.0 + 4.0 * a * a + 4.0 * a * (l3 * l3 - 1.0), 0.0))
    first = sum(w * math.log(w) for w in (a, 1.0 - a) if w > 0.0)
    second = sum(w * math.log(w / 2.0) for w in (1.0 + r, 1.0 - r) if w > 0.0)
    ln2, ln4 = math.log(2.0), math.log(4.0)
    return (-ln4 * first + ln2 * second) / (ln2 * ln4)


def test_closed_form_entropies_match_term_by_term_forms():
    for eta in np.linspace(0.0, math.pi / 4, 401):
        assert abs(entangle.delta_d_gghz(eta) - _reference_delta_d_gghz(eta)) <= 1e-15
    for tau in np.linspace(0.0, 1.0, 401):
        assert abs(entangle.delta_d_subclass_s(tau) - _reference_delta_d_subclass_s(tau)) <= 1e-15
    for l0 in np.linspace(0.0, 1.0, 81):
        for frac in np.linspace(0.0, 1.0, 81):
            l3 = frac * math.sqrt(max(1.0 - l0 * l0, 0.0))
            got = _xstate_discord_subclass_s(l0, l3)
            assert abs(got - _reference_xstate_discord(l0, l3)) <= 1e-15


def test_xstate_discord_rejects_non_state():
    # l0^2 + l3^2 > 1 leaves no weight for l4^2
    with pytest.raises(ValueError):
        _xstate_discord_subclass_s(0.8, 0.8)
