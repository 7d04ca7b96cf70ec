"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they are produced. Every tolerance is pinned here.

Three published values or claims are refuted by arithmetic that does not
rest on the optimizer. Criteria 5 and 9 test against the reckoned values
there, assert the refutation itself, and keep printing the published
numbers (``workflows.TABLE1_ROWS``/``TABLE2_ROWS`` keep them unchanged):

* rho4 Svetlichny threshold: published 0.72, reference 5/8. With
  r = (4p - 1)/3 the in-plane three-party correlator of rho4 is
  r cos(f1 + f2 + f3) + (1 - r) cos f1 cos f2 cos f3. At the setting with
  all six axes along x the Svetlichny value is exactly 4; to second order
  in the azimuths a0, a1, b0, b1, c0, c1 of the six axes it is
  4 - [a0^2 + ... + c1^2 + 2r (a0 b0 + b0 c0 + c0 a1 + a1 b1 + b1 c1 + c1 a0)].
  The form is I + r A with A the adjacency matrix of a 6-cycle, whose
  least eigenvalue -2 makes it indefinite for r > 1/2: every p > 5/8
  violates. Direct trace at the optimizer's settings gives 4.2229 at
  p = 0.718, the low edge of the published +-0.002 window. So 5/8 is a
  proved upper bound on the onset; that nothing violates below it follows
  from the exact real-X-state maximum (``bounds.svetlichny_x_max``), which
  gives 4 to rounding for p <= 5/8.
* rho8 99th-facet threshold: published 0.75843, reference 0.762845. A
  state diagonal in the GHZ basis (rho4..rho8) shows the facet only its zz
  pair correlators t_AB, t_BC, t_AC and its in-plane three-body tensor T,
  and the facet's maximum is |t_AB| + sqrt(t_BC^2 + M^2) + sqrt(t_AC^2 + M^2),
  where M is the largest singular value of T(a, ., .) over in-plane unit a.
  A grid over a plus the Lipschitz margin ||T||_F pi / n certifies a
  maximum of at most 2.98494 < 3 at p = 0.75843; the published closed form
  itself gives 2.98463 there and crosses 3 at 0.762841 (``test_bounds``).
  The printed value matches the rho7 expression's crossing, 0.758415,
  which points to a copy slip in the table.
* depolarized GGHZ example (eta = 0.69, p = (0.8, 0.7, 0.6)): the
  published claim "the 99th facet is violated, Svetlichny is not". The
  closed-form matrix equals the channel restricted to its four same-Pauli
  Kraus products (III, XXX, YYY, ZZZ), renormalized, so it is a coherent
  reading of the printed form. Any two-level |000>/|111> state with
  coherence c = |rho_07| reaches 8 sqrt(2) c with Svetlichny at the GHZ
  settings and 1 + 2 sqrt(1 + 4 c^2) with the facet: 4.58424 > 4 and
  3.57428 > 3 here, so both fire. The full Kraus model violates neither.
  The claim holds under neither model.
"""

import math
import warnings

import numpy as np
import pytest

from tribell import channels, entangle, polytope, qalg, states, workflows
from tribell.bell import (
    BellKind,
    MeasurementScenario,
    OptimizeOptions,
    behavior_operator_value,
    bound_b1_b3,
    bound_b2,
    bound_b4,
    bound_b5,
    correlation_tensors,
    operator_value,
    optimize_operator,
    visibility_threshold,
)
from tribell.bell.bounds import ns99_mixed_bound
from tribell.polytope import Behavior, HybridKind
from tribell.workflows import ThresholdQuery
from conftest import (
    amplitude_damp_qubit,
    depolarize_qubit,
    permute_qubits,
    random_density_matrix,
    random_pure_state,
)

OPTS = OptimizeOptions(restarts=64, seed=1)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


def _opt(rho, kind, opts=OPTS):
    return optimize_operator(rho, kind, opts)


def test_criterion_01_gghz_bound_recovery():
    """20-point eta grid: optimizer matches both closed forms to 1e-3."""
    worst_ns = worst_sv = 0.0
    for eta in np.linspace(0.0, math.pi / 4, 20):
        tau = math.sin(2 * eta) ** 2
        rho = qalg.projector(states.gghz(float(eta)))
        ns = _opt(rho, BellKind.NS99).value
        sv = _opt(rho, BellKind.SVETLICHNY).value
        worst_ns = max(worst_ns, abs(ns - bound_b1_b3(tau)))
        worst_sv = max(worst_sv, abs(sv - bound_b2(tau)))
    ok = worst_ns <= 1e-3 and worst_sv <= 1e-3
    _report("A01", ok, f"gghz grid: worst ns99 diff {worst_ns:.2e}, svet diff {worst_sv:.2e} (tol 1e-3)")
    assert worst_ns <= 1e-3
    assert worst_sv <= 1e-3


def test_criterion_02_ms_bound_recovery():
    """20-point eta grid: NS99 matches 1+2 sqrt(1+sin^2 eta); 2<->3 swap equal."""
    worst = worst_swap = 0.0
    for eta in np.linspace(0.0, math.pi / 4, 20):
        psi = states.ms(float(eta))
        expected = 1 + 2 * math.sqrt(1 + math.sin(eta) ** 2)
        v = _opt(qalg.projector(psi), BellKind.NS99).value
        v_swapped = _opt(
            qalg.projector(permute_qubits(psi, (1, 3, 2))), BellKind.NS99
        ).value
        worst = max(worst, abs(v - expected))
        worst_swap = max(worst_swap, abs(v - v_swapped))
    ok = worst <= 1e-3 and worst_swap <= 1e-4
    _report("A02", ok, f"ms grid: worst bound diff {worst:.2e} (tol 1e-3), swap diff {worst_swap:.2e} (tol 1e-4)")
    assert worst <= 1e-3
    assert worst_swap <= 1e-4


def test_criterion_03_subclass_s_bounds():
    """50 random lambda triples: optimizer matches the piecewise bounds."""
    rng = np.random.default_rng(777)
    worst_ns = worst_sv = 0.0
    excess_ns = excess_sv = -1.0
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        l0, l3, l4 = (float(x) for x in v)
        tau = 4 * l0 * l0 * l4 * l4
        c12 = 4 * l0 * l0 * l3 * l3
        rho = qalg.projector(states.extended_ghz(l0, l3, l4))
        ns = _opt(rho, BellKind.NS99).value
        sv = _opt(rho, BellKind.SVETLICHNY).value
        b_ns = max(3.0, bound_b5(tau, c12))
        b_sv = bound_b4(tau, c12)
        worst_ns = max(worst_ns, abs(ns - b_ns))
        worst_sv = max(worst_sv, abs(sv - b_sv))
        excess_ns = max(excess_ns, ns - b_ns)
        excess_sv = max(excess_sv, sv - b_sv)
    ok = worst_ns <= 2e-3 and worst_sv <= 2e-3 and excess_ns <= 1e-3 and excess_sv <= 1e-3
    _report(
        "A03",
        ok,
        f"subclass S (50 states): worst |diff| ns99 {worst_ns:.2e}, svet {worst_sv:.2e} "
        f"(tol 2e-3); max excess {max(excess_ns, excess_sv):.2e} (tol 1e-3)",
    )
    assert worst_ns <= 2e-3 and worst_sv <= 2e-3
    assert excess_ns <= 1e-3 and excess_sv <= 1e-3


def _bisect_threshold(family, operator, k=None):
    return workflows.threshold_bisect(
        ThresholdQuery(family=family, operator=operator, k=k, tol=2.5e-4, seed=1)
    ).p_star


def test_criterion_04_table1_thresholds():
    """rho2 and rho3^k thresholds within +-0.002 of the published values."""
    failures = []
    for spec in workflows.TABLE1_ROWS:
        for op, published in (
            (BellKind.NS99, spec.ns99_threshold),
            (BellKind.SVETLICHNY, spec.svetlichny_threshold),
        ):
            got = _bisect_threshold(spec.family, op, spec.k)
            diff = abs(got - published)
            line = f"{spec.label} {op.value}: recomputed {got:.6f} vs published {published:.6f} (|diff| {diff:.6f})"
            print("       " + line)
            if diff > 0.002:
                failures.append(line)
    _report("A04", not failures, f"table-1 thresholds within +-0.002: {8 - len(failures)}/8")
    assert not failures, failures


# Published table-2 cells that the arithmetic refutes (see the module
# docstring), mapped to the reference criterion 5 compares against instead.
TABLE2_REFERENCES = {
    ("rho4", BellKind.SVETLICHNY): 5.0 / 8.0,  # 6-cycle form indefinite for p > 5/8
    ("rho8", BellKind.NS99): 0.762845,  # root of the exact GHZ-diagonal facet maximum
}
# Least eigenvector of the 6-cycle a0-b0-c0-a1-b1-c1, in scenario order
# A0, A1, B0, B1, C0, C1: signs alternate around the cycle.
SIX_CYCLE_LEAST = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])


def _in_plane(azimuths) -> MeasurementScenario:
    """Scenario with all axes in the x-y plane at the given azimuths."""
    return MeasurementScenario([[math.pi / 2, phi] for phi in azimuths])


def _ns99_ghz_diagonal_range(rho, n=20_000) -> tuple[float, float]:
    """Attained value and certified upper bound of the facet on a GHZ-diagonal state.

    Such a state shows the facet only its zz pair correlators and its
    in-plane three-body tensor T, so the maximum is
    |t_AB| + sqrt(t_BC^2 + M^2) + sqrt(t_AC^2 + M^2) with M the largest
    singular value of T(a, ., .) over in-plane unit a. The best of an n-point
    grid over a is attained by explicit settings; adding the Lipschitz
    margin ||T||_F pi / n bounds M from above.
    """
    tensors = correlation_tensors(rho, 3)
    rest = tensors[(0, 1, 2)].copy()
    plane = rest[:2, :2, :2].copy()
    rest[:2, :2, :2] = 0.0
    pairs = [tensors[key].copy() for key in ((0, 1), (1, 2), (0, 2))]
    t_ab, t_bc, t_ac = (float(pair[2, 2]) for pair in pairs)
    for pair in pairs:
        pair[2, 2] = 0.0
    assert max(np.abs(t).max() for t in [rest, *pairs]) < 1e-12, "state is not GHZ-diagonal"

    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    axes = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    sigma1 = np.linalg.svd(np.einsum("ni,ijk->njk", axes, plane), compute_uv=False)[:, 0]
    m = float(sigma1.max())

    def facet_max(m):
        return abs(t_ab) + math.hypot(t_bc, m) + math.hypot(t_ac, m)

    return facet_max(m), facet_max(m + float(np.linalg.norm(plane)) * math.pi / n)


def test_criterion_05_table2_thresholds_and_bounds():
    """rho4..rho8 thresholds within +-0.002; closed forms track the optimizer.

    The two refuted published cells are compared with the references in
    TABLE2_REFERENCES, and their refutation is asserted here.
    """
    failures = []
    published_of = {}
    for spec in workflows.TABLE2_ROWS:
        for op, published in (
            (BellKind.NS99, spec.ns99_threshold),
            (BellKind.SVETLICHNY, spec.svetlichny_threshold),
        ):
            published_of[spec.label, op] = published
            reference = TABLE2_REFERENCES.get((spec.label, op), published)
            got = _bisect_threshold(spec.family, op)
            diff = abs(got - reference)
            line = f"{spec.label} {op.value}: recomputed {got:.6f} vs published {published:.6f}"
            if reference != published:
                line += f", refuted; reference {reference:.6f}"
            line += f" (|diff| {diff:.6f})"
            print("       " + line)
            if diff > 0.002:
                failures.append(line)
    worst_grid = 0.0
    for spec in workflows.TABLE2_ROWS:
        build = workflows.mixed_builder(spec.family)
        for p in np.linspace(0.0, 1.0, 10):
            opt_val = _opt(build(float(p)), BellKind.NS99).value
            worst_grid = max(worst_grid, abs(opt_val - ns99_mixed_bound(spec.family, float(p))))
    grid_ok = worst_grid <= 1e-9
    print(f"       closed-form vs optimizer on 10-point grids: worst diff {worst_grid:.2e} (tol 1e-9)")

    # rho4 Svetlichny: a step along the 6-cycle's least eigenvector leaves the
    # all-x setting upward just above 5/8, and the optimizer's settings at the
    # low edge of the published window violate by direct trace.
    svet = BellKind.SVETLICHNY
    saddle_gain = operator_value(
        states.mixed_builder("rho4")(0.63), _in_plane(0.01 * SIX_CYCLE_LEAST), svet
    ) - 4.0
    rho4_edge = states.mixed_builder("rho4")(published_of["rho4", svet] - 0.002)
    rho4_edge_value = operator_value(rho4_edge, _opt(rho4_edge, svet).scenario, svet)
    # rho8 ns99: certified below 3 at the high edge of the published window;
    # the exact maximum crosses 3 within 2.5e-4 of the reference.
    rho8_ref = TABLE2_REFERENCES["rho8", BellKind.NS99]
    _, rho8_edge_upper = _ns99_ghz_diagonal_range(
        states.mixed_builder("rho8")(published_of["rho8", BellKind.NS99] + 0.002)
    )
    _, below_upper = _ns99_ghz_diagonal_range(states.mixed_builder("rho8")(rho8_ref - 2.5e-4))
    above_attained, _ = _ns99_ghz_diagonal_range(states.mixed_builder("rho8")(rho8_ref + 2.5e-4))
    print(
        f"       refutations: rho4(0.63) svetlichny gain off the all-x saddle {saddle_gain:.2e}; "
        f"rho4(0.718) svetlichny by direct trace {rho4_edge_value:.6f}; "
        f"rho8(0.76043) certified ns99 <= {rho8_edge_upper:.6f}; "
        f"rho8 exact ns99 crosses 3 in [{below_upper:.6f}, {above_attained:.6f}] around {rho8_ref}"
    )
    refuted = (
        saddle_gain > 1e-6
        and rho4_edge_value > 4.1
        and rho8_edge_upper < 3.0
        and below_upper < 3.0 < above_attained
    )
    _report(
        "A05",
        not failures and grid_ok and refuted,
        f"table-2 thresholds within +-0.002: {10 - len(failures)}/10 "
        f"({len(TABLE2_REFERENCES)} against reckoned references); "
        f"bound grids ok: {grid_ok}; refutations hold: {refuted}",
    )
    assert grid_ok
    assert not failures, failures
    assert saddle_gain > 1e-6
    assert rho4_edge_value > 4.1
    assert rho8_edge_upper < 3.0
    assert below_upper < 3.0 < above_attained


def test_criterion_06_discord_pipeline():
    """Monogamy score vs closed forms to 1e-12; classical marginals."""
    worst_gghz = 0.0
    for eta in np.linspace(0.0, math.pi / 4, 20):
        eta = float(eta)
        score = entangle.discord_monogamy_score(states.gghz(eta))
        worst_gghz = max(worst_gghz, abs(score.delta_d - entangle.delta_d_gghz(eta)))
    rng = np.random.default_rng(4242)
    worst_s = 0.0
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        l0, l3, l4 = (float(x) for x in v)
        tau = 4 * l0 * l0 * l4 * l4
        score = entangle.discord_monogamy_score(states.extended_ghz(l0, l3, l4))
        worst_s = max(worst_s, abs(score.delta_d - entangle.delta_d_subclass_s(tau)))
    worst_marginal = 0.0
    for eta in np.linspace(0.0, math.pi / 4, 20):
        rho = qalg.projector(states.gghz(float(eta)))
        for keep in ([1, 2], [1, 3]):
            marg = qalg.partial_trace(rho, keep=keep)
            worst_marginal = max(worst_marginal, abs(entangle.discord_numeric(marg)))
    ok = worst_gghz <= 1e-12 and worst_s <= 1e-12 and worst_marginal <= 1e-12
    _report(
        "A06",
        ok,
        f"delta_D vs closed forms: gghz {worst_gghz:.2e}, subclass S {worst_s:.2e} (tol 1e-12); "
        f"gghz marginal discord {worst_marginal:.2e} (tol 1e-12)",
    )
    assert worst_gghz <= 1e-12
    assert worst_s <= 1e-12
    assert worst_marginal <= 1e-12


def test_criterion_07_visibility_thresholds():
    """Violation switches on across the closed-form visibility threshold.

    The library scales one see-saw on the pure state by the visibility; each
    value is checked here against the see-saw on the noisy state itself."""
    cases = []
    for tau in (0.5, 1.0):
        for op in (BellKind.NS99, BellKind.SVETLICHNY):
            if visibility_threshold(op, tau) is None:
                continue  # svetlichny has no threshold below 1 at tau = 0.5
            check = workflows.visibility_check(op, tau, delta=0.01, seed=1)
            cases.append((tau, op, check))
            rho = qalg.projector(states.extended_ghz(*states.ext_s_lambdas_from_tau_c12(tau, 0.0)))
            below, above = (
                _opt(states.white_noise_mix(rho, alpha), op)
                for alpha in (max(check.threshold - 0.01, 0.0), min(check.threshold + 0.01, 1.0))
            )
            assert check.below_value == pytest.approx(below.value, abs=1e-12), (tau, op)
            assert check.above_value == pytest.approx(above.value, abs=1e-12), (tau, op)
            assert (check.below_violates, check.above_violates) == (below.violated, above.violated)
            print(
                f"       tau={tau} {op.value}: alpha*={check.threshold:.5f} "
                f"below value {check.below_value:.6f} (viol {check.below_violates}), "
                f"above value {check.above_value:.6f} (viol {check.above_violates})"
            )
    ok = all(c.confirmed for _, _, c in cases) and len(cases) == 3
    _report("A07", ok, f"visibility flips across alpha* for {len(cases)} defined cases")
    assert len(cases) == 3
    for tau, op, check in cases:
        assert check.confirmed, (tau, op)


def test_criterion_08_detection_example():
    """0.966|000>+0.259|111>: the 99th facet fires, Svetlichny does not."""
    psi = states.pure_state([0.966, 0, 0, 0, 0, 0, 0, 0.259], normalize=True)
    rho = qalg.projector(psi)
    tau = entangle.three_tangle_pure(psi)
    ns = _opt(rho, BellKind.NS99)
    sv = _opt(rho, BellKind.SVETLICHNY)
    ok = ns.value > 3.0 and sv.value < 4.0 and tau < 1.0 / 3.0
    _report(
        "A08",
        ok,
        f"tau={tau:.4f}: ns99 {ns.value:.6f} (>3), svetlichny {sv.value:.6f} (<4)",
    )
    assert tau == pytest.approx(0.25, abs=5e-3)
    assert ns.value > 3.0
    assert sv.value < 4.0


# Azimuths [A0, A1, B0, B1, C0, C1] of in-plane settings reaching 4 sqrt(2) on GHZ.
GHZ_SVETLICHNY_AZIMUTHS = (0.0, math.pi / 2, 7 * math.pi / 4, 5 * math.pi / 4, 0.0, math.pi / 2)


def _same_pauli_depolarization(rho, strengths):
    """Depolarization kept to its Kraus products III, XXX, YYY, ZZZ, renormalized."""
    out = np.zeros_like(rho)
    for i, pauli in enumerate((qalg.IDENTITY_2, qalg.PAULI_X, qalg.PAULI_Y, qalg.PAULI_Z)):
        weight = math.prod(1.0 - 3.0 * p / 4.0 if i == 0 else p / 4.0 for p in strengths)
        op = np.kron(np.kron(pauli, pauli), pauli)
        out += weight * op @ rho @ op.conj().T
    return out / np.trace(out).real


def _channel_example_report(seed: int) -> list[workflows.ChannelExampleVerdict]:
    """Evaluate the four published noisy-state examples under each model."""
    dep = channels.ChannelSpec(channels.ChannelKind.DEPOLARIZE, (0.8, 0.7, 0.6))
    damp = channels.ChannelKind.AMPLITUDE_DAMP
    # (label, pure state, channel, closed-form eta or None)
    examples = (
        ("depolarized gghz(0.69), p=(0.8,0.7,0.6)", states.gghz(0.69), dep, 0.69),
        ("depolarized ms(0.69), p=(0.8,0.7,0.6)", states.ms(0.69), dep, None),
        (
            "damped 0.995|000>+0.099|111>, g=(0.1,0.08,0.09)",
            states.pure_state([0.995, 0, 0, 0, 0, 0, 0, 0.099], normalize=True),
            channels.ChannelSpec(damp, (0.1, 0.08, 0.09)),
            math.atan2(0.099, 0.995),
        ),
        (
            "damped ms-type (1,0.955,0.296)/sqrt2, g=(0.33,0.15,0.09)",
            states.pure_state([1.0, 0, 0, 0, 0, 0, 0.955, 0.296], normalize=True),
            channels.ChannelSpec(damp, (0.33, 0.15, 0.09)),
            None,
        ),
    )
    opts = OptimizeOptions(seed=seed)
    verdicts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", channels.HermitizedClosedFormWarning)
        for label, psi, spec, eta in examples:
            noisy = workflows.channel_states(qalg.projector(psi), spec, eta)
            verdicts += workflows.channel_verdicts(noisy, opts, label)
    return verdicts


def _claim_holds(verdict: workflows.ChannelExampleVerdict) -> bool:
    """The published claim: the 99th facet fires while Svetlichny does not."""
    return verdict.ns99_violated and not verdict.svetlichny_violated


def test_criterion_09_channel_example_claims():
    """Per-model verdicts for the four published noisy-state examples.

    The published claim is that the 99th facet is violated while Svetlichny
    is not. Both models are evaluated and reported. The damped GGHZ closed
    form must agree with the claim. For the depolarized GGHZ example the
    claim is refuted (see the module docstring): its closed form must
    violate both operators at their two-level analytic values, and the
    Kraus model neither.
    """
    verdicts = _channel_example_report(seed=1)
    for v in verdicts:
        print(
            f"       {v.example} [{v.model}]: ns99 {v.ns99_value:.6f} "
            f"({'VIOL' if v.ns99_violated else 'no viol'}), svet {v.svetlichny_value:.6f} "
            f"({'VIOL' if v.svetlichny_violated else 'no viol'}) -> claim holds: {_claim_holds(v)}"
        )
    kraus = {v.example: v for v in verdicts if v.model == "kraus"}
    closed = {v.example: v for v in verdicts if v.model == "closed_form"}
    assert len(kraus) == 4  # every published example has a Kraus model
    assert len(closed) == 2  # both GGHZ-type examples carry a closed form
    damped = next(v for label, v in closed.items() if label.startswith("damped"))
    depolarized = next(label for label in closed if label.startswith("depolarized"))

    eta, strengths = 0.69, (0.8, 0.7, 0.6)
    rho = channels.closed_form_depolarized_gghz(eta, *strengths)
    restricted = _same_pauli_depolarization(qalg.projector(states.gghz(eta)), strengths)
    transcription_diff = float(np.abs(rho - restricted).max())
    coherence = abs(rho[0, 7])
    svet_analytic = 8.0 * math.sqrt(2.0) * coherence
    ns_analytic = 1.0 + 2.0 * math.sqrt(1.0 + 4.0 * coherence**2)
    tilt = math.atan(2.0 * coherence)
    ns_settings = MeasurementScenario(
        [[math.pi / 2, 0.0], [0.0, 0.0], [math.pi / 2, 0.0], [0.0, 0.0], [tilt, 0.0], [tilt, math.pi]]
    )
    svet_direct = operator_value(rho, _in_plane(GHZ_SVETLICHNY_AZIMUTHS), BellKind.SVETLICHNY)
    ns_direct = operator_value(rho, ns_settings, BellKind.NS99)
    dep_closed, dep_kraus = closed[depolarized], kraus[depolarized]
    print(
        f"       {depolarized}: closed form = same-Pauli Kraus restriction to {transcription_diff:.1e}; "
        f"two-level analytic svet {svet_analytic:.6f} (direct trace {svet_direct:.6f}), "
        f"ns99 {ns_analytic:.6f} (direct trace {ns_direct:.6f})"
    )
    dep_closed_ok = (
        dep_closed.svetlichny_violated
        and dep_closed.ns99_violated
        and abs(dep_closed.svetlichny_value - svet_analytic) <= 1e-4
        and abs(dep_closed.ns99_value - ns_analytic) <= 1e-4
    )
    dep_kraus_ok = not dep_kraus.ns99_violated and not dep_kraus.svetlichny_violated
    _report(
        "A09",
        _claim_holds(damped) and dep_closed_ok and dep_kraus_ok,
        f"damped GGHZ closed form agrees with the published claim: {_claim_holds(damped)}; "
        f"depolarized GGHZ refutes it: closed form violates both at the analytic values: "
        f"{dep_closed_ok}, Kraus model violates neither: {dep_kraus_ok}",
    )
    assert transcription_diff < 1e-12
    assert abs(svet_direct - svet_analytic) < 1e-12
    assert abs(ns_direct - ns_analytic) < 1e-12
    assert _claim_holds(damped), damped
    assert dep_closed_ok, dep_closed
    assert dep_kraus_ok, dep_kraus


def test_criterion_10_polytope_consistency():
    """Deterministic strategies, NS2 facet validity, GHZ outside NS2."""
    local = polytope.enumerate_vertices(HybridKind.FULLY_LOCAL)
    assert local.shape[0] == 64
    ns_vals = [behavior_operator_value(v.reshape(polytope.BEHAVIOR_SHAPE), BellKind.NS99) for v in local]
    sv_vals = [
        behavior_operator_value(v.reshape(polytope.BEHAVIOR_SHAPE), BellKind.SVETLICHNY)
        for v in local
    ]
    dets_ok = max(ns_vals) == pytest.approx(3.0) and max(sv_vals) == pytest.approx(4.0)
    dets_ok = dets_ok and all(v <= 3 + 1e-12 for v in ns_vals) and all(v <= 4 + 1e-12 for v in sv_vals)

    ghz = qalg.projector(states.ghz_state())
    rep = _opt(ghz, BellKind.NS99)
    scenario = rep.scenario
    ghz_behavior = polytope.quantum_behavior(ghz, scenario)
    outside = not polytope.membership(ghz_behavior, HybridKind.NS2).inside

    rng = np.random.default_rng(2718)
    certified, violations = 0, 0
    candidates = [Behavior.from_flat(rng.dirichlet(np.ones(64)) @ local) for _ in range(4)]
    for alpha in (0.3, 0.6, 0.75, 0.9):
        candidates.append(
            polytope.quantum_behavior(states.white_noise_mix(ghz, alpha), scenario)
        )
    for beh in candidates:
        res = polytope.membership(beh, HybridKind.NS2)
        if res.inside:
            certified += 1
            if behavior_operator_value(beh.table, BellKind.NS99) > 3.0 + 1e-7:
                violations += 1
    ok = dets_ok and outside and certified >= 5 and violations == 0
    _report(
        "A10",
        ok,
        f"deterministic bounds attained: {dets_ok}; GHZ-optimal outside NS2: {outside}; "
        f"{certified} behaviors certified inside NS2, facet violations among them: {violations}",
    )
    assert dets_ok
    assert outside
    assert certified >= 5 and violations == 0


def test_criterion_11_property_suites():
    """100 randomized instances per property."""
    rng = np.random.default_rng(31415)

    worst_trace, worst_eig = 0.0, 0.0
    for _ in range(100):
        rho = random_density_matrix(rng)
        qubit = int(rng.integers(1, 4))
        strength = float(rng.uniform(0, 1))
        if rng.integers(2):
            out = depolarize_qubit(rho, qubit, strength)
        else:
            out = amplitude_damp_qubit(rho, qubit, strength)
        worst_trace = max(worst_trace, abs(np.trace(out).real - 1.0))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(out).min()))
    channels_ok = worst_trace <= 1e-12 and worst_eig >= -1e-10

    perms = [(2, 1, 3), (3, 2, 1), (2, 3, 1), (1, 3, 2), (3, 1, 2)]
    worst_perm = 0.0
    for i in range(100):
        psi = random_pure_state(rng)
        tau = entangle.three_tangle_pure(psi)
        perm = perms[i % len(perms)]
        worst_perm = max(
            worst_perm, abs(entangle.three_tangle_pure(permute_qubits(psi, perm)) - tau)
        )
    tangle_ok = worst_perm <= 1e-9

    worst_pure, worst_diag = 0.0, 0.0
    for i in range(100):
        if i % 2 == 0:
            psi = random_pure_state(rng, dim=int(rng.choice([2, 4, 8])))
            worst_pure = max(worst_pure, abs(qalg.von_neumann_entropy(qalg.projector(psi))))
        else:
            probs = rng.dirichlet(np.ones(8))
            expected = float(-np.sum(probs[probs > 0] * np.log2(probs[probs > 0])))
            worst_diag = max(
                worst_diag, abs(qalg.von_neumann_entropy(np.diag(probs).astype(complex)) - expected)
            )
    entropy_ok = worst_pure <= 1e-10 and worst_diag <= 1e-10

    determinism_ok = True
    fast = OptimizeOptions(restarts=4, seed=11)
    for i in range(100):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 9)))
        kind = BellKind.NS99 if i % 2 == 0 else BellKind.SVETLICHNY
        r1 = optimize_operator(rho, kind, fast)
        r2 = optimize_operator(rho, kind, fast)
        if (
            r1.value != r2.value
            or not np.array_equal(r1.scenario.angles, r2.scenario.angles)
            or not np.array_equal(r1.restart_values, r2.restart_values)
        ):
            determinism_ok = False
            break

    ok = channels_ok and tangle_ok and entropy_ok and determinism_ok
    _report(
        "A11",
        ok,
        f"channels trace/PSD: {channels_ok} (trace {worst_trace:.1e}, eig {worst_eig:.1e}); "
        f"tangle permutation: {tangle_ok} ({worst_perm:.1e}); entropy: {entropy_ok}; "
        f"optimizer determinism: {determinism_ok}",
    )
    assert channels_ok
    assert tangle_ok
    assert entropy_ok
    assert determinism_ok
