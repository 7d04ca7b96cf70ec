import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from tribell import qalg, states, workflows
from tribell.bell import (
    CLASSICAL_BOUND,
    BellKind,
    OptimizeOptions,
    bound_b1_b3,
    operator_value,
    optimize,
    optimize_operator,
)
from tribell.bell.operators import (
    VIOLATION_ATOL,
    _fused_coefficient_tensor,
    _pair_block,
    _pair_matrices,
    augmented_vectors,
    make_batched_value,
)
from tribell.bell.optimize import (
    HESSIAN_MIN,
    NEWTON_EVERY,
    TIE_ULPS,
    ViolationReport,
    _angles,
    _best_restart,
    _initial_points,
    _see_saw,
    _starts,
    _sweep,
    _tangent_system,
)

FAST = OptimizeOptions(restarts=16, seed=1)


def test_ns99_maximum_on_ghz():
    rep = optimize_operator(qalg.projector(states.gghz(np.pi / 4)), BellKind.NS99, FAST)
    assert rep.value == pytest.approx(1 + 2 * np.sqrt(2), abs=1e-4)
    assert rep.violated and rep.converged
    assert CLASSICAL_BOUND[rep.operator] == 3.0


def test_svetlichny_maximum_on_ghz():
    rep = optimize_operator(
        qalg.projector(states.ghz_state()), BellKind.SVETLICHNY, FAST
    )
    assert rep.value == pytest.approx(4 * np.sqrt(2), abs=1e-4)
    assert rep.violated


def test_product_state_reaches_local_bound_only():
    rep = optimize_operator(qalg.projector(states.gghz(0.0)), BellKind.NS99, FAST)
    assert rep.value == pytest.approx(3.0, abs=1e-6)
    assert not rep.violated


def test_reported_scenario_reproduces_value():
    # even a report stopped by the iteration cap must be reproducible, and
    # its angles canonical: theta in [0, pi], phi in [0, 2 pi)
    rho = qalg.projector(states.gghz(0.6))
    capped = OptimizeOptions(restarts=FAST.restarts, seed=FAST.seed, max_iter=1)
    for opts, n_capped in ((FAST, 0), (capped, FAST.restarts)):
        rep = optimize_operator(rho, BellKind.NS99, opts)
        assert operator_value(rho, rep.scenario, BellKind.NS99) == pytest.approx(
            rep.value, abs=1e-9
        )
        assert rep.capped == n_capped
        thetas, phis = rep.scenario.angles[:, 0], rep.scenario.angles[:, 1]
        assert np.all((thetas >= 0) & (thetas <= np.pi))
        assert np.all((phis >= 0) & (phis < 2 * np.pi))


@pytest.mark.parametrize(
    "dim, kind", [(8, BellKind.SVETLICHNY), (8, BellKind.NS99), (4, BellKind.CHSH)]
)
def test_maximally_mixed_state_has_zero_gradient(dim, kind):
    # every partial contraction vanishes, so no Bloch vector has a best response,
    # and the Hessian vanishes too: no Newton step, no division by a zero pivot
    rho = np.eye(dim) / dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = optimize_operator(rho, kind, FAST)
    assert rep.value == 0.0
    assert np.all(np.isfinite(rep.scenario.angles))
    assert operator_value(rho, rep.scenario, kind) == pytest.approx(rep.value, abs=1e-9)
    assert rep.residual == 0.0
    assert rep.hessian_max == 0.0


@pytest.mark.parametrize("kind", [BellKind.NS99, BellKind.SVETLICHNY])
def test_tangent_gradient_and_hessian_match_finite_differences(kind):
    # the value at the normalized point v + sum_a x_a e_a, as a function of the
    # 12 tangent coordinates x; normalization is a second-order retraction, so
    # its derivatives at x = 0 are the Riemannian gradient and Hessian
    rng = np.random.default_rng(20101)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    aug = augmented_vectors(rng.uniform(0.0, 2.0 * np.pi, size=(1, 12))).reshape(1, 3, 2, 4)
    bases, grad, hess = _tangent_system(_pair_matrices(_fused_coefficient_tensor(rho, kind)), aug)
    value_fn = make_batched_value(rho, kind)

    def value_at(x):
        moved = np.repeat(aug, len(x), axis=0)
        v = aug[..., :3] + np.einsum("rpsa,psac->rpsc", x.reshape(-1, 3, 2, 2), bases[0])
        moved[..., :3] = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return value_fn(_angles(moved))

    h = 1e-4
    e = h * np.eye(12)
    fd_grad = (value_at(e) - value_at(-e)) / (2 * h)
    corners = [value_at((si * e[:, None] + sj * e[None]).reshape(-1, 12)).reshape(12, 12)
               for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    fd_hess = (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * h * h)
    assert np.max(np.abs(grad[0] - fd_grad)) < 1e-8
    assert np.max(np.abs(hess[0] - fd_hess)) < 1e-6
    assert np.array_equal(hess[0], hess[0].T)


@pytest.mark.parametrize("kind", [BellKind.CHSH, BellKind.NS99, BellKind.SVETLICHNY])
def test_pair_blocks_match_a_direct_contraction(kind):
    # every party's partial contraction, read from each pair block that holds
    # it, against an einsum of the fused tensor with the other parties' vectors
    rng = np.random.default_rng(20131)
    n = 2 if kind is BellKind.CHSH else 3
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    fused = _fused_coefficient_tensor(rho, kind)
    pair_mats = _pair_matrices(fused)
    aug = augmented_vectors(rng.uniform(0.0, 2.0 * np.pi, size=(5, 4 * n))).reshape(5, n, 2, 4)
    flat = aug.reshape(5, n, 8)
    letters = "abc"[:n]
    for k, (p, q) in enumerate(itertools.combinations(range(n), 2)):
        block = _pair_block(pair_mats, aug, k)
        for party, g in ((p, block @ flat[:, q, :, None]), (q, flat[:, p, None, :] @ block)):
            others = [r for r in range(n) if r != party]
            spec = f"{letters},{','.join('z' + letters[r] for r in others)}->z{letters[party]}"
            direct = np.einsum(spec, fused, *(flat[:, r] for r in others))
            assert np.max(np.abs(g.reshape(5, 8) - direct)) < 1e-12
    swept, values = _sweep(pair_mats, aug)
    assert np.max(np.abs(values - make_batched_value(rho, kind)(_angles(swept)))) < 1e-12


def test_flat_maximum_is_polished_to_a_strict_local_maximum():
    # below p = 5/8 the all-x setting gives exactly 4 and is a strict, nearly
    # flat maximum; the linear see-saw alone stops about 1e-10 short of it
    rho = states.mixed_builder(states.Family.RHO4)(0.6249)
    rep = optimize_operator(rho, BellKind.SVETLICHNY, OptimizeOptions(restarts=128, seed=1))
    assert rep.value == pytest.approx(4.0, abs=1e-12)
    assert rep.hessian_max < 0.0
    assert rep.capped == 0


@pytest.mark.parametrize(
    "family, p, kind",
    [(states.Family.RHO2, 0.81, BellKind.NS99), (states.Family.RHO4, 0.6249, BellKind.SVETLICHNY)],
)
def test_newton_runs_every_newton_every_sweeps_and_at_no_other_time(monkeypatch, family, p, kind):
    # each iteration sweeps twice (the sweep and its extrapolation trial), so
    # the first Newton step, after iteration NEWTON_EVERY, follows 34 sweeps
    sweeps, newton_at = [], []
    sweep, newton = optimize._sweep, optimize._newton
    monkeypatch.setattr(optimize, "_sweep", lambda *a: sweeps.append(1) or sweep(*a))
    monkeypatch.setattr(
        optimize, "_newton", lambda *a: newton_at.append(len(sweeps)) or newton(*a)
    )
    optimize_operator(states.mixed_builder(family)(p), kind, FAST)
    assert newton_at[0] == 2 * (NEWTON_EVERY + 1) == 34
    assert np.all(np.diff(newton_at) == 2 * NEWTON_EVERY)


def test_slow_ridge_converges():
    # rho7 Svetlichny sits on a flat ridge where plain see-saw and Nelder-Mead
    # both stop short; the reference is where both settle with a 20 000-step cap
    rho = workflows.mixed_builder(states.Family.RHO7)(0.9628752829233955)
    rep = optimize_operator(rho, BellKind.SVETLICHNY, OptimizeOptions(seed=1229384920))
    top_two = np.sort(rep.restart_values)[-2:]
    assert rep.converged
    assert top_two[1] - top_two[0] <= 1e-6
    assert rep.value == pytest.approx(5.3917677147, abs=1e-7)
    assert rep.residual <= 1e-9
    assert rep.capped == 0


def test_determinism_bit_identical():
    rho = qalg.projector(states.ms(0.5))
    opts = OptimizeOptions(restarts=12, seed=99)
    r1 = optimize_operator(rho, BellKind.NS99, opts)
    r2 = optimize_operator(rho, BellKind.NS99, opts)
    assert r1.value == r2.value
    assert np.array_equal(r1.scenario.angles, r2.scenario.angles)
    assert np.array_equal(r1.restart_values, r2.restart_values)
    assert (r1.violated, r1.converged) == (r2.violated, r2.converged)


def test_tied_restarts_report_the_lowest_index_under_ulp_noise():
    # restarts that reach one maximum differ in the last bits: one ulp of noise
    # on each tied value must not move the reported restart
    rng = np.random.default_rng(8)
    for top in (3.296799, 4.0 + 1e-9, 5.656854249492381, 0.25):
        values = np.full(64, top)
        lower = rng.choice(64, size=40, replace=False)
        values[lower] -= rng.uniform(1e-12, 1.0, size=40)
        tied = np.flatnonzero(values == top)
        for _ in range(50):
            step = rng.integers(-1, 2, size=tied.size)
            noisy = values.copy()
            noisy[tied] = np.where(step > 0, np.nextafter(top, np.inf),
                                   np.where(step < 0, np.nextafter(top, -np.inf), top))
            assert _best_restart(noisy) == tied[0]
        # a value further than the tie window below the maximum does not tie
        values[tied[0]] = top - 2 * TIE_ULPS * np.spacing(top)
        assert _best_restart(values) == tied[1]


def test_report_takes_the_lowest_tied_restart():
    rho = qalg.projector(states.gghz(0.6))
    report = optimize_operator(rho, BellKind.SVETLICHNY, OptimizeOptions(restarts=32, seed=1))
    values = report.restart_values
    tied = np.flatnonzero(values >= values.max() - TIE_ULPS * np.spacing(values.max()))
    assert tied.size > 1
    assert report.value == values[tied[0]]


def test_initial_points_are_seeded_and_prefix_stable():
    for restarts, dim, seed in ((64, 12, 1), (12, 12, 99), (16, 8, 7)):
        points = _initial_points(restarts, dim, seed)
        assert np.array_equal(points, _initial_points(restarts, dim, seed))
        assert not np.array_equal(points, _initial_points(restarts, dim, seed + 1))
        # the first k starts do not depend on the restart count
        assert np.array_equal(points[:5], _initial_points(5, dim, seed))
        assert np.array_equal(_initial_points(2 * restarts, dim, seed)[:restarts], points)
        assert np.all((points[:, 0::2] >= 0.0) & (points[:, 0::2] < np.pi))
        assert np.all((points[:, 1::2] >= 0.0) & (points[:, 1::2] < 2.0 * np.pi))


def test_seed_changes_restart_values():
    rho = qalg.projector(states.ms(0.5))
    r1 = optimize_operator(rho, BellKind.NS99, OptimizeOptions(restarts=8, seed=1))
    r2 = optimize_operator(rho, BellKind.NS99, OptimizeOptions(restarts=8, seed=2))
    assert not np.array_equal(r1.restart_values, r2.restart_values)
    assert r1.value == pytest.approx(r2.value, abs=1e-6)


def test_white_noise_linearity():
    # the fully mixed state contributes zero to every correlator, so the
    # optimum scales linearly in the visibility
    rho = qalg.projector(states.gghz(0.7))
    for kind in (BellKind.NS99, BellKind.SVETLICHNY):
        base = optimize_operator(rho, kind, FAST).value
        for alpha in (0.4, 0.8):
            mixed = states.white_noise_mix(rho, alpha)
            val = optimize_operator(mixed, kind, FAST).value
            assert val == pytest.approx(alpha * base, abs=1e-6)


def test_monotone_dominance_on_gghz_grid():
    for eta in np.linspace(0.0, np.pi / 4, 6):
        tau = np.sin(2 * eta) ** 2
        bound = bound_b1_b3(tau)
        val = optimize_operator(
            qalg.projector(states.gghz(float(eta))), BellKind.NS99, FAST
        ).value
        assert val <= bound + 1e-3
        assert val >= bound - 1e-3


def test_chsh_two_qubit_optimization():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rep = optimize_operator(qalg.projector(bell), BellKind.CHSH, FAST)
    assert rep.value == pytest.approx(2 * np.sqrt(2), abs=1e-5)
    assert CLASSICAL_BOUND[rep.operator] == 2.0
    assert rep.scenario.n_parties == 2


def test_single_restart_is_converged_flagged():
    rep = optimize_operator(
        qalg.projector(states.ghz_state()), BellKind.NS99, OptimizeOptions(restarts=1)
    )
    assert rep.converged
    assert len(rep.restart_values) == 1


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizeOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizeOptions(max_iter=0)


@pytest.mark.parametrize(
    "given, message",
    [
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
        ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
        ({"restarts": True}, "restarts must be an integer, got True"),
    ],
)
def test_options_name_a_bad_seed_or_count(given, message):
    # each would otherwise fail late, inside the first optimization
    with pytest.raises(ValueError, match=message):
        OptimizeOptions(**given)


def test_options_accept_numpy_integers():
    opts = OptimizeOptions(restarts=np.int64(4), seed=np.uint32(0), max_iter=np.int32(5))
    rho = qalg.projector(states.ghz_state())
    assert optimize_operator(rho, BellKind.NS99, opts).restart_values.shape == (4,)


def test_starts_are_shared_read_only():
    start = _starts(8, 12, 5)
    assert _starts(8, 12, 5) is start
    assert not start.flags.writeable
    assert np.array_equal(start, augmented_vectors(_initial_points(8, 12, 5)))


@pytest.mark.parametrize(
    "rho, kind",
    [
        (qalg.projector(states.ms(0.5)), BellKind.NS99),
        (states.mixed_builder(states.Family.RHO2)(0.7), BellKind.SVETLICHNY),
        (qalg.partial_trace(qalg.projector(states.ms(0.5)), [1, 2]), BellKind.CHSH),
    ],
    ids=["ns99", "svetlichny", "chsh"],
)
def test_restarts_are_independent(rho, kind):
    # no restart's arithmetic reads another's, so the first 16 restarts of a
    # 64-restart run follow the 16-restart run bit for bit, wherever each freezes
    short = optimize_operator(rho, kind, OptimizeOptions(restarts=16, seed=3))
    long = optimize_operator(rho, kind, OptimizeOptions(restarts=64, seed=3))
    assert np.array_equal(long.restart_values[:16], short.restart_values)


def test_stopped_run_reports_its_live_rows():
    # rho4 at p = 0.63 violates Svetlichny's bound: the run stops with restarts
    # still live, and each is reported where it stood, below its full run's value
    rho = states.mixed_builder(states.Family.RHO4)(0.63)
    cut = CLASSICAL_BOUND[BellKind.SVETLICHNY] + VIOLATION_ATOL
    full = optimize_operator(rho, BellKind.SVETLICHNY, FAST)
    stopped_opts = dataclasses.replace(FAST, stop_above=cut)
    stopped = optimize_operator(rho, BellKind.SVETLICHNY, stopped_opts)
    assert stopped.capped == 0 and not stopped.converged
    assert stopped.violated and cut < stopped.value
    assert stopped.value == stopped.restart_values[_best_restart(stopped.restart_values)]
    assert np.all(stopped.restart_values <= full.restart_values + 1e-12)
    assert np.any(stopped.restart_values < full.restart_values - 1e-9)


@pytest.mark.parametrize(
    "rho, kind",
    [
        (np.eye(8) / 8, BellKind.NS99),
        (qalg.projector(states.gghz(0.6)), BellKind.NS99),
        (qalg.projector(states.gghz(0.6)), BellKind.SVETLICHNY),
        (qalg.projector(states.gghz(np.pi / 4)), BellKind.SVETLICHNY),
        (states.mixed_builder(states.Family.RHO2)(0.78), BellKind.NS99),
        (states.mixed_builder(states.Family.RHO2)(0.9), BellKind.SVETLICHNY),
    ],
    ids=["zero", "gghz-ns99", "gghz-svetlichny", "ghz-svetlichny", "rho2-ns99", "rho2-svetlichny"],
)
def test_every_restart_freezes_before_the_cap(rho, kind):
    # the zero Hessian of the maximally mixed state, the flat families of
    # maxima of GHZ-type states (largest eigenvalue at rounding level) and the
    # strict maxima of rho2
    pair_mats = _pair_matrices(_fused_coefficient_tensor(rho, kind))
    _, capped, _ = _see_saw(pair_mats, _starts(64, 12, 1).reshape(-1, 3, 2, 4), 2000, None)
    assert capped == 0


def _two_body_only_state():
    # rho_AB (x) I/2 with rho_AB = (I + 0.3 YY - 0.25 ZX + 0.2 ZZ)/4: of the
    # ns99 terms only <X1Y1> survives, so X0, Y0, Z0 and Z1 enter no term and
    # their rows of the tangent Hessian are exactly zero
    x, y, z = qalg.PAULIS
    rho_ab = (np.eye(4) + 0.3 * np.kron(y, y) - 0.25 * np.kron(z, x) + 0.2 * np.kron(z, z)) / 4
    return np.kron(rho_ab, np.eye(2) / 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_newton_solve_is_regular_where_a_setting_enters_no_term(seed):
    # the maximum of <X1Y1> is the largest singular value of the correlation
    # matrix, whose rows (0, 0.3, 0) and (-0.25, 0, 0.2) are orthogonal
    rep = optimize_operator(
        _two_body_only_state(), BellKind.NS99, OptimizeOptions(restarts=16, seed=seed)
    )
    assert rep.value == pytest.approx(np.sqrt(0.1025), abs=1e-12)
    assert rep.converged and rep.capped == 0


def test_newton_keeps_a_trial_exactly_where_the_value_rises(monkeypatch):
    # the one acceptance rule: no row's value falls, and a trial that rises is
    # kept even where the tangent Hessian is not negative definite
    rho = qalg.projector(states.extended_ghz(*states.ext_s_lambdas_from_tau_c12(0.4, 0.3)))
    newton = optimize._newton
    kept_tops = []

    def spy(pair_mats, aug, values):
        new_aug, new_values = newton(pair_mats, aug, values)
        assert np.all(new_values >= values)
        kept = new_values > values
        hess = _tangent_system(pair_mats, aug)[2]
        kept_tops.extend(np.linalg.eigvalsh(hess[kept])[:, -1])
        return new_aug, new_values

    monkeypatch.setattr(optimize, "_newton", spy)
    optimize_operator(rho, BellKind.SVETLICHNY, FAST)
    assert max(kept_tops, default=-np.inf) >= -HESSIAN_MIN


# rho4 Svetlichny crosses its bound tangentially at 5/8, rho8 ns99 crosses
# near 0.762845; each family is probed on both sides of its crossing.
STOP_CASES = [
    *((states.Family.RHO4, BellKind.SVETLICHNY, 0.625, p) for p in (0.62, 0.6251, 0.626, 0.63)),
    *((states.Family.RHO8, BellKind.NS99, 0.762845, p) for p in (0.76, 0.7629)),
]


@pytest.mark.parametrize("family, kind, crossing, p", STOP_CASES)
def test_stop_above_keeps_the_full_runs_verdict(family, kind, crossing, p):
    rho = states.mixed_builder(family)(p)
    opts = OptimizeOptions(restarts=workflows.ROOT_RESTARTS, seed=1)
    cut = CLASSICAL_BOUND[kind] + VIOLATION_ATOL
    full = optimize_operator(rho, kind, opts)
    stopped = optimize_operator(rho, kind, dataclasses.replace(opts, stop_above=cut))
    assert stopped.violated == full.violated == (p > crossing)
    if stopped.violated:
        # a certified lower bound on the maximum, flagged as not the maximum
        assert cut < stopped.value <= full.value
        assert not stopped.converged
        assert operator_value(rho, stopped.scenario, kind) == pytest.approx(
            stopped.value, abs=1e-9
        )
    else:
        assert stopped.value == full.value


def test_unreached_stop_leaves_the_report_unchanged():
    rho = states.mixed_builder(states.Family.RHO4)(0.63)
    default = optimize_operator(rho, BellKind.SVETLICHNY, FAST)
    for stop_above in (None, 1e9):
        opts = dataclasses.replace(FAST, stop_above=stop_above)
        rep = optimize_operator(rho, BellKind.SVETLICHNY, opts)
        for f in dataclasses.fields(ViolationReport):
            got, want = getattr(rep, f.name), getattr(default, f.name)
            if f.name == "scenario":
                got, want = got.angles, want.angles
            assert np.array_equal(got, want), f.name
