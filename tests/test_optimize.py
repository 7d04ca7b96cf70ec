import dataclasses
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
    optimize_operator,
)
from tribell.bell.operators import (
    VIOLATION_ATOL,
    _fused_coefficient_tensor,
    augmented_vectors,
    make_batched_value,
)
from tribell.bell.optimize import (
    ViolationReport,
    _angles,
    _initial_points,
    _pair_matrices,
    _tangent_system,
)

FAST = OptimizeOptions(restarts=16, seed=1)


def test_ns99_maximum_on_ghz():
    rep = optimize_operator(qalg.projector(states.gghz(np.pi / 4)), BellKind.NS99, FAST)
    assert rep.value == pytest.approx(1 + 2 * np.sqrt(2), abs=1e-4)
    assert rep.violated and rep.converged
    assert rep.classical_bound == 3.0


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


def test_flat_maximum_is_polished_to_a_strict_local_maximum():
    # below p = 5/8 the all-x setting gives exactly 4 and is a strict, nearly
    # flat maximum; the linear see-saw alone stops about 1e-10 short of it
    rho = states.mixed_builder(states.Family.RHO4)(0.6249)
    rep = optimize_operator(rho, BellKind.SVETLICHNY, OptimizeOptions(restarts=128, seed=1))
    assert rep.value == pytest.approx(4.0, abs=1e-12)
    assert rep.hessian_max < 0.0
    assert rep.capped == 0


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


def test_initial_points_cache_is_bit_identical_and_read_only():
    for key in ((64, 12, 1), (12, 12, 99), (16, 8, 7)):
        cached = _initial_points(*key)
        assert _initial_points(*key) is cached
        assert np.array_equal(cached, _initial_points.__wrapped__(*key))
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0


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
    assert rep.classical_bound == 2.0
    assert rep.scenario.n_parties == 2


def test_single_restart_is_converged_flagged():
    rep = optimize_operator(
        qalg.projector(states.ghz_state()), BellKind.NS99, OptimizeOptions(restarts=1)
    )
    assert rep.converged
    assert rep.restarts_used == 1


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizeOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizeOptions(max_iter=0)


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
