import functools
import math
import warnings

import numpy as np
import pytest

from tribell.bell import (
    BellKind,
    bound_b1_b3,
    bound_b2,
    bound_b4,
    bound_b5,
    OptimizeOptions,
    X_STATE_MAXIMUM,
    chsh_pure_max,
    is_real_x_state,
    ns99_x_max,
    operator_value,
    optimize_operator,
    svetlichny_x_max,
    visibility_threshold,
)
from tribell import channels, qalg, states, workflows
from tribell.bell.bounds import NS99_LOCAL_BOUND, NotRealXStateError, ns99_mixed_bound
from tribell.states import Family
from test_acceptance import _ns99_ghz_diagonal_range
from conftest import REAL_X_MIXED


# The separate GGHZ and visibility formulas that bound_b2 and
# visibility_threshold replaced, kept verbatim as references.


def _reference_bound_b2(tau: float) -> float:
    tau = states.check_tau_c12(tau, 0.0)[0]
    if tau <= 1.0 / 3.0:
        return 4.0 * math.sqrt(1.0 - tau)
    return 4.0 * math.sqrt(2.0 * tau)


def _reference_visibility_ns99(tau: float, c12sq: float = 0.0) -> float | None:
    bound = bound_b5(tau, c12sq)
    if bound <= NS99_LOCAL_BOUND + 1e-12:
        return None
    return NS99_LOCAL_BOUND / bound


def _reference_visibility_svetlichny(tau: float, c12sq: float = 0.0) -> float | None:
    tau, c12sq = states.check_tau_c12(tau, c12sq)
    arg = 2.0 * tau + c12sq
    if arg <= 1.0 + 1e-12:
        return None
    return 1.0 / math.sqrt(arg)


def _tau_c12_grid():
    """A 201 x 201 grid of feasible (tau, C12^2) pairs plus, per C12^2, the
    branch points of B4 and B5 and the tau + C12^2 = 1 edge."""
    axis = np.linspace(0.0, 1.0, 201)
    points = [(float(t), float(c)) for c in axis for t in axis if t + c <= 1.0]
    for c in map(float, axis):
        points += [((1.0 - c) / 3.0, c), (c * (1.0 - c) / (1.0 + c), c), (1.0 - c, c)]
    return points


def test_gghz_forms_are_the_c12_zero_cases():
    for tau in map(float, np.linspace(0.0, 1.0, 22001)):
        assert bound_b2(tau) == _reference_bound_b2(tau)
        expected = 1.0 + 2.0 * math.sqrt(1.0 + tau)
        assert abs(bound_b1_b3(tau) - expected) <= math.ulp(expected)


def test_visibility_threshold_matches_reference_formulas():
    references = (
        (BellKind.NS99, _reference_visibility_ns99),
        (BellKind.SVETLICHNY, _reference_visibility_svetlichny),
    )
    verdicts = {None: 0, "threshold": 0}
    for tau, c12 in _tau_c12_grid():
        for kind, reference in references:
            got, want = visibility_threshold(kind, tau, c12), reference(tau, c12)
            assert got == want, (kind, tau, c12, got, want)  # None verdicts included
            verdicts[None if want is None else "threshold"] += 1
    assert min(verdicts.values()) > 1000  # both verdicts are exercised
    with pytest.raises(ValueError):
        visibility_threshold(BellKind.CHSH, 1.0)


def test_bound_b1_values():
    assert bound_b1_b3(0.0) == pytest.approx(3.0)
    assert bound_b1_b3(1.0) == pytest.approx(1 + 2 * np.sqrt(2))
    tau = np.sin(2 * 0.69) ** 2
    assert bound_b1_b3(tau) == pytest.approx(1 + 2 * np.sqrt(1 + tau))


def test_bound_b2_branches():
    assert bound_b2(1.0) == pytest.approx(4 * np.sqrt(2))
    assert bound_b2(0.0) == pytest.approx(4.0)
    third = 1.0 / 3.0
    assert 4 * np.sqrt(1 - third) == pytest.approx(4 * np.sqrt(2 * third))
    assert bound_b2(third) == pytest.approx(4 * np.sqrt(2.0 / 3.0))


def test_bound_b4_cases():
    for tau in (0.1, 0.5, 0.9):
        assert bound_b4(tau, 0.0) == pytest.approx(bound_b2(tau))
    # lam0 = 1/sqrt(2) line: tau = 1 - C12^2, always above the local bound
    for c12 in (0.1, 0.4, 0.7):
        tau = 1 - c12
        assert bound_b4(tau, c12) == pytest.approx(4 * np.sqrt(1 + tau))
        assert bound_b4(tau, c12) > 4.0
    with pytest.raises(ValueError):
        bound_b4(0.6, 0.6)


def test_bound_b5_cases():
    for tau in (0.2, 0.8):
        assert bound_b5(tau, 0.0) == pytest.approx(bound_b1_b3(tau))
    # branch values agree at the threshold tangle
    c12 = 0.4
    thresh = c12 * (1 - c12) / (1 + c12)
    a = 1 + thresh
    c = np.sqrt(c12 * (1 - thresh - c12))
    assert 1 + np.sqrt(a + 2 * c) + np.sqrt(a - 2 * c) == pytest.approx(3.0, abs=1e-12)
    assert bound_b5(thresh * 0.999, c12) == pytest.approx(3.0)
    # MS slice: tau = sin^2(eta), C12^2 = cos^2(eta)
    for eta in (0.3, 0.7):
        tau, c12 = np.sin(eta) ** 2, np.cos(eta) ** 2
        assert bound_b5(tau, c12) == pytest.approx(1 + 2 * np.sqrt(1 + tau), abs=1e-12)


# The paper's published 99th-facet forms of the rank-4..8 families, kept verbatim
# as references for ns99_mixed_bound, which computes the exact X-state maximum.


def _published_rho4(p: float) -> float:
    """(2 sqrt(16p^2-8p+10) + |1-4p|)/3."""
    return (2.0 * math.sqrt(16.0 * p * p - 8.0 * p + 10.0) + abs(1.0 - 4.0 * p)) / 3.0


def _published_rho5(p: float) -> float:
    """(2 sqrt(37p^2-4p+17) + |1-6p|)/5."""
    return (2.0 * math.sqrt(37.0 * p * p - 4.0 * p + 17.0) + abs(1.0 - 6.0 * p)) / 5.0


def _published_table2(family: Family, p: float) -> float:
    """The rank-6/7/8 forms with their published coefficients.

    The rank-6 expression carries the leading factor 2 on its radical, as the
    rank-4/5 ones do. Without it the expression never reaches the local bound
    3, contradicting its own published threshold 0.756458 and the p = 1 limit,
    where the state is locally equivalent to GHZ and reaches 1 + 2 sqrt(2).
    With it the expression is the exact maximum
    (``test_published_forms_track_the_exact_maximum``).
    """
    if family is Family.RHO6:
        radicand = (1.0 + 10.0 * p) ** 2 + (6.0 * (1.0 - p) + abs(3.0 - 14.0 * p)) ** 2
        return (2.0 * math.sqrt(radicand) + abs(12.0 * p - 1.0)) / 11.0
    if family is Family.RHO7:
        b = (1.0 - p) / 2.0 + abs(0.26470 - 1.26470 * p)
        return (
            math.sqrt((-0.11765 + 1.11765 * p) ** 2 + b * b)
            + math.sqrt((0.11765 + 0.8824 * p) ** 2 + b * b)
            + 0.0588
            + 0.9412 * p
        )
    c = 0.4572 * (1.0 - p) + abs(0.2571 - 1.2571 * p)
    return (
        math.sqrt((0.0857 + 0.9143 * p) ** 2 + c * c)
        + math.sqrt((-0.1428 + 1.1429 * p) ** 2 + c * c)
        + 0.0857
        + 0.9142 * p
    )


PUBLISHED_FORMS = {
    Family.RHO4: _published_rho4,
    Family.RHO5: _published_rho5,
    **{fam: functools.partial(_published_table2, fam)
       for fam in (Family.RHO6, Family.RHO7, Family.RHO8)},
}
# Largest |published - exact| over 1001 p in [0, 1]: rho4..rho6 are exact,
# rho7 and rho8 carry 4-5-digit coefficients.
PUBLISHED_DEVIATION = {
    Family.RHO4: 1e-14,
    Family.RHO5: 1e-14,
    Family.RHO6: 1e-14,
    Family.RHO7: 3.6e-5,
    Family.RHO8: 1.2e-4,
}


def _crossing(f, lo=0.6, hi=0.9):
    """Where an increasing-at-the-root f(p) crosses the local bound 3, by bisection."""
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) > 3.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _random_ghz_diagonal(rng):
    """Random weights over the eight |L,i+-> projectors, often led by one of them."""
    weights = rng.dirichlet(np.full(8, 0.3))
    return sum(w * qalg.projector(states.lambda_basis(i, sign))
               for w, (i, sign) in zip(weights, [(i, s) for i in (1, 2, 3, 4) for s in (1, -1)]))


def test_published_forms_track_the_exact_maximum():
    for family, published in PUBLISHED_FORMS.items():
        worst = max(abs(published(float(p)) - ns99_mixed_bound(family, float(p)))
                    for p in np.linspace(0.0, 1.0, 1001))
        assert worst <= PUBLISHED_DEVIATION[family], (family, worst)


def test_exact_roots():
    # where the exact maxima cross the local bound 3
    roots = {Family.RHO4: 0.724745, Family.RHO5: 0.729515, Family.RHO6: 0.756454,
             Family.RHO7: 0.758422, Family.RHO8: 0.762845}
    for family, root in roots.items():
        crossing = _crossing(functools.partial(ns99_mixed_bound, family))
        assert crossing == pytest.approx(root, abs=1e-6), family


def test_bound_rho4_values():
    assert _published_rho4(1.0) == pytest.approx(2 * np.sqrt(2) + 1)
    assert _published_rho4(0.726) == pytest.approx(3.0035, abs=5e-4)
    # analytic crossing of the local bound: 4p^2 + 4p - 5 = 0
    p_star = (-1 + np.sqrt(6)) / 2
    assert _published_rho4(p_star) == pytest.approx(3.0, abs=1e-12)
    assert ns99_mixed_bound(Family.RHO4, p_star) == pytest.approx(3.0, abs=1e-12)


def test_bound_rho5_values():
    assert _published_rho5(0.729157) == pytest.approx(3.0, abs=2e-3)
    assert _published_rho5(1.0) == pytest.approx((2 * np.sqrt(50) + 5) / 5)


def test_bound_table2_values():
    assert _published_table2(Family.RHO6, 0.756458) == pytest.approx(3.0, abs=1e-3)
    # at p=1 each family is locally equivalent to GHZ
    for fam in REAL_X_MIXED:
        assert PUBLISHED_FORMS[fam](1.0) == pytest.approx(1 + 2 * np.sqrt(2), abs=1e-4)
        assert ns99_mixed_bound(fam, 1.0) == pytest.approx(1 + 2 * np.sqrt(2), abs=1e-14)


def test_bound_table2_local_bound_crossings():
    # where each rank-6/7/8 expression itself crosses the local bound 3;
    # frozen from a bisection of the expressions (the rho8 published
    # threshold 0.75843 does not satisfy its own expression, which equals
    # 2.9846 there; the optimizer confirms the expression, not the number)
    assert _crossing(PUBLISHED_FORMS[Family.RHO6]) == pytest.approx(0.756454, abs=1e-5)
    assert _crossing(PUBLISHED_FORMS[Family.RHO7]) == pytest.approx(0.758415, abs=1e-5)
    assert _crossing(PUBLISHED_FORMS[Family.RHO8]) == pytest.approx(0.762841, abs=1e-5)
    assert _published_table2(Family.RHO8, 0.75843) == pytest.approx(2.98463, abs=1e-4)


def test_ns99_mixed_bound_dispatch():
    for family in REAL_X_MIXED:
        rho = states.mixed_builder(family)(0.5)
        assert ns99_mixed_bound(family, 0.5) == ns99_x_max(rho).value
        assert workflows.maximum(rho, BellKind.SVETLICHNY).value == svetlichny_x_max(rho).value
    with pytest.raises(NotRealXStateError, match="not a real X state"):
        ns99_mixed_bound(Family.RHO2, 0.5)
    with pytest.raises(ValueError, match="not a real X state"):
        svetlichny_x_max(states.mixed_builder(Family.RHO3, 3)(0.5))


def test_ghz_diagonal_max_meets_the_see_saw():
    rng = np.random.default_rng(16)
    opts = OptimizeOptions(restarts=64, seed=1)
    for _ in range(24):
        rho = _random_ghz_diagonal(rng)
        exact = ns99_x_max(rho).value
        found = optimize_operator(rho, BellKind.NS99, opts).value
        assert abs(found - exact) <= 1e-9, (found, exact)
        assert found <= exact + 1e-12, (found, exact)


def test_ghz_diagonal_max_inside_the_grid_bracket():
    for p in (0.6, 0.76043, 0.762845, 0.9):
        rho = states.mixed_builder(Family.RHO8)(p)
        attained, upper = _ns99_ghz_diagonal_range(rho)
        assert attained <= ns99_x_max(rho).value <= upper, p


def test_ghz_diagonal_max_rejects_other_states():
    # rho2 carries W's coherences off the anti-diagonal; GHZ with an imaginary
    # coherence is an X state, but not a real one
    complex_ghz = qalg.projector(np.array([1, 0, 0, 0, 0, 0, 0, 1j]) / math.sqrt(2))
    for rho in (states.mixed_builder(Family.RHO2)(0.5), complex_ghz,
                qalg.projector(states.ms(0.4))):
        assert not is_real_x_state(rho)
        for exact in X_STATE_MAXIMUM.values():
            with pytest.raises(ValueError, match="not a real X state"):
                exact(rho)


def test_x_mixed_families_are_the_real_x_families():
    # a family is affine in p, so it is a real X state at every weight iff at both ends
    for family in states.MIXED_FAMILIES:
        build = states.mixed_builder(family, 3)
        real_x = is_real_x_state(build(0.0)) and is_real_x_state(build(1.0))
        assert real_x == (family in REAL_X_MIXED), family
        assert all(is_real_x_state(build(p)) == real_x for p in (0.3, 0.7625))


def _random_real_x(rng, zzz_heavy=False):
    """Dirichlet weights on the eight basis states, each anti-diagonal coherence a
    uniform fraction of its positivity limit sqrt(w_i w_(7-i)). ``zzz_heavy``
    puts most weight on even-parity states, so |T_zzz| is large."""
    weights = rng.dirichlet(np.full(8, 0.5))
    if zzz_heavy:
        weights *= [1.0, 0.1, 0.1, 1.0, 0.1, 1.0, 1.0, 0.1]
        weights /= weights.sum()
    rho = np.diag(weights).astype(complex)
    for i in range(4):
        rho[i, 7 - i] = rho[7 - i, i] = rng.uniform(-1.0, 1.0) * math.sqrt(weights[i] * weights[7 - i])
    return rho


def test_x_state_maxima_meet_the_see_saw():
    # every branch of both formulas is drawn: in-plane M(a, d, b, +-g) and
    # |T_zzz| for Svetlichny, the in-plane and all-z branches for the facet
    rng = np.random.default_rng(21)
    opts = OptimizeOptions(restarts=128, seed=1)
    for i in range(24):
        rho = _random_real_x(rng, zzz_heavy=i % 3 == 0)
        assert is_real_x_state(rho)
        for kind, exact in X_STATE_MAXIMUM.items():
            value = exact(rho).value
            found = optimize_operator(rho, kind, opts).value
            assert found <= value + 1e-12, (i, kind, found, value)
            assert value - found <= 1e-8, (i, kind, found, value)


def test_x_state_settings_attain_the_value():
    rng = np.random.default_rng(22)
    for i in range(200):
        rho = _random_real_x(rng, zzz_heavy=i % 2 == 0)
        for kind, exact in X_STATE_MAXIMUM.items():
            value, scenario = exact(rho)
            assert abs(operator_value(rho, scenario, kind) - value) <= 1e-12, (i, kind)


def test_in_plane_block_depends_on_n_z_and_the_x_y_split():
    # step 3 of the Svetlichny proof: for unit v in C^2 with Bloch vector n,
    # |Q(v)|_F^2 depends on n_z alone and 4 |det Q(v)|^2 is affine in n_x^2 - n_y^2
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, d, b, g = rng.normal(size=4)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        q = np.array([[a * v[0], b * v[1]], [g * v[1], d * v[0]]])
        cross = np.conj(v[0]) * v[1]
        nx, ny, nz = 2 * cross.real, 2 * cross.imag, abs(v[0]) ** 2 - abs(v[1]) ** 2
        frob = ((a * a + d * d) * (1 + nz) + (b * b + g * g) * (1 - nz)) / 2
        det4 = (a * d * (1 + nz)) ** 2 + (b * g * (1 - nz)) ** 2 - 2 * a * b * d * g * (nx * nx - ny * ny)
        assert np.sum(np.abs(q) ** 2) == pytest.approx(frob, abs=1e-12)
        assert 4 * abs(np.linalg.det(q)) ** 2 == pytest.approx(det4, abs=1e-12)


def test_gghz_exact_maxima_are_b1_and_b2():
    # Ghose et al.'s GGHZ Svetlichny maximum B2, and B1/B3, are cases of the X-state forms
    for eta in np.linspace(0.0, math.pi / 4, 9):
        rho = qalg.projector(states.gghz(float(eta)))
        tau = math.sin(2 * eta) ** 2
        assert svetlichny_x_max(rho).value == pytest.approx(bound_b2(tau), abs=1e-12)
        assert ns99_x_max(rho).value == pytest.approx(bound_b1_b3(tau), abs=1e-12)


CHANNEL_CASES = [
    (channels.ChannelKind.DEPOLARIZE, 0.69, (0.8, 0.7, 0.6)),
    (channels.ChannelKind.DEPOLARIZE, 0.4, (0.1, 0.3, 0.05)),
    (channels.ChannelKind.AMPLITUDE_DAMP, math.atan2(0.099, 0.995), (0.1, 0.08, 0.09)),
    (channels.ChannelKind.AMPLITUDE_DAMP, 0.6, (0.3, 0.1, 0.5)),
]


@pytest.mark.parametrize("kind, eta, strengths", CHANNEL_CASES)
def test_noisy_gghz_is_a_real_x_state_in_both_models(kind, eta, strengths):
    spec = channels.ChannelSpec(kind, strengths)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", channels.HermitizedClosedFormWarning)
        models = (channels.apply_channel_spec(qalg.projector(states.gghz(eta)), spec),
                  workflows._CLOSED_FORMS[kind](eta, *strengths))
    opts = OptimizeOptions(restarts=128, seed=1)
    for rho in models:
        assert is_real_x_state(rho)
        for operator, exact in X_STATE_MAXIMUM.items():
            value, scenario = exact(rho)
            assert abs(operator_value(rho, scenario, operator) - value) <= 1e-12
            found = optimize_operator(rho, operator, opts).value
            assert found <= value + 1e-12 and value - found <= 1e-8, (operator, found, value)


def test_chsh_pure_max():
    assert chsh_pure_max(0.0) == pytest.approx(2.0)
    assert chsh_pure_max(1.0) == pytest.approx(2 * np.sqrt(2))


def test_visibility_thresholds():
    ns99, svetlichny = BellKind.NS99, BellKind.SVETLICHNY
    assert visibility_threshold(ns99, 1.0) == pytest.approx(3 / (1 + 2 * np.sqrt(2)))
    assert visibility_threshold(ns99, 1.0) == pytest.approx(0.78361, abs=1e-5)
    assert visibility_threshold(svetlichny, 1.0) == pytest.approx(1 / np.sqrt(2))
    assert visibility_threshold(ns99, 0.0) is None
    # 1/sqrt(0.2) > 1: no threshold below 1
    assert visibility_threshold(svetlichny, 0.1) is None
    assert visibility_threshold(svetlichny, 0.5) is None  # exactly at the bound
    assert visibility_threshold(svetlichny, 0.6) == pytest.approx(1 / np.sqrt(1.2))


def test_bound_domain_guards():
    for fn in (bound_b1_b3, bound_b2):
        with pytest.raises(ValueError):
            fn(1.5)
    with pytest.raises(ValueError, match="mixing weight must lie in"):
        ns99_mixed_bound(Family.RHO4, -0.1)
    with pytest.raises(ValueError):
        chsh_pure_max(2.0)
