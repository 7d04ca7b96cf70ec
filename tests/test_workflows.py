import math
import warnings

import numpy as np
import pytest

from tribell import channels, entangle, qalg, states, workflows
from tribell.bell import (
    CLASSICAL_BOUND,
    X_STATE_MAXIMUM,
    BellKind,
    OptimizeOptions,
    bound_b4,
    operator_value,
    optimize_operator,
    visibility_threshold,
)
from tribell.bell import operators as bell_operators
from tribell.states import Family
from tribell.workflows import SweepSpec, ThresholdQuery
from conftest import REAL_X_MIXED, random_density_matrix


def _refuse_see_saw(*args, **kwargs):
    raise AssertionError("the see-saw ran")


# Real X states: GGHZ, rho4..rho8 at any weight, and rho2 and rho3 at p = 1 (GHZ).
REAL_X_STATES = {
    "gghz-0.3": lambda: qalg.projector(states.gghz(0.3)),
    "gghz-pi/4": lambda: qalg.projector(states.gghz(math.pi / 4)),
    **{f"{f.value}-0.7": (lambda f=f: states.mixed_builder(f)(0.7)) for f in REAL_X_MIXED},
    "rho2-1": lambda: states.mixed_builder(Family.RHO2)(1.0),
    "rho3-k3-1": lambda: states.mixed_builder(Family.RHO3, 3)(1.0),
}
# States that are not real X states: W admixtures, MS, and a random mixed state.
OTHER_STATES = {
    "rho2-0.8": lambda: states.mixed_builder(Family.RHO2)(0.8),
    "rho3-k3-0.85": lambda: states.mixed_builder(Family.RHO3, 3)(0.85),
    "ms-0.69": lambda: qalg.projector(states.ms(0.69)),
    "random": lambda: random_density_matrix(np.random.default_rng(11), rank=3),
}
THREE_PARTY = (BellKind.NS99, BellKind.SVETLICHNY)


@pytest.mark.parametrize("kind", THREE_PARTY, ids=lambda k: k.value)
@pytest.mark.parametrize("state", REAL_X_STATES)
def test_maximum_is_exact_on_real_x_states(monkeypatch, state, kind):
    monkeypatch.setattr(workflows, "optimize_operator", _refuse_see_saw)
    rho = REAL_X_STATES[state]()
    result = workflows.maximum(rho, kind, OptimizeOptions(restarts=8, seed=3))
    exact = X_STATE_MAXIMUM[kind](rho)
    assert result.value == exact.value
    assert np.array_equal(result.scenario.angles, exact.scenario.angles)
    assert abs(operator_value(rho, result.scenario, kind) - result.value) <= 1e-9


@pytest.mark.parametrize("kind", THREE_PARTY, ids=lambda k: k.value)
def test_maximum_expands_the_pauli_tensor_once_on_the_exact_route(monkeypatch, kind):
    # the X-state test and the exact maximum read one tensor
    calls = []
    expand = qalg.pauli_tensor
    monkeypatch.setattr(qalg, "pauli_tensor", lambda rho, n: calls.append(n) or expand(rho, n))
    workflows.maximum(states.mixed_builder(Family.RHO8)(0.76), kind)
    assert calls == [3]


@pytest.mark.parametrize("stop_above", [None, 3.2], ids=["full", "stop"])
@pytest.mark.parametrize("kind", THREE_PARTY, ids=lambda k: k.value)
@pytest.mark.parametrize("state", OTHER_STATES)
def test_maximum_runs_the_see_saw_elsewhere(monkeypatch, state, kind, stop_above):
    seen = []

    def recording(rho, operator, opts):
        seen.append((operator, opts))
        return optimize_operator(rho, operator, opts)

    monkeypatch.setattr(workflows, "optimize_operator", recording)
    rho = OTHER_STATES[state]()
    opts = OptimizeOptions(restarts=8, seed=5, stop_above=stop_above)
    result = workflows.maximum(rho, kind, opts)
    direct = optimize_operator(rho, kind, opts)
    assert seen == [(kind, opts)]
    assert result.value == direct.value
    assert np.array_equal(result.restart_values, direct.restart_values)
    assert np.array_equal(result.scenario.angles, direct.scenario.angles)
    assert abs(operator_value(rho, result.scenario, kind) - result.value) <= 1e-9


def test_maximum_of_chsh_runs_the_see_saw(monkeypatch):
    # CHSH has no exact form here, even on a Bell state, which is a real X state
    seen = []

    def recording(rho, operator, opts):
        seen.append(operator)
        return optimize_operator(rho, operator, opts)

    monkeypatch.setattr(workflows, "optimize_operator", recording)
    rho = qalg.projector(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    result = workflows.maximum(rho, "chsh", OptimizeOptions(restarts=8, seed=1))
    assert seen == [BellKind.CHSH]
    assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert abs(operator_value(rho, result.scenario, BellKind.CHSH) - result.value) <= 1e-9


def test_threshold_rho4_matches_analytic_crossing():
    # closed-form bound crosses 3 at p = (sqrt(6) - 1)/2
    query = ThresholdQuery(
        family=Family.RHO4,
        operator=BellKind.NS99,
        bracket=(0.6, 0.9),
        tol=5e-4,
    )
    result = workflows.threshold_bisect(query)
    assert result.p_star == pytest.approx((math.sqrt(6) - 1) / 2, abs=1e-3)


def test_threshold_no_crossing_raises():
    query = ThresholdQuery(
        family=Family.RHO4,
        operator=BellKind.NS99,
        bracket=(0.9, 0.99),
        tol=1e-3,
    )
    with pytest.raises(workflows.NoCrossingError):
        workflows.threshold_bisect(query)


# Every cell of both tables at their settings (tol 2.5e-4, seed 1, 64 restarts).
# Each root is a bisection midpoint, dyadic up to the rounding of its sum, so
# the recomputed value must repeat exactly.
TABLE_ROOTS = (
    (Family.RHO2, None, BellKind.NS99, 0.8118041992187501),
    (Family.RHO2, None, BellKind.SVETLICHNY, 0.70721435546875),
    (Family.RHO3, 2, BellKind.NS99, 0.81971435546875),
    (Family.RHO3, 2, BellKind.SVETLICHNY, 0.70721435546875),
    (Family.RHO3, 3, BellKind.NS99, 0.8188354492187502),
    (Family.RHO3, 3, BellKind.SVETLICHNY, 0.70721435546875),
    (Family.RHO3, 10, BellKind.NS99, 0.81488037109375),
    (Family.RHO3, 10, BellKind.SVETLICHNY, 0.70721435546875),
    (Family.RHO4, None, BellKind.NS99, 0.72479248046875),
    (Family.RHO4, None, BellKind.SVETLICHNY, 0.6250366210937501),
    (Family.RHO5, None, BellKind.NS99, 0.7294067382812499),
    (Family.RHO5, None, BellKind.SVETLICHNY, 0.71094970703125),
    (Family.RHO6, None, BellKind.NS99, 0.7564331054687501),
    (Family.RHO6, None, BellKind.SVETLICHNY, 0.7652221679687501),
    (Family.RHO7, None, BellKind.NS99, 0.75841064453125),
    (Family.RHO7, None, BellKind.SVETLICHNY, 0.76434326171875),
    (Family.RHO8, None, BellKind.NS99, 0.76280517578125),
    (Family.RHO8, None, BellKind.SVETLICHNY, 0.76368408203125),
)


@pytest.mark.parametrize(
    "family, k, operator, p_star",
    [
        pytest.param(
            family, k, operator, p_star,
            id=f"{family.value}{'' if k is None else f'-k{k}'}-{operator.value}-{p_star}",
        )
        for family, k, operator, p_star in TABLE_ROOTS
    ],
)
def test_threshold_pinned_at_table_settings(family, k, operator, p_star):
    query = ThresholdQuery(family=family, operator=operator, k=k, tol=2.5e-4, seed=1, restarts=64)
    result = workflows.threshold_bisect(query)
    assert result.p_star == p_star
    # two bracket ends and eleven halvings of the width 0.45 down to 2.5e-4
    assert result.evaluations == 13
    bound = CLASSICAL_BOUND[operator]
    assert result.value_lo <= bound + 1e-9 < result.value_hi


def test_every_threshold_probe_runs_the_query_restarts_and_seed(monkeypatch):
    seen = []

    def recording(rho, operator, opts):
        seen.append(opts)
        return optimize_operator(rho, operator, opts)

    monkeypatch.setattr(workflows, "optimize_operator", recording)
    query = ThresholdQuery(
        family=Family.RHO2, operator=BellKind.SVETLICHNY, tol=workflows.TABLE_TOL, seed=3
    )
    result = workflows.threshold_bisect(query)
    # the end p = 1 is GHZ, a real X state, so its probe is exact
    assert result.evaluations == 13 and len(seen) == 12
    assert [(o.restarts, o.seed) for o in seen] == [(query.restarts, query.seed)] * 12
    assert result.value_hi == pytest.approx(4 * math.sqrt(2), abs=1e-12)


# Both operators on rho4..rho8; the ns99 cells keep their family name as id.
EXACT_ROOTS = [
    (family, operator, p_star) for family, _, operator, p_star in TABLE_ROOTS
    if family in REAL_X_MIXED
]
EXACT_IDS = [
    family.value if operator is BellKind.NS99 else f"{family.value}-{operator.value}"
    for family, operator, _ in EXACT_ROOTS
]


@pytest.mark.parametrize("family, operator, p_star", EXACT_ROOTS, ids=EXACT_IDS)
def test_exact_threshold_is_confirmed_by_the_optimizer(family, operator, p_star):
    # an independent check of the exact probes: the see-saw verdict flips across p*
    build = workflows.mixed_builder(family)
    half = 0.5 * workflows.TABLE_TOL
    below = optimize_operator(build(p_star - half), operator)
    above = optimize_operator(build(p_star + half), operator)
    assert (below.violated, above.violated) == (False, True)


@pytest.mark.parametrize(
    "family, operator", [cell[:2] for cell in EXACT_ROOTS], ids=EXACT_IDS
)
def test_exact_threshold_runs_no_optimizer(monkeypatch, family, operator):
    def refuse(*args):
        raise AssertionError("an exact query ran the optimizer")

    monkeypatch.setattr(workflows, "optimize_operator", refuse)
    query = ThresholdQuery(family=family, operator=operator, tol=workflows.TABLE_TOL)
    assert query.exact
    assert workflows.threshold_bisect(query).evaluations == 13


# Every mixed family (rho3 at three k) and a bracket that ends at GHZ, one inside
# (0, 1) and one that is real X at both ends only to X_STATE_ATOL.
MIXED_CASES = [(f, None) for f in states.MIXED_FAMILIES if f is not Family.RHO3]
MIXED_CASES += [(Family.RHO3, k) for k in (1, 2, 10)]


@pytest.mark.parametrize("bracket", [(0.55, 1.0), (0.6, 0.9), (1.0 - 1e-13, 1.0)], ids=str)
@pytest.mark.parametrize(
    "family, k", MIXED_CASES, ids=[f.value + (f"-k{k}" if k else "") for f, k in MIXED_CASES]
)
def test_exact_is_asked_of_the_states_the_query_probes(monkeypatch, family, k, bracket):
    calls = []

    def counting(rho, operator, opts):
        calls.append(operator)
        return optimize_operator(rho, operator, opts)

    monkeypatch.setattr(workflows, "optimize_operator", counting)
    for operator in (BellKind.NS99, BellKind.SVETLICHNY):
        calls.clear()
        query = ThresholdQuery(family, operator, k, bracket=bracket, tol=1e-3)
        try:
            workflows.threshold_bisect(query)
        except workflows.NoCrossingError:
            pass  # the calls made before it still count
        assert query.exact == (not calls), (operator, len(calls))
        # a sweep over the same range offers the exact bounds iff every probe is exact
        try:
            SweepSpec(family, *bracket, 2, ("ns_bound", "svet_bound"), k=k)
            offered = True
        except ValueError as exc:
            assert "not available" in str(exc)
            offered = False
        assert offered == query.exact, operator
    # rho4..rho8 are real X states at every weight; rho2 and rho3 only near p = 1
    assert query.exact == (family in REAL_X_MIXED or bracket[0] > 1.0 - 1e-12)


@pytest.mark.parametrize("operator", [BellKind.NS99, BellKind.SVETLICHNY])
@pytest.mark.parametrize("family", [Family.RHO2, Family.RHO4, Family.RHO8])
def test_optimized_value_is_convex_in_the_weight(family, operator):
    # the premise of threshold_bisect: v(p) is a maximum of affine functions
    build = workflows.mixed_builder(family)
    rng = np.random.default_rng(7)
    for a, b in np.sort(rng.uniform(0.0, 1.0, size=(3, 2)), axis=1):
        va, vm, vb = (
            optimize_operator(build(float(p)), operator).value for p in (a, 0.5 * (a + b), b)
        )
        assert vm <= 0.5 * (va + vb) + 1e-7


def test_threshold_query_validation():
    with pytest.raises(ValueError):
        ThresholdQuery(family=Family.RHO2, operator=BellKind.NS99, bracket=(0.9, 0.2))
    with pytest.raises(ValueError):
        ThresholdQuery(family=Family.RHO2, operator=BellKind.NS99, tol=1e-9)
    with pytest.raises(ValueError):
        workflows.mixed_builder(Family.RHO3)  # k missing
    with pytest.raises(ValueError, match="rho2 does not take k"):
        ThresholdQuery(family=Family.RHO2, operator=BellKind.NS99, k=7)
    with pytest.raises(ValueError, match="three-party operator, got chsh"):
        ThresholdQuery(family=Family.RHO2, operator=BellKind.CHSH)
    ThresholdQuery(family=Family.RHO3, operator=BellKind.NS99, k=7)


def test_every_verdict_reads_the_one_violation_cut(monkeypatch):
    # GHZ reaches 1 + 2 sqrt(2) = 3.828 on the facet: below a cut moved to 3.9
    monkeypatch.setitem(bell_operators.VIOLATION_CUT, BellKind.NS99, 3.9)
    ghz = qalg.projector(states.ghz_state())
    opts = OptimizeOptions(restarts=8, seed=1)
    assert not optimize_operator(ghz, BellKind.NS99, opts).violated
    (verdict,) = workflows.channel_verdicts({"kraus": ghz}, opts)
    assert not verdict.ns99_violated and verdict.svetlichny_violated
    assert visibility_threshold(BellKind.NS99, 1.0) is None
    with pytest.raises(workflows.NoCrossingError):
        workflows.threshold_bisect(ThresholdQuery(Family.RHO8, BellKind.NS99, tol=1e-3))


def test_sweep_gghz_formula_columns():
    spec = SweepSpec(
        family=Family.GGHZ,
        start=0.0,
        stop=math.pi / 4,
        steps=6,
        columns=("tau", "ns_bound", "svet_bound", "delta_d", "visibility_ns", "visibility_svet"),
    )
    header, rows = workflows.run_sweep(spec)
    assert header[0] == "eta"
    xs = [r[0] for r in rows]
    assert xs == sorted(xs) and len(xs) == 6
    for row in rows:
        assert all(math.isfinite(v) for v in row)
    # last row is the GHZ point
    assert rows[-1][header.index("ns_bound")] == pytest.approx(1 + 2 * math.sqrt(2))
    assert rows[-1][header.index("visibility_svet")] == pytest.approx(1 / math.sqrt(2))


def test_sweep_ms_matches_gghz_bound_in_tau():
    # the two families share the bound 1 + 2 sqrt(1 + tau)
    ms = SweepSpec(
        family=Family.MS, start=0.1, stop=0.7, steps=4, columns=("tau", "ns_bound")
    )
    _, rows = workflows.run_sweep(ms)
    for row in rows:
        tau, bound = row[1], row[2]
        assert bound == pytest.approx(1 + 2 * math.sqrt(1 + tau), abs=1e-12)


def test_sweep_offers_both_exact_bounds_on_the_x_state_families():
    spec = SweepSpec(Family.RHO4, 0.6, 0.9, 4, ("ns_bound", "svet_bound", "svet_opt"))
    _, rows = workflows.run_sweep(spec)
    build = workflows.mixed_builder(Family.RHO4)
    for p, ns_bound, svet_bound, svet_opt in rows:
        assert ns_bound == X_STATE_MAXIMUM[BellKind.NS99](build(p)).value
        assert svet_bound == X_STATE_MAXIMUM[BellKind.SVETLICHNY](build(p)).value
        assert svet_opt <= svet_bound + 1e-12 and svet_bound - svet_opt <= 1e-8
    with pytest.raises(ValueError, match="not available"):
        SweepSpec(Family.RHO2, 0.6, 0.9, 2, ("svet_bound",))


def test_channel_verdicts_optimize_only_states_that_are_not_real_x(monkeypatch):
    seen = []

    def recording(rho, operator, opts):
        seen.append(operator)
        return optimize_operator(rho, operator, opts)

    monkeypatch.setattr(workflows, "optimize_operator", recording)
    spec = channels.ChannelSpec(channels.ChannelKind.DEPOLARIZE, (0.8, 0.7, 0.6))
    opts = OptimizeOptions(restarts=8, seed=1)
    noisy = workflows.channel_states(qalg.projector(states.gghz(0.69)), spec, 0.69)
    gghz = workflows.channel_verdicts(noisy, opts)
    assert seen == []
    kraus, closed = (channels.apply_channel_spec(qalg.projector(states.gghz(0.69)), spec),
                     channels.closed_form_depolarized_gghz(0.69, *spec.strengths))
    assert list(noisy) == ["kraus", "closed_form"]
    assert np.array_equal(noisy["kraus"], kraus) and np.array_equal(noisy["closed_form"], closed)
    for verdict, model, rho in zip(gghz, noisy, (kraus, closed)):
        ns, sv = (X_STATE_MAXIMUM[kind](rho).value for kind in (BellKind.NS99, BellKind.SVETLICHNY))
        assert verdict.model == model
        assert (verdict.ns99_value, verdict.svetlichny_value) == (ns, sv)
        assert verdict.ns99_violated == (ns > 3.0 + 1e-9)
        assert verdict.svetlichny_violated == (sv > 4.0 + 1e-9)
    (ms,) = workflows.channel_verdicts(
        workflows.channel_states(qalg.projector(states.ms(0.69)), spec), opts
    )
    assert seen == [BellKind.NS99, BellKind.SVETLICHNY]
    assert ms.model == "kraus"


def test_sweep_optimizer_columns():
    spec = SweepSpec(
        family=Family.RHO4,
        start=0.7,
        stop=0.8,
        steps=3,
        columns=("ns_bound", "ns_opt"),
        restarts=16,
    )
    header, rows = workflows.run_sweep(spec)
    for row in rows:
        assert row[1] == pytest.approx(row[2], abs=2e-3)


def test_sweep_ext_s_optimizer_columns_meet_the_closed_forms():
    # B5 and B4 are the subclass-S maxima; 2e-3 is the tolerance of A03
    columns = ("ns_bound", "ns_opt", "svet_bound", "svet_opt")
    spec = SweepSpec(
        family=Family.EXT_S, start=0.3, stop=0.7, steps=3, columns=columns,
        c12sq=0.3,
    )
    header, rows = workflows.run_sweep(spec)
    assert header == ["tau", *columns]
    for _, ns_bound, ns_opt, svet_bound, svet_opt in rows:
        assert ns_opt == pytest.approx(ns_bound, abs=2e-3)
        assert svet_opt == pytest.approx(svet_bound, abs=2e-3)


def test_sweep_validation():
    with pytest.raises(ValueError):
        SweepSpec(family=Family.GGHZ, start=0.0, stop=0.5, steps=1, columns=("tau",))
    # the swept parameter is the family's, not an input
    assert SweepSpec(Family.MS, 0.1, 0.5, 2, ("tau",)).param == "eta"
    assert SweepSpec(Family.EXT_S, 0.1, 0.5, 2, ("c12sq",), c12sq=0.3).param == "tau"
    assert SweepSpec(Family.RHO6, 0.6, 0.9, 2, ("ns_bound",)).param == "p"
    with pytest.raises(ValueError):
        SweepSpec(family=Family.GGHZ, start=0.0, stop=0.5, steps=3, columns=("bogus",))
    with pytest.raises(ValueError):
        SweepSpec(family=Family.EXT_S, start=0.0, stop=0.5, steps=3, columns=("tau",))
    with pytest.raises(ValueError, match="gghz does not take c12sq"):
        SweepSpec(family=Family.GGHZ, start=0.0, stop=0.5, steps=3, columns=("tau",),
                  c12sq=0.3)
    with pytest.raises(ValueError, match="rho2 does not take k"):
        SweepSpec(family=Family.RHO2, start=0.1, stop=0.9, steps=2, columns=("ns_opt",),
                  k=3)
    # delta_d unavailable for mixed families, ns_bound for rho2/rho3: rejected before any point
    for family, column in ((Family.RHO2, "delta_d"), (Family.RHO3, "ns_bound")):
        with pytest.raises(ValueError, match=f"not available for family {family.value}"):
            SweepSpec(family=family, start=0.1, stop=0.9, steps=2, columns=(column,),
                      k=2 if family is Family.RHO3 else None)


def test_sweep_header_names_each_column_once():
    # tau is the swept parameter of ext_s and leads each row, so it is no column there
    with pytest.raises(ValueError, match=r"columns \['tau'\] are not available for family ext_s"):
        SweepSpec(Family.EXT_S, 0.1, 0.5, 2, ("tau", "c12sq"), c12sq=0.3)
    header, _ = workflows.run_sweep(SweepSpec(Family.EXT_S, 0.1, 0.5, 2, ("c12sq",), c12sq=0.3))
    assert header == ["tau", "c12sq"]
    for family in (Family.GGHZ, Family.MS):
        header, _ = workflows.run_sweep(SweepSpec(family, 0.1, 0.5, 2, ("tau", "c12sq")))
        assert header == ["eta", "tau", "c12sq"]


def test_sweep_delta_d_of_gghz_is_the_subclass_s_form():
    # one delta_D line for every pure family: gghz and ext_s at C12^2 = 0 print the same
    gghz = SweepSpec(Family.GGHZ, 5e-7, 5e-6, 3, ("tau", "delta_d"))
    ext_s = SweepSpec(Family.EXT_S, 1e-12, 1e-10, 3, ("delta_d",), c12sq=0.0)
    _, rows = workflows.run_sweep(gghz)
    for eta, tau, delta_d in rows:
        assert delta_d == entangle.delta_d_subclass_s(tau)
        assert delta_d == pytest.approx(entangle.delta_d_gghz(eta), rel=1e-12, abs=0.0)
    _, rows = workflows.run_sweep(ext_s)
    assert rows[0][1] == pytest.approx(entangle.delta_d_gghz(5e-7), rel=1e-12, abs=0.0)


# One end of each range lies outside the family's range. A sweep that checked each
# point as it came would run the see-saw at every point before that end (68 runs
# over 40 steps for gghz [0.1, 0.9]).
OUT_OF_RANGE_SWEEPS = [
    (Family.GGHZ, 0.1, 0.9, {}, 0.9),
    (Family.GGHZ, -0.1, 0.5, {}, -0.1),
    (Family.MS, 0.1, 1.7, {}, 1.7),
    (Family.EXT_S, 0.01, 0.9, {"c12sq": 0.3}, 0.9),
    (Family.RHO2, 0.5, 1.5, {}, 1.5),
    (Family.RHO3, 0.5, 1.5, {"k": 3}, 1.5),
    (Family.RHO6, -0.5, 0.9, {}, -0.5),
]


@pytest.mark.parametrize("family, start, stop, given, end", OUT_OF_RANGE_SWEEPS,
                         ids=[f"{f.value}-{end}" for f, *_, end in OUT_OF_RANGE_SWEEPS])
def test_sweep_checks_both_ends_before_any_see_saw(monkeypatch, family, start, stop, given,
                                                    end):
    calls = []
    monkeypatch.setattr(workflows, "optimize_operator", lambda *args: calls.append(args))
    with pytest.raises(ValueError) as exc:
        SweepSpec(family, start, stop, 40, ("ns_opt", "svet_opt"), **given)
    assert str(end) in str(exc.value)
    assert calls == []


def test_sweep_builds_gghz_and_ms_from_their_pair():
    for family, top in ((Family.GGHZ, math.pi / 4), (Family.MS, math.pi / 2)):
        spec = SweepSpec(family, 0.0, top, 2, ("tau",))
        for eta in np.linspace(0.0, top, 33):
            pair, rho = spec._point(float(eta))
            assert pair == states.tau_c12sq(family, eta=float(eta))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # ms warns above pi/4
                psi = (states.gghz if family is Family.GGHZ else states.ms)(float(eta))
            assert np.max(np.abs(rho - qalg.projector(psi))) <= 1e-15, (family, eta)


def test_ms_sweep_above_pi_over_4_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, rows = workflows.run_sweep(SweepSpec(Family.MS, 0.7, 1.5, 3, ("tau", "ns_opt"),
                                                restarts=4))
    assert [row[0] for row in rows] == [0.7, 1.1, 1.5]


def test_sweep_csv_formatting():
    text = workflows.sweep_csv(["a", "b"], [[0.5, 1.23456789012345]])
    lines = text.splitlines()
    assert lines[0] == "a,b"
    assert lines[1].startswith("0.5,1.23456789")


def test_visibility_check_confirms_ns99_at_tau_one():
    check = workflows.visibility_check(BellKind.NS99, 1.0, restarts=16)
    assert check.threshold == pytest.approx(0.78361, abs=1e-5)
    assert check.confirmed
    assert not check.below_violates and check.above_violates


def test_visibility_check_confirms_an_extended_ghz_state():
    check = workflows.visibility_check(BellKind.SVETLICHNY, 0.5, c12sq=0.3)
    assert check.c12sq == 0.3
    assert check.threshold == pytest.approx(4 / bound_b4(0.5, 0.3), abs=1e-12)
    assert check.confirmed


def test_visibility_check_runs_one_see_saw_on_the_pure_state(monkeypatch):
    purities, values = [], []

    def recording(rho, operator, opts):
        report = optimize_operator(rho, operator, opts)
        purities.append(float(np.trace(rho @ rho).real))
        values.append(report.value)
        return report

    monkeypatch.setattr(workflows, "optimize_operator", recording)
    check = workflows.visibility_check(BellKind.SVETLICHNY, 0.5, c12sq=0.3)
    assert purities == [pytest.approx(1.0, abs=1e-12)]
    assert check.below_value == (check.threshold - 0.01) * values[0]
    assert check.above_value == (check.threshold + 0.01) * values[0]


def test_visibility_no_violation_raises():
    with pytest.raises(workflows.NoViolationError):
        workflows.visibility_check(BellKind.SVETLICHNY, 0.1, restarts=8)


def test_table_row_specs_cover_published_values():
    assert len(workflows.TABLE1_ROWS) == 4
    assert len(workflows.TABLE2_ROWS) == 5
    labels = [r.label for r in workflows.TABLE2_ROWS]
    assert labels == ["rho4", "rho5", "rho6", "rho7", "rho8"]
    assert workflows.TABLE1_ROWS[0].ns99_threshold == 0.811876


def test_format_table_shapes():
    rows = [
        workflows.TableRow(
            spec=workflows.TableRowSpec("demo", Family.RHO2, None, 0.5, 0.8, 0.7),
            ns99=0.81,
            svetlichny=0.7,
        )
    ]
    md = workflows.format_table(rows, fmt="md")
    assert md.splitlines()[0].startswith("| state")
    csv = workflows.format_table(rows, fmt="csv")
    assert csv.splitlines()[1].startswith("demo,")
    assert workflows.TAU_REFERENCE_NOTE in csv
    with pytest.raises(ValueError):
        workflows.format_table(rows, fmt="html")
