import math

import numpy as np
import pytest

from tribell import workflows
from tribell.bell import CLASSICAL_BOUND, BellKind, optimize_operator
from tribell.states import Family
from tribell.workflows import SweepSpec, ThresholdQuery


def test_threshold_rho4_matches_analytic_crossing():
    # closed-form bound crosses 3 at p = (sqrt(6) - 1)/2
    query = ThresholdQuery(
        family=Family.RHO4,
        operator=BellKind.NS99,
        bracket=(0.6, 0.9),
        tol=5e-4,
        restarts=24,
    )
    result = workflows.threshold_bisect(query)
    assert result.p_star == pytest.approx((math.sqrt(6) - 1) / 2, abs=1e-3)


def test_threshold_no_crossing_raises():
    query = ThresholdQuery(
        family=Family.RHO4,
        operator=BellKind.NS99,
        bracket=(0.9, 0.99),
        tol=1e-3,
        restarts=8,
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
    ThresholdQuery(family=Family.RHO3, operator=BellKind.NS99, k=7)


def test_sweep_gghz_formula_columns():
    spec = SweepSpec(
        family=Family.GGHZ,
        param="eta",
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
        family=Family.MS, param="eta", start=0.1, stop=0.7, steps=4, columns=("tau", "ns_bound")
    )
    _, rows = workflows.run_sweep(ms)
    for row in rows:
        tau, bound = row[1], row[2]
        assert bound == pytest.approx(1 + 2 * math.sqrt(1 + tau), abs=1e-12)


def test_sweep_optimizer_columns():
    spec = SweepSpec(
        family=Family.RHO4,
        param="p",
        start=0.7,
        stop=0.8,
        steps=3,
        columns=("ns_bound", "ns_opt"),
        restarts=16,
    )
    header, rows = workflows.run_sweep(spec)
    for row in rows:
        assert row[1] == pytest.approx(row[2], abs=2e-3)


def test_sweep_validation():
    with pytest.raises(ValueError):
        SweepSpec(family=Family.GGHZ, param="eta", start=0.0, stop=0.5, steps=1, columns=("tau",))
    with pytest.raises(ValueError):
        SweepSpec(family=Family.GGHZ, param="p", start=0.0, stop=0.5, steps=3, columns=("tau",))
    with pytest.raises(ValueError):
        SweepSpec(family=Family.GGHZ, param="eta", start=0.0, stop=0.5, steps=3, columns=("bogus",))
    with pytest.raises(ValueError):
        SweepSpec(family=Family.EXT_S, param="tau", start=0.0, stop=0.5, steps=3, columns=("tau",))
    with pytest.raises(ValueError, match="gghz does not take c12sq"):
        SweepSpec(family=Family.GGHZ, param="eta", start=0.0, stop=0.5, steps=3, columns=("tau",),
                  c12sq=0.3)
    with pytest.raises(ValueError, match="rho2 does not take k"):
        SweepSpec(family=Family.RHO2, param="p", start=0.1, stop=0.9, steps=2, columns=("ns_opt",),
                  k=3)
    # delta_d unavailable for mixed families, ns_bound for rho2/rho3: rejected before any point
    for family, column in ((Family.RHO2, "delta_d"), (Family.RHO3, "ns_bound")):
        with pytest.raises(ValueError, match=f"not available for family {family.value}"):
            SweepSpec(family=family, param="p", start=0.1, stop=0.9, steps=2, columns=(column,),
                      k=2 if family is Family.RHO3 else None)


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
