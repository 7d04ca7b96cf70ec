"""Analysis workflows shared by the command-line interface and the tests.

Threshold bisection over mixing weights, parameter sweeps emitting figure
data, side-by-side reproduction of the published threshold tables, white
noise visibility confirmation, and the noisy-state verdicts (Kraus model
and published closed form) shared by ``tribell channel`` and the four
published detection examples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channels, entangle, qalg, states
from .bell import (
    BellKind,
    CLASSICAL_BOUND,
    NS99_MIXED_FAMILIES,
    OptimizeOptions,
    bound_b4,
    bound_b5,
    ns99_ghz_diagonal_max,
    optimize_operator,
    visibility_threshold,
)
from .bell.operators import VIOLATION_ATOL
from .bell.optimize import DEFAULT_RESTARTS, DEFAULT_SEED
from .states import Family, mixed_builder

DEFAULT_BISECT_TOL = 1e-5
MIN_BISECT_TOL = 1e-7
TABLE_TOL = 2.5e-4  # bisection tolerance of the recomputed tables
# Unread in src/: perfbench's Threshold re-check and tests/test_optimize.py use it.
ROOT_RESTARTS = 128


class NoCrossingError(RuntimeError):
    """The optimized operator value does not cross the target in the bracket."""


class NoViolationError(RuntimeError):
    """The pure state does not violate the operator; no visibility threshold."""


@dataclass
class ThresholdQuery:
    """Bisection request for the violation threshold of a mixed family."""

    family: Family
    operator: BellKind
    k: int | None = None
    bracket: tuple[float, float] = (0.55, 1.0)
    tol: float = DEFAULT_BISECT_TOL
    seed: int = DEFAULT_SEED
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        self.family = Family(self.family)
        self.operator = BellKind(self.operator)
        states.reject_foreign(self.family, k=self.k)
        lo, hi = self.bracket
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"bracket must satisfy 0 <= lo < hi <= 1, got {self.bracket}")
        if not (math.isfinite(self.tol) and self.tol >= MIN_BISECT_TOL):
            raise ValueError(f"tolerance must be >= {MIN_BISECT_TOL}, got {self.tol}")

    @property
    def exact(self) -> bool:
        """Probes take the exact maximum, so ``seed`` and ``restarts`` go unread."""
        return self.operator is BellKind.NS99 and self.family in NS99_MIXED_FAMILIES


@dataclass
class ThresholdResult:
    """The bracket ends' probe values. An optimizer probe stops at its first
    certified violation, so a value above the bound (always ``value_hi``) is a
    lower bound, not the maximum; on an exact query both values are maxima."""

    p_star: float
    query: ThresholdQuery
    value_lo: float
    value_hi: float
    evaluations: int


def threshold_bisect(query: ThresholdQuery) -> ThresholdResult:
    """Bisection on the mixing weight; each probe only decides a violation.

    The family is affine in p, so the maximal value v(p) is a maximum of
    affine functions and convex: if v(lo) <= bound < v(hi), the crossing in
    [lo, hi] is unique. On an exact query (ns99 on the GHZ-diagonal families)
    every probe is ``ns99_ghz_diagonal_max``. Otherwise every probe runs
    query.restarts starts from query.seed and stops at its first certified
    violation, which gives a full maximization's verdict. Ends that do not
    straddle the bound (the W component can add a low-weight violation
    window) raise NoCrossingError.
    """
    build = mixed_builder(query.family, query.k)
    target = CLASSICAL_BOUND[query.operator]
    cut = target + VIOLATION_ATOL  # some families sit exactly on the bound below threshold
    opts = OptimizeOptions(restarts=query.restarts, seed=query.seed, stop_above=cut)

    def value_at(p: float) -> float:
        if query.exact:
            return ns99_ghz_diagonal_max(build(p))
        return optimize_operator(build(p), query.operator, opts).value

    lo, hi = query.bracket
    value_lo, value_hi = value_at(lo), value_at(hi)
    evaluations = 2
    if value_lo > cut or value_hi <= cut:
        raise NoCrossingError(
            f"no violation onset of {target} in bracket {query.bracket}: "
            f"endpoint values {value_lo:.6f}, {value_hi:.6f} (probes stop at a violation)"
        )

    while hi - lo > query.tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if value_at(mid) > cut:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(
        p_star=0.5 * (lo + hi),
        query=query,
        value_lo=value_lo,
        value_hi=value_hi,
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# Published threshold tables

TAU_REFERENCE_NOTE = "reference constant, not recomputed"


@dataclass(frozen=True)
class TableRowSpec:
    label: str
    family: Family
    k: int | None
    tau_positive_from: float  # published convex-roof tangle threshold
    ns99_threshold: float
    svetlichny_threshold: float


TABLE1_ROWS = (
    TableRowSpec("rho2", Family.RHO2, None, 0.6268, 0.811876, 0.707109),
    TableRowSpec("rho3 k=2", Family.RHO3, 2, 0.75, 0.819964, 0.70719),
    TableRowSpec("rho3 k=3", Family.RHO3, 3, 0.7452, 0.818825, 0.707109),
    TableRowSpec("rho3 k=10", Family.RHO3, 10, 0.7452, 0.814789, 0.707109),
)

TABLE2_ROWS = (
    TableRowSpec("rho4", Family.RHO4, None, 0.75, 0.726, 0.72),
    TableRowSpec("rho5", Family.RHO5, None, 0.737, 0.729157, 0.710858),
    TableRowSpec("rho6", Family.RHO6, None, 0.2143, 0.756458, 0.765134),
    TableRowSpec("rho7", Family.RHO7, None, 0.2062, 0.759185, 0.76444),
    TableRowSpec("rho8", Family.RHO8, None, 0.2490, 0.75843, 0.763645),
)


@dataclass
class TableRow:
    spec: TableRowSpec
    ns99: float  # recomputed thresholds
    svetlichny: float


def compute_table(
    which: int,
    tol: float = TABLE_TOL,
    seed: int = DEFAULT_SEED,
    restarts: int = DEFAULT_RESTARTS,
) -> list[TableRow]:
    """Recompute one published threshold table by bisection.

    The tangle-positivity column is echoed from stored constants (the
    convex-roof tangle of mixed states is out of scope here).
    """
    rows_spec = {1: TABLE1_ROWS, 2: TABLE2_ROWS}.get(which)
    if rows_spec is None:
        raise ValueError(f"table must be 1 or 2, got {which}")
    rows = []
    for spec in rows_spec:
        ns99, svetlichny = (
            threshold_bisect(
                ThresholdQuery(spec.family, op, spec.k, tol=tol, seed=seed, restarts=restarts)
            ).p_star
            for op in (BellKind.NS99, BellKind.SVETLICHNY)
        )
        rows.append(TableRow(spec, ns99, svetlichny))
    return rows


def format_table(rows: Sequence[TableRow], fmt: str = "md") -> str:
    header = ["state", "tau>0", "ns99 published", "ns99 recomputed", "ns99 |diff|",
              "svet published", "svet recomputed", "svet |diff|"]
    body = []
    for r in rows:
        pairs = ((r.spec.ns99_threshold, r.ns99), (r.spec.svetlichny_threshold, r.svetlichny))
        body.append(
            [r.spec.label, f"p>={r.spec.tau_positive_from:g} ({TAU_REFERENCE_NOTE})"]
            + [f"{v:.6f}" for pub, rec in pairs for v in (pub, rec, abs(rec - pub))]
        )
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [header] + body)
    if fmt != "md":
        raise ValueError(f"format must be 'md' or 'csv', got {fmt!r}")
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = [
        "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
        "|" + "|".join("-" * (w + 2) for w in widths) + "|",
    ]
    for row in body:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parameter sweeps

SWEEP_COLUMNS = (
    "ns_bound",
    "svet_bound",
    "ns_opt",
    "svet_opt",
    "tau",
    "c12sq",
    "delta_d",
    "visibility_ns",
    "visibility_svet",
)

# Families swept over a pure-state parameter carry closed forms; every other
# family sweeps the mixing weight 'p' and only carries the optimizer columns
# (plus the closed-form ns bound for NS99_MIXED_FAMILIES).
_PURE_SWEEP_PARAM = {Family.GGHZ: "eta", Family.MS: "eta", Family.EXT_S: "tau"}


@dataclass
class SweepSpec:
    family: Family
    param: str  # 'eta' for gghz/ms, 'tau' for ext_s, 'p' for mixed families
    start: float
    stop: float
    steps: int
    columns: tuple[str, ...]
    c12sq: float | None = None  # fixed bipartite entanglement for ext_s
    k: int | None = None
    seed: int = DEFAULT_SEED
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        self.family = Family(self.family)
        if self.steps < 2:
            raise ValueError(f"sweep needs at least 2 steps, got {self.steps}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"sweep bounds must be finite, got [{self.start}, {self.stop}]")
        if not self.start < self.stop:
            raise ValueError(f"sweep requires start < stop, got [{self.start}, {self.stop}]")
        if not self.columns:
            raise ValueError("sweep needs at least one output column")
        unknown = [c for c in self.columns if c not in SWEEP_COLUMNS]
        if unknown:
            raise ValueError(f"unknown sweep columns {unknown}; choose from {SWEEP_COLUMNS}")
        expected_param = _PURE_SWEEP_PARAM.get(self.family, "p")
        if self.param != expected_param:
            raise ValueError(
                f"family {self.family.value} sweeps over '{expected_param}', got {self.param!r}"
            )
        states.reject_foreign(self.family, k=self.k)
        if self.family is Family.EXT_S and self.c12sq is None:
            raise ValueError("ext_s sweeps need the fixed c12sq value")
        if self.family is not Family.EXT_S and self.c12sq is not None:
            raise ValueError(f"{self.family.value} does not take c12sq; only ext_s sweeps do")
        if self.family in _PURE_SWEEP_PARAM:
            available = SWEEP_COLUMNS
        elif self.family in NS99_MIXED_FAMILIES:
            available = ("ns_bound", "ns_opt", "svet_opt")
        else:
            available = ("ns_opt", "svet_opt")
        missing = [c for c in self.columns if c not in available]
        if missing:
            raise ValueError(f"columns {missing} are not available for family {self.family.value}")


def _sweep_point(spec: SweepSpec, x: float) -> dict[str, float]:
    """All supported column values of one sweep point."""
    out: dict[str, float] = {}
    fam = spec.family
    need_opt = any(c in spec.columns for c in ("ns_opt", "svet_opt"))
    if fam in _PURE_SWEEP_PARAM:
        tau, c12 = states.tau_c12sq(fam, c12sq=spec.c12sq, **{spec.param: x})
        if fam is Family.GGHZ:
            psi = states.gghz(x)
            out["delta_d"] = entangle.delta_d_gghz(x)
        elif fam is Family.MS:
            psi = states.ms(x)
            out["delta_d"] = entangle.delta_d_subclass_s(tau)
        else:
            psi = states.extended_ghz(*states.ext_s_lambdas_from_tau_c12(tau, c12))
            out["delta_d"] = entangle.delta_d_subclass_s(tau)
        out["tau"] = tau
        out["c12sq"] = c12
        out["ns_bound"] = bound_b5(tau, c12)
        out["svet_bound"] = bound_b4(tau, c12)
        # Visibility columns report 1.0 when the pure state never violates
        # (threshold semantics: no threshold below 1, and none is 0), keeping CSV finite.
        out["visibility_ns"] = visibility_threshold(BellKind.NS99, tau, c12) or 1.0
        out["visibility_svet"] = visibility_threshold(BellKind.SVETLICHNY, tau, c12) or 1.0
        rho = qalg.projector(psi)
    else:
        build = mixed_builder(fam, spec.k)
        rho = build(x)
        if "ns_bound" in spec.columns:
            out["ns_bound"] = ns99_ghz_diagonal_max(rho)
    if need_opt:
        opts = OptimizeOptions(restarts=spec.restarts, seed=spec.seed)
        if "ns_opt" in spec.columns:
            out["ns_opt"] = optimize_operator(rho, BellKind.NS99, opts).value
        if "svet_opt" in spec.columns:
            out["svet_opt"] = optimize_operator(rho, BellKind.SVETLICHNY, opts).value
    return out


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Evaluate a sweep: returns (header, rows); rows ascend in the parameter."""
    xs = np.linspace(spec.start, spec.stop, spec.steps)
    header = [spec.param] + list(spec.columns)
    rows = []
    for x in xs:
        point = _sweep_point(spec, float(x))
        row = [float(x)] + [point[c] for c in spec.columns]
        if any(not math.isfinite(v) for v in row):
            raise ValueError(f"non-finite sweep value at {spec.param}={x}")
        rows.append(row)
    return header, rows


def sweep_csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.9g}" for v in row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Visibility thresholds with numerical confirmation

@dataclass
class VisibilityCheck:
    operator: BellKind
    tau: float
    c12sq: float
    threshold: float
    below_value: float
    below_violates: bool
    above_value: float
    above_violates: bool

    @property
    def confirmed(self) -> bool:
        return self.above_violates and not self.below_violates


def visibility_check(
    operator: BellKind,
    tau: float,
    c12sq: float = 0.0,
    delta: float = 0.01,
    seed: int = DEFAULT_SEED,
    restarts: int = DEFAULT_RESTARTS,
) -> VisibilityCheck:
    """Closed-form visibility threshold plus numeric confirmation.

    Optimizes the operator on the white-noise mixture at threshold -/+ delta
    and records whether the violation switches on across the threshold.
    Raises NoViolationError when the pure state never violates and
    ValueError for a delta that is not positive.
    """
    if not delta > 0.0:
        raise ValueError(f"visibility delta must be positive, got {delta}")
    operator = BellKind(operator)
    threshold = visibility_threshold(operator, tau, c12sq)
    if threshold is None:
        raise NoViolationError(
            f"state with tau={tau}, C12^2={c12sq} never violates {operator.value}; "
            "no threshold below 1"
        )
    if c12sq > 0.0:
        psi = states.extended_ghz(*states.ext_s_lambdas_from_tau_c12(tau, c12sq))
    else:
        psi = states.gghz(0.5 * math.asin(math.sqrt(tau)))
    rho = qalg.projector(psi)
    opts = OptimizeOptions(restarts=restarts, seed=seed)
    lo = states.white_noise_mix(rho, max(threshold - delta, 0.0))
    hi = states.white_noise_mix(rho, min(threshold + delta, 1.0))
    rep_lo = optimize_operator(lo, operator, opts)
    rep_hi = optimize_operator(hi, operator, opts)
    return VisibilityCheck(
        operator=operator,
        tau=tau,
        c12sq=c12sq,
        threshold=threshold,
        below_value=rep_lo.value,
        below_violates=rep_lo.violated,
        above_value=rep_hi.value,
        above_violates=rep_hi.violated,
    )


# ---------------------------------------------------------------------------
# Published noisy-state detection examples


@dataclass
class ChannelExampleVerdict:
    example: str
    model: str  # 'kraus' or 'closed_form'
    ns99_value: float
    ns99_violated: bool
    svetlichny_value: float
    svetlichny_violated: bool

    @property
    def claim_holds(self) -> bool:
        """The published claim: the 99th facet fires while Svetlichny does not."""
        return self.ns99_violated and not self.svetlichny_violated


# The published closed form of each channel, a function of (eta, s1, s2, s3).
_CLOSED_FORMS = {
    channels.ChannelKind.DEPOLARIZE: channels.closed_form_depolarized_gghz,
    channels.ChannelKind.AMPLITUDE_DAMP: channels.closed_form_damped_gghz,
}


def channel_verdicts(
    rho: np.ndarray,
    spec: channels.ChannelSpec,
    opts: OptimizeOptions,
    closed_form_eta: float | None = None,
    example: str = "",
) -> list[ChannelExampleVerdict]:
    """NS99 and Svetlichny on ``rho`` under ``spec``'s Kraus map, then on the
    published closed form of GGHZ(closed_form_eta) under ``spec`` if an angle
    is given. Verdicts come in that model order; the damped closed form warns
    ``HermitizedClosedFormWarning``."""
    noisy = {"kraus": channels.apply_channel_spec(rho, spec)}
    if closed_form_eta is not None:
        noisy["closed_form"] = _CLOSED_FORMS[spec.kind](closed_form_eta, *spec.strengths)
    verdicts = []
    for model, state in noisy.items():
        ns = optimize_operator(state, BellKind.NS99, opts)
        sv = optimize_operator(state, BellKind.SVETLICHNY, opts)
        verdicts.append(
            ChannelExampleVerdict(example, model, ns.value, ns.violated, sv.value, sv.violated)
        )
    return verdicts


def channel_example_report(
    seed: int = DEFAULT_SEED, restarts: int = DEFAULT_RESTARTS
) -> list[ChannelExampleVerdict]:
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
    opts = OptimizeOptions(restarts=restarts, seed=seed)
    verdicts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", channels.HermitizedClosedFormWarning)
        for label, psi, spec, eta in examples:
            verdicts += channel_verdicts(qalg.projector(psi), spec, opts, eta, example=label)
    return verdicts
