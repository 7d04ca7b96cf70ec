"""Analysis workflows shared by the command-line interface and the tests.

One rule for an operator's maximum (``maximum``: exact on a real X state,
else the see-saw), threshold bisection over mixing weights, parameter
sweeps emitting figure data, side-by-side reproduction of the published
threshold tables, white noise visibility confirmation, and the noisy-state
verdicts (Kraus model and published closed form) of ``tribell channel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import channels, entangle, qalg, states
from .bell import (
    BellKind,
    CLASSICAL_BOUND,
    N_PARTIES,
    X_STATE_MAXIMUM,
    OptimizeOptions,
    ViolationReport,
    bound_b4,
    bound_b5,
    is_real_x_state,
    optimize_operator,
    visibility_threshold,
)
from .bell.bounds import NotRealXStateError, XStateMaximum
from .bell.operators import VIOLATION_CUT
from .bell.optimize import DEFAULT_RESTARTS, DEFAULT_SEED
from .states import Family, mixed_builder

DEFAULT_BISECT_TOL = 1e-5
MIN_BISECT_TOL = 1e-7
TABLE_TOL = 2.5e-4  # bisection tolerance of the recomputed tables
# Unread in src/: perfbench's Threshold re-check and tests/test_optimize.py use it.
ROOT_RESTARTS = 128


def maximum(
    rho: np.ndarray, kind: BellKind, options: OptimizeOptions | None = None
) -> XStateMaximum | ViolationReport:
    """An operator's maximum on ``rho``, with settings that reach it: exact where the
    operator has an X-state maximum and ``rho`` passes ``is_real_x_state``, else the see-saw
    (``optimize_operator`` with ``options``). Both results carry ``.value`` and ``.scenario``."""
    kind = BellKind(kind)
    if kind in X_STATE_MAXIMUM:
        try:  # the X-state maximum reads the Pauli tensor once and tests it itself
            return X_STATE_MAXIMUM[kind](rho)
        except NotRealXStateError:
            pass
    return optimize_operator(rho, kind, options)


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
        if N_PARTIES[self.operator] != 3:
            raise ValueError(f"thresholds need a three-party operator, got {self.operator.value}")
        states.reject_foreign(self.family, k=self.k)
        lo, hi = self.bracket
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"bracket must satisfy 0 <= lo < hi <= 1, got {self.bracket}")
        if not (math.isfinite(self.tol) and self.tol >= MIN_BISECT_TOL):
            raise ValueError(f"tolerance must be >= {MIN_BISECT_TOL}, got {self.tol}")

    @property
    def exact(self) -> bool:
        """Every probe takes the exact maximum, so ``seed`` and ``restarts`` go unread: both
        bracket ends are real X states. The family is affine in p and the real-X pattern a
        linear subspace, so each off-pattern Pauli entry is affine in p and its modulus
        peaks at an end; the ends pass ``is_real_x_state`` iff every probe between does."""
        build = mixed_builder(self.family, self.k)
        return all(is_real_x_state(build(p)) for p in self.bracket)


@dataclass
class ThresholdResult:
    """The bracket ends' probe values. A see-saw probe stops at its first
    certified violation, so its value above the bound is a lower bound, not the
    maximum. A probe on a real X state is the exact maximum: both ends of an exact
    query, and a real-X end of another, such as p = 1 (GHZ) of rho2 and rho3."""

    p_star: float
    query: ThresholdQuery
    value_lo: float
    value_hi: float
    evaluations: int


def threshold_bisect(query: ThresholdQuery) -> ThresholdResult:
    """Bisection on the mixing weight; each probe only decides a violation.

    The family is affine in p, so the maximal value v(p) is a maximum of
    affine functions and convex: if v(lo) <= bound < v(hi), the crossing in
    [lo, hi] is unique. Every probe is a ``maximum``: exact on a real X state
    (every state of rho4..rho8, and rho2 and rho3 at p = 1, which is GHZ); elsewhere it runs
    query.restarts starts from query.seed and stops at its first certified
    violation, which gives a full maximization's verdict. Ends that do not
    straddle the bound (the W component can add a low-weight violation
    window) raise NoCrossingError.
    """
    build = mixed_builder(query.family, query.k)
    cut = VIOLATION_CUT[query.operator]
    opts = OptimizeOptions(restarts=query.restarts, seed=query.seed, stop_above=cut)

    def value_at(p: float) -> float:
        return maximum(build(p), query.operator, opts).value

    lo, hi = query.bracket
    value_lo, value_hi = value_at(lo), value_at(hi)
    evaluations = 2
    if value_lo > cut or value_hi <= cut:
        raise NoCrossingError(
            f"no violation onset of {CLASSICAL_BOUND[query.operator]} in bracket {query.bracket}: "
            f"endpoint values {value_lo:.6f}, {value_hi:.6f} (exact maxima on real X states; "
            "a see-saw value above the bound is a lower bound)"
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

TABLES = {1: TABLE1_ROWS, 2: TABLE2_ROWS}


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
    rows_spec = TABLES.get(which)
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

# Closed-form columns of a pure point, each a function of its pair (t, c) = (tau, C12^2).
# The visibility columns report 1.0 when the pure state never violates (threshold
# semantics: no threshold below 1, and none is 0), keeping CSV finite.
_PAIR_COLUMNS = {
    "ns_bound": bound_b5,
    "svet_bound": bound_b4,
    "tau": lambda t, c: t,
    "c12sq": lambda t, c: c,
    "delta_d": lambda t, c: entangle.delta_d_subclass_s(t),
    "visibility_ns": lambda t, c: visibility_threshold(BellKind.NS99, t, c) or 1.0,
    "visibility_svet": lambda t, c: visibility_threshold(BellKind.SVETLICHNY, t, c) or 1.0,
}
# The operator of each bound and see-saw column.
_KIND = {"ns_bound": BellKind.NS99, "svet_bound": BellKind.SVETLICHNY,
         "ns_opt": BellKind.NS99, "svet_opt": BellKind.SVETLICHNY}
SWEEP_COLUMNS = tuple(dict.fromkeys([*_KIND, *_PAIR_COLUMNS]))

# Families swept over a pure-state parameter carry every column; every other
# family sweeps the mixing weight 'p' and carries the see-saw columns, plus
# both exact bounds where both ends of the range are real X states.
_PURE_SWEEP_PARAM = {Family.GGHZ: "eta", Family.MS: "eta", Family.EXT_S: "tau"}


@dataclass
class SweepSpec:
    family: Family
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
        states.reject_foreign(self.family, k=self.k)
        if self.family is Family.EXT_S and self.c12sq is None:
            raise ValueError("ext_s sweeps need the fixed c12sq value")
        if self.family is not Family.EXT_S and self.c12sq is not None:
            raise ValueError(f"{self.family.value} does not take c12sq; only ext_s sweeps do")
        # Every parameter range is an interval, so both ends in it put every point in it.
        ends = [self._point(x) for x in (self.start, self.stop)]
        if self.family in _PURE_SWEEP_PARAM:
            available = tuple(c for c in SWEEP_COLUMNS if c != self.param)  # it leads each row
        elif all(is_real_x_state(rho) for _, rho in ends):
            available = tuple(_KIND)
        else:
            available = ("ns_opt", "svet_opt")
        missing = [c for c in self.columns if c not in available]
        if missing:
            raise ValueError(f"columns {missing} are not available for family {self.family.value}")

    @property
    def param(self) -> str:
        """The swept parameter: 'eta' for gghz/ms, 'tau' for ext_s, 'p' for mixed families."""
        return _PURE_SWEEP_PARAM.get(self.family, "p")

    def _point(self, x: float) -> tuple[tuple[float, float] | None, np.ndarray]:
        """The pair (tau, C12^2) and the density matrix at ``x``; a mixed family has no
        pair. Every pure family's state is the subclass-S state of its pair."""
        if self.family not in _PURE_SWEEP_PARAM:
            return None, mixed_builder(self.family, self.k)(x)
        pair = states.tau_c12sq(self.family, c12sq=self.c12sq, **{self.param: x})
        return pair, qalg.projector(states.extended_ghz(*states.ext_s_lambdas_from_tau_c12(*pair)))


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Evaluate a sweep: returns (header, rows); rows ascend in the parameter. A ``*_opt``
    column runs the see-saw, a mixed family's bound column takes the exact X-state
    maximum, and every other column is a closed form of the point's pair."""
    opts = OptimizeOptions(restarts=spec.restarts, seed=spec.seed)
    rows = []
    for x in np.linspace(spec.start, spec.stop, spec.steps):
        pair, rho = spec._point(float(x))
        row = [float(x)]
        for column in spec.columns:
            if column.endswith("_opt"):
                row.append(optimize_operator(rho, _KIND[column], opts).value)
            elif pair is None:
                row.append(X_STATE_MAXIMUM[_KIND[column]](rho).value)
            else:
                row.append(_PAIR_COLUMNS[column](*pair))
        if any(not math.isfinite(v) for v in row):
            raise ValueError(f"non-finite sweep value at {spec.param}={x}")
        rows.append(row)
    return [spec.param, *spec.columns], rows


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

    White noise adds nothing to any term of either operator, so every value on
    alpha |psi><psi| + (1 - alpha) I/8 is alpha times its value on the pure state.
    One see-saw on the pure state gives both values: its value times
    max(threshold - delta, 0) and times min(threshold + delta, 1). Each is
    judged against ``VIOLATION_CUT``; the violation must switch on across the
    threshold. The state is built from, and the check records, the pair as
    ``states.check_tau_c12`` returns it. Raises NoViolationError when the pure
    state never violates and ValueError for a pair out of range or a delta
    that is not positive.
    """
    if not delta > 0.0:
        raise ValueError(f"visibility delta must be positive, got {delta}")
    operator = BellKind(operator)
    tau, c12sq = states.check_tau_c12(tau, c12sq)
    threshold = visibility_threshold(operator, tau, c12sq)
    if threshold is None:
        raise NoViolationError(
            f"state with tau={tau}, C12^2={c12sq} never violates {operator.value}; "
            "no threshold below 1"
        )
    rho = qalg.projector(states.extended_ghz(*states.ext_s_lambdas_from_tau_c12(tau, c12sq)))
    value = optimize_operator(rho, operator, OptimizeOptions(restarts=restarts, seed=seed)).value
    below = max(threshold - delta, 0.0) * value
    above = min(threshold + delta, 1.0) * value
    cut = VIOLATION_CUT[operator]
    return VisibilityCheck(operator, tau, c12sq, threshold, below, below > cut, above, above > cut)


# ---------------------------------------------------------------------------
# Published noisy-state detection examples


@dataclass
class ChannelExampleVerdict:
    model: str  # 'kraus' or 'closed_form'
    ns99_value: float
    ns99_violated: bool
    svetlichny_value: float
    svetlichny_violated: bool


# The published closed form of each channel, a function of (eta, s1, s2, s3).
_CLOSED_FORMS = {
    channels.ChannelKind.DEPOLARIZE: channels.closed_form_depolarized_gghz,
    channels.ChannelKind.AMPLITUDE_DAMP: channels.closed_form_damped_gghz,
}


def channel_states(
    rho: np.ndarray, spec: channels.ChannelSpec, closed_form_eta: float | None = None
) -> dict[str, np.ndarray]:
    """``rho`` under ``spec``'s Kraus map ('kraus'), then, if an angle is given, the published
    closed form of GGHZ(closed_form_eta) under ``spec`` ('closed_form'); the damped closed
    form warns ``HermitizedClosedFormWarning``."""
    noisy = {"kraus": channels.apply_channel_spec(rho, spec)}
    if closed_form_eta is not None:
        noisy["closed_form"] = _CLOSED_FORMS[spec.kind](closed_form_eta, *spec.strengths)
    return noisy


def channel_verdicts(
    noisy: dict[str, np.ndarray], opts: OptimizeOptions
) -> list[ChannelExampleVerdict]:
    """NS99 and Svetlichny on each model state of ``channel_states``, in its
    order, each a ``maximum``: exact on a real X state (GGHZ under either
    channel, and both closed forms); any other runs the see-saw with ``opts``."""
    verdicts = []
    kinds = (BellKind.NS99, BellKind.SVETLICHNY)
    for model, state in noisy.items():
        ns, sv = (maximum(state, kind, opts).value for kind in kinds)
        ns_violated, sv_violated = (v > VIOLATION_CUT[kind] for v, kind in zip((ns, sv), kinds))
        verdicts.append(ChannelExampleVerdict(model, ns, ns_violated, sv, sv_violated))
    return verdicts
