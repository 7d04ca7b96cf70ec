"""Behaviors and LP membership oracles for hybrid local models.

A behavior is the table p(abc|xyz) of conditional outcome probabilities for
three parties with two settings and two outcomes each. Three models are
supported, each as the convex hull of an explicit vertex set:

* FULLY_LOCAL: products of deterministic single-party strategies (64).
* S2: for each bipartition, deterministic bipartite boxes with no
  constraint linking the pair's outputs to its inputs (a = f(x,y),
  b = g(x,y); 256 per pair) times deterministic third-party points, each a
  sum of four columns of the compact pair-table LP below.
* NS2: for each bipartition, the extremal no-signaling bipartite boxes
  (16 deterministic + 8 PR-type, in closed form) times deterministic
  third-party points.

Each model's vertex matrix is built once per process and kept read-only.

Membership is a pure feasibility question. For FULLY_LOCAL and NS2 it asks
for nonnegative weights over the model's vertices that sum to one and
reproduce the behavior. S2 is solved over pair tables instead of its 3072
vertices: every conditional pair table is a mixture of deterministic ones,
so the S2 hull is the set of sums over bipartitions k and third-party
strategies s of r_{k,s}(a_i a_j|x_i x_j) δ(a_t = s(x_t)), with each r_{k,s} a
nonnegative 16-entry table of equal mass for all four (x_i, x_j). That LP
has 192 columns and 64 + 36 rows. Its solution is split back into weights
on the S2 vertices, so every witness is a vertex decomposition.

Each LP is decided by a self-contained phase-1 revised simplex with Bland's
rule. Only the basis inverse is updated per pivot. Every column of the
cached constraint matrix (at most 288, for NS2) is priced in one product,
and the first improving one enters. At an "outside" verdict the final
duals form a Farkas certificate: a linear inequality that every vertex
satisfies and the behavior violates.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import qalg
from .bell.operators import MeasurementScenario, augmented_vectors

BEHAVIOR_SHAPE = (2, 2, 2, 2, 2, 2)  # indices (a, b, c, x, y, z)
NORMALIZATION_ATOL = 1e-10
POSITIVITY_ATOL = 1e-12
MEMBERSHIP_ATOL = 1e-8
# The phase-1 simplex gives up, raising LPNumericalError, after this many pivots.
LP_MAX_PIVOTS = 50000


class HybridKind(str, enum.Enum):
    FULLY_LOCAL = "fully_local"
    NS2 = "ns2"
    S2 = "s2"


class LPNumericalError(RuntimeError):
    """Simplex failed to terminate cleanly; distinct from infeasibility."""


@dataclass
class Behavior:
    """Conditional probability table p[a,b,c,x,y,z]."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        if self.table.shape != BEHAVIOR_SHAPE:
            raise ValueError(f"behavior table must have shape {BEHAVIOR_SHAPE}")
        if not np.all(np.isfinite(self.table)):
            raise ValueError("behavior table has a non-finite probability")
        if self.table.min() < -POSITIVITY_ATOL:
            raise ValueError(f"negative probability {self.table.min()!r}")
        sums = self.table.sum(axis=(0, 1, 2))
        if np.max(np.abs(sums - 1.0)) > NORMALIZATION_ATOL:
            raise ValueError("outcome distributions are not normalized per setting")

    def flat(self) -> np.ndarray:
        return self.table.reshape(-1)

    @staticmethod
    def from_flat(flat: np.ndarray) -> "Behavior":
        return Behavior(np.asarray(flat, dtype=float).reshape(BEHAVIOR_SHAPE))


def quantum_behavior(rho: np.ndarray, scenario: MeasurementScenario) -> Behavior:
    """Born-rule behavior p(abc|xyz) = Tr[rho P_a^x x P_b^y x P_c^z].

    Outcome 0 is the +1 eigenvalue: P_a^x = (I + (-1)^a v_x . sigma) / 2, so
    the table contracts the Pauli tensor of rho with each party's ((-1)^a v_x, 1) / 2.
    """
    rho = qalg.check_density_matrix(rho)
    if rho.shape[0] != 8 or scenario.n_parties != 3:
        raise ValueError("quantum_behavior expects a three-qubit state and scenario")
    aug = augmented_vectors(scenario.flat()).reshape(3, 2, 4) / 2.0
    signed = np.stack([aug, aug * [-1.0, -1.0, -1.0, 1.0]], axis=1)  # [party, a, x, component]
    return Behavior(np.einsum("ijk,axi,byj,czk->abcxyz", qalg.pauli_tensor(rho, 3), *signed))


def save_behavior(behavior: Behavior, path) -> None:
    """Write one 'x y z a b c p' row per entry with 15 significant digits."""
    lines = ["# x y z a b c p(abc|xyz)"]
    for x, y, z in itertools.product((0, 1), repeat=3):
        for a, b, c in itertools.product((0, 1), repeat=3):
            p = behavior.table[a, b, c, x, y, z]
            lines.append(f"{x} {y} {z} {a} {b} {c} {p:.15g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_behavior(path) -> Behavior:
    """Read the row-per-entry text format of ``save_behavior``: each entry once."""
    table = np.full(BEHAVIOR_SHAPE, np.nan)
    seen = set()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 7:
            raise ValueError(f"behavior rows need 7 fields, got {raw!r}")
        fields = [int(t) for t in parts[:6]]
        if not set(fields) <= {0, 1}:
            raise ValueError(f"settings and outcomes must be 0 or 1, got {raw!r}")
        if tuple(fields) in seen:
            raise ValueError(f"behavior row {raw!r} repeats an earlier x y z a b c")
        seen.add(tuple(fields))
        x, y, z, a, b, c = fields
        table[a, b, c, x, y, z] = float(parts[6])
        if not math.isfinite(table[a, b, c, x, y, z]):
            raise ValueError(f"behavior row {raw!r} has a non-finite probability")
    if np.isnan(table).any():
        raise ValueError("behavior file does not cover all 64 entries")
    return Behavior(table)


# ---------------------------------------------------------------------------
# Vertex enumeration

# Deterministic single-party strategies f = (f(0), f(1)) in the order
# (0,0), (0,1), (1,0), (1,1), as tables [f, outcome, setting] = [outcome == f(setting)].
_STRATEGIES = np.eye(2)[list(itertools.product((0, 1), repeat=2))].transpose(0, 2, 1)


def deterministic_local_vertices() -> np.ndarray:
    """All 64 products of deterministic single-party strategies, (64, 64)."""
    d = _STRATEGIES
    return np.einsum("iax,jby,kcz->ijkabcxyz", d, d, d).reshape(64, 64)


def ns_bipartite_boxes() -> np.ndarray:
    """The 24 extremal 2-input/2-output no-signaling boxes, (24, 16).

    16 deterministic boxes a = f(x), b = g(y) and 8 PR-type boxes with
    P(a,b|x,y) = 1/2 when a⊕b = xy⊕αx⊕βy⊕γ (Barrett et al., PRA 71,
    022101 (2005)). Entries are P[a, b, x, y] flattened C-style; boxes are
    sorted lexicographically.
    """
    d = _STRATEGIES
    local = np.einsum("iax,jby->ijabxy", d, d).reshape(16, 16)
    a, b, x, y = np.indices((2, 2, 2, 2))
    pr = [
        0.5 * ((a ^ b) == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma).reshape(16)
        for alpha, beta, gamma in itertools.product((0, 1), repeat=3)
    ]
    boxes = np.vstack([local, pr])
    return boxes[np.lexsort(boxes.T[::-1])]


def _pair_product_vertices(boxes: np.ndarray, bipartition: tuple[int, int]) -> np.ndarray:
    """Lift bipartite boxes times third-party deterministic points to behaviors.

    ``bipartition`` names the 0-based parties forming the pair, in order;
    the remaining party is deterministic. Rows run over boxes, then over
    the third party's strategies.
    """
    p, q = bipartition
    solo = 3 - p - q
    outs, ins = "abc", "xyz"
    spec = f"k{outs[p]}{outs[q]}{ins[p]}{ins[q]},f{outs[solo]}{ins[solo]}->kfabcxyz"
    return np.einsum(spec, boxes.reshape(-1, 2, 2, 2, 2), _STRATEGIES).reshape(-1, 64)


_BIPARTITIONS = ((0, 1), (0, 2), (1, 2))
# Place values of the input pairs 2x+y = 0..3 in a box index: box o outputs 2a+b = o // d % 4.
_BOX_DIGITS = 4 ** np.arange(3, -1, -1)


@functools.cache
def _lp_columns(kind: HybridKind) -> np.ndarray:
    """Columns [v; 1] of the vertex LP, one row per vertex v; read-only.

    The row order is the column order Bland's rule sees in the fully-local
    and NS2 membership LPs; S2 membership solves ``_s2_pair_columns``, and S2
    vertex k*1024 + o*4 + s sums the four of its columns that lift box o in block (k, s).
    """
    if kind is HybridKind.FULLY_LOCAL:
        vertices = deterministic_local_vertices()
    elif kind is HybridKind.NS2:
        boxes = ns_bipartite_boxes()
        vertices = np.vstack([_pair_product_vertices(boxes, pair) for pair in _BIPARTITIONS])
    else:
        outputs = np.arange(256)[:, None] // _BOX_DIGITS % 4  # [o, 2x+y] -> 2a+b
        # [k, o, s, 2x+y] -> compact column (k*4 + s)*16 + (2x+y)*4 + 2a+b
        rows = np.arange(12).reshape(3, 1, 4, 1) * 16 + np.arange(4) * 4 + outputs[:, None, :]
        vertices = _s2_pair_columns()[rows.reshape(3072, 4), :64].sum(axis=1)
    columns = np.hstack([vertices, np.ones((vertices.shape[0], 1))])
    columns.setflags(write=False)
    return columns


@functools.cache
def _s2_pair_columns() -> np.ndarray:
    """Columns of the compact S2 LP, one row per pair-table entry; read-only, (192, 100).

    Row (k*4 + s)*16 + (2x+y)*4 + 2a+b is entry r(ab|xy) of the table r_{k,s}
    of bipartition k and third-party strategy s. Its first 64 entries lift
    the unit table like a vertex; the last 36 hold, per block (k, s),
    sum_ab r(ab|xy) - sum_ab r(ab|00) for (x, y) = (0,1), (1,0), (1,1).
    """
    units = np.eye(16).reshape(16, 2, 2, 2, 2).transpose(0, 3, 4, 1, 2).reshape(16, 16)
    lifted = [
        _pair_product_vertices(units, pair).reshape(16, 4, 64).transpose(1, 0, 2).reshape(64, 64)
        for pair in _BIPARTITIONS
    ]
    # [(2x+y)*4 + 2a+b, i]: +1 on input pair i+1, -1 on (0,0)
    mass_change = np.kron(np.eye(4)[:, 1:] - np.eye(4)[:, :1], np.ones((4, 1)))
    columns = np.hstack([np.vstack(lifted), np.kron(np.eye(12), mass_change)])
    columns.setflags(write=False)
    return columns


def _s2_vertex_weights(tables: np.ndarray) -> np.ndarray:
    """Split the compact S2 solution into weights on the rows of ``enumerate_vertices(S2)``.

    Each block r_{k,s} is split by the quantile (staircase) coupling of its
    four conditional tables: the cumulative sums over outputs 2a+b cut the
    block's mass into at most 13 intervals, and on each interval every input
    pair has one output, which makes one deterministic box. Box o of block
    (k, s) is vertex row k*1024 + o*4 + s.
    """
    cum = np.cumsum(tables.reshape(12, 4, 4), axis=2)  # [k*4+s, 2x+y, 2a+b]
    mass = cum[:, :, 3].mean(axis=1, keepdims=True)
    cuts = np.sort(np.minimum(np.hstack([cum[:, :, :3].reshape(12, 12), mass]), mass), axis=1)
    edges = np.hstack([np.zeros((12, 1)), cuts])
    lengths = np.diff(edges, axis=1)
    mids = edges[:, :-1] + 0.5 * lengths
    outputs = (cum[:, :, :3, None] < mids[:, None, None, :]).sum(axis=2)  # [block, 2x+y, interval]
    boxes = np.einsum("bij,i->bj", outputs, _BOX_DIGITS)
    block = np.arange(12)[:, None]
    rows = (block // 4) * 1024 + boxes * 4 + block % 4
    return np.bincount(rows.ravel(), weights=lengths.ravel(), minlength=3072)


def enumerate_vertices(kind: HybridKind) -> np.ndarray:
    """Vertex behaviors of a hybrid model, one row per vertex, shape (n, 64).

    The array is shared by every caller and read-only.
    """
    return _lp_columns(HybridKind(kind))[:, :64]


# ---------------------------------------------------------------------------
# Phase-1 revised simplex feasibility


def _phase1_simplex(at: np.ndarray, b: np.ndarray):
    """Minimize the sum of artificials for A w = b, w >= 0 (Bland's rule).

    ``at`` is A transposed, one row per structural column. Artificial i has
    column sign(b_i) e_i, so the start basis inverse is diag(sign(b)) and
    the basic solution is |b|. Each pivot is a rank-1 update of the basis
    inverse ``binv``; the tableau is never formed.

    Returns (objective, w, y, iterations), where y = c_B binv is the final
    dual in the coordinates of A and b: y.A_j <= 1e-11 for every column and
    y.b equals the objective. Raises LPNumericalError after
    ``LP_MAX_PIVOTS`` pivots.
    """
    b = np.asarray(b, dtype=float)
    n, m = at.shape
    sign = np.where(b < 0, -1.0, 1.0)
    binv = np.diag(sign)
    rhs = sign * b
    basis = np.arange(n, n + m)
    cost = np.ones(m)  # c_B: 1 where an artificial is basic
    eps = 1e-11

    for iteration in range(LP_MAX_PIVOTS):
        y = cost @ binv
        improving = at @ y > eps
        if not improving.any():
            entering_artificials = np.flatnonzero(1.0 - sign * y < -eps)
            if entering_artificials.size == 0:
                structural = basis < n
                w = np.zeros(n)
                w[basis[structural]] = rhs[structural]
                return float(cost @ rhs), w, y, iteration
            k = int(entering_artificials[0])
            j = n + k
            col = sign[k] * binv[:, k]
        else:
            j = int(improving.argmax())  # Bland: the first improving column
            col = binv @ at[j]
        positive = col > eps
        if not positive.any():
            # Unbounded phase-1 cannot happen with bounded artificials.
            raise LPNumericalError("phase-1 simplex detected an unbounded direction")
        ratios = np.where(positive, rhs, np.inf) / np.where(positive, col, 1.0)
        tie_rows = (ratios <= ratios.min() + 1e-15).nonzero()[0]
        i = int(tie_rows[basis[tie_rows].argmin()])  # Bland tie-break
        pivot = col[i]
        pivot_row = binv[i] / pivot
        pivot_rhs = rhs[i] / pivot
        col[i] = 0.0
        binv -= col[:, None] * pivot_row
        binv[i] = pivot_row
        rhs -= col * pivot_rhs
        rhs[i] = pivot_rhs
        np.maximum(rhs, 0.0, out=rhs)
        basis[i] = j
        cost[i] = float(j >= n)
    raise LPNumericalError(f"phase-1 simplex did not terminate in {LP_MAX_PIVOTS} pivots")


@dataclass
class MembershipResult:
    """LP verdict: a witness decomposition or a separating certificate.

    ``weights`` (inside verdicts only) are weights on the rows of
    ``enumerate_vertices(kind)``. ``certificate`` is set for outside verdicts
    only: a vector y of length 65 with y.[v; 1] <= 1e-11 for every model
    vertex v (4e-11 for S2, whose vertices each sum four compact columns)
    and y.[p; 1] = phase1_objective > 0 for the behavior p, i.e. the Bell
    inequality y[:64].p <= -y[64] holds on the model and is violated by p.
    ``phase1_objective`` and ``iterations`` are those of the LP solved,
    which for S2 is the compact one.
    """

    inside: bool
    kind: HybridKind
    weights: np.ndarray | None
    phase1_objective: float
    residual: float
    iterations: int
    certificate: np.ndarray | None


def membership(behavior: Behavior, kind: HybridKind) -> MembershipResult:
    """Decide whether a behavior lies in the convex hull of a model's vertices.

    Feasibility of: nonnegative vertex weights (for S2, pair tables),
    summing to one, reproducing all 64 probabilities to within 1e-8.
    Simplex breakdown raises LPNumericalError instead of being reported as
    infeasibility.
    """
    kind = HybridKind(kind)
    vertices = enumerate_vertices(kind)
    target = behavior.flat()
    compact = kind is HybridKind.S2
    if compact:
        columns, rhs = _s2_pair_columns(), np.append(target, np.zeros(36))
    else:
        columns, rhs = _lp_columns(kind), np.append(target, 1.0)
    objective, weights, dual, iterations = _phase1_simplex(columns, rhs)
    if objective > MEMBERSHIP_ATOL:
        return MembershipResult(
            inside=False,
            kind=kind,
            weights=None,
            phase1_objective=objective,
            residual=math.inf,
            iterations=iterations,
            certificate=np.append(dual[:64], 0.0) if compact else dual,
        )
    weights = _s2_vertex_weights(weights) if compact else np.maximum(weights, 0.0)
    residual = float(max(np.max(np.abs(weights @ vertices - target)), abs(weights.sum() - 1.0)))
    if residual > MEMBERSHIP_ATOL:
        raise LPNumericalError(
            f"phase-1 reported feasible but residual {residual} exceeds {MEMBERSHIP_ATOL}"
        )
    return MembershipResult(
        inside=True,
        kind=kind,
        weights=weights,
        phase1_objective=objective,
        residual=residual,
        iterations=iterations,
        certificate=None,
    )
