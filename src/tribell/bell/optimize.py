"""Multi-start see-saw maximization of Bell operators.

Each operator is folded into one coefficient tensor that is multilinear in
the per-party augmented 8-vectors (``_fused_coefficient_tensor``). With the
other parties held fixed, the value is linear in one party's vector, so that
party's best pair of Bloch vectors is ``g_s / |g_s|``, where ``g`` is the
partial contraction and ``g_s`` its block for setting s (see-saw, e.g. Pál &
Vértesi, PRA 82, 022116 (2010)). One sweep updates the parties in turn and
never lowers the value.

All restarts start from seeded random angles and are swept in lockstep as
one vectorized batch, which keeps the search deterministic for a fixed
seed. After each sweep an extrapolation along the sweep's move is tried and
kept per restart only if it raises the value; this crosses the flat ridges
on which plain see-saw crawls. A restart freezes once a sweep raises its
value by at most ``RISE_TOL``; ``max_iter`` caps the iterations (one sweep
plus one extrapolation trial each). With ``OptimizeOptions.stop_above`` set,
the batch stops once one restart's value exceeds it by ``STOP_MARGIN``; no
value ever falls, so a full run would give the same verdict on the stop value.

The reported values are recomputed by ``make_batched_value`` at the final
settings, expressed as canonical angles ([0, pi] polar, [0, 2 pi) azimuth),
so the direct-trace ``operator_value`` reproduces them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    CLASSICAL_BOUND,
    N_PARTIES,
    VIOLATION_ATOL,
    BellKind,
    MeasurementScenario,
    _fused_coefficient_tensor,
    augmented_vectors,
    make_batched_value,
)

DEFAULT_RESTARTS = 64
DEFAULT_SEED = 1
MAX_ITERATIONS = 2000
# A restart stops once one sweep raises its value by no more than this.
RISE_TOL = 1e-13
# If the two best restart outcomes disagree by more than this, the landscape
# was not reproducibly covered and the report is flagged unconverged.
RESTART_SPREAD_TOL = 1e-6
# Covers the rounding between a sweep value and its recomputed report value.
STOP_MARGIN = 1e-12


@dataclass
class OptimizeOptions:
    restarts: int = DEFAULT_RESTARTS
    seed: int = DEFAULT_SEED
    max_iter: int = MAX_ITERATIONS
    stop_above: float | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("at least one restart required")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class ViolationReport:
    """Outcome of one multi-start maximization.

    ``residual`` is the best restart's largest first-order residual
    ``|g_s| - <g_s, v_s>`` over all parties and settings (zero at a
    stationary point); ``capped`` counts the restarts that ``max_iter``
    stopped before they froze. A run halted by ``stop_above`` is unconverged:
    its value is certified above the stop value but is not the maximum.
    """

    value: float
    scenario: MeasurementScenario
    operator: BellKind
    classical_bound: float
    violated: bool
    restarts_used: int
    converged: bool
    restart_values: np.ndarray = field(repr=False)
    residual: float = 0.0
    capped: int = 0


@functools.lru_cache(maxsize=8)
def _initial_points(restarts: int, dim: int, seed: int) -> np.ndarray:
    """Seeded uniform starts, one substream per restart; cached, so shared and read-only."""
    children = np.random.SeedSequence(seed).spawn(restarts)
    points = np.empty((restarts, dim))
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        theta = rng.uniform(0.0, np.pi, size=dim // 2)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=dim // 2)
        points[i, 0::2] = theta
        points[i, 1::2] = phi
    points.flags.writeable = False
    return points


def _angles(aug: np.ndarray) -> np.ndarray:
    """Augmented vectors -> flat canonical (theta, phi) rows."""
    v = aug[..., :3].reshape(len(aug), -1, 3)
    points = np.empty((len(aug), 2 * v.shape[1]))
    points[:, 0::2] = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    points[:, 1::2] = np.arctan2(v[..., 1], v[..., 0]) % (2.0 * np.pi)
    return points


def _party_matrices(fused: np.ndarray) -> list[np.ndarray]:
    """Per party, the fused tensor with that party's axis leading, laid out as
    an (8, 8**(n-1)) matrix that the last other party's vector multiplies."""
    return [
        np.ascontiguousarray(np.moveaxis(fused, party, 0).reshape(-1, 8).T)
        for party in range(fused.ndim)
    ]


def _contract(mats: list[np.ndarray], aug: np.ndarray, party: int) -> np.ndarray:
    """Contract the fused tensor with every party's vector but one: (rows, 2, 4)."""
    flat = aug.reshape(len(aug), -1, 8)
    others = [q for q in range(flat.shape[1]) if q != party]
    g = flat[:, others[-1]] @ mats[party]
    if len(others) == 2:
        g = np.matmul(g.reshape(-1, 8, 8), flat[:, others[0], :, None])[..., 0]
    return g.reshape(-1, 2, 4)


def _normalize_into(out: np.ndarray, v: np.ndarray) -> None:
    """Write the rows of ``v`` scaled to unit length into ``out``; a zero row
    leaves ``out`` unchanged."""
    norm = np.sqrt(np.einsum("...i,...i->...", v, v))[..., None]
    np.divide(v, norm, out=out, where=norm > 0.0)


def _sweep(mats: list[np.ndarray], aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Update each party in turn; returns the new vectors and their values."""
    aug = aug.copy()
    for party in range(aug.shape[1]):
        g = _contract(mats, aug, party)
        _normalize_into(aug[:, party, :, :3], g[..., :3])
    return aug, np.sum(g * aug[:, -1], axis=(1, 2))


def _residual(mats: list[np.ndarray], aug: np.ndarray) -> float:
    """Largest |g_s| - <g_s, v_s> over the rows, parties and settings of ``aug``."""
    gaps = []
    for party in range(aug.shape[1]):
        gs = _contract(mats, aug, party)[..., :3]
        gaps.append(np.linalg.norm(gs, axis=-1) - np.sum(gs * aug[:, party, :, :3], axis=-1))
    return float(np.max(gaps))


def _see_saw(mats: list[np.ndarray], aug: np.ndarray, max_iter: int, stop: float | None):
    """Ascend every row of ``aug``; returns (vectors, rows stopped by the cap,
    whether a value above ``stop`` ended the run; None never stops it)."""
    aug = aug.copy()
    values = np.full(len(aug), -np.inf)
    step = np.ones(len(aug))
    live = np.arange(len(aug))
    for _ in range(max_iter):
        start, before = aug[live], values[live]
        swept, after = _sweep(mats, start)
        # Extrapolate along the sweep's move and keep the trial where it wins;
        # the step doubles while trials win and falls back to 1 when one loses.
        move = swept[..., :3] - start[..., :3]
        ahead = swept.copy()
        _normalize_into(ahead[..., :3], swept[..., :3] + step[live, None, None, None] * move)
        ahead, ahead_values = _sweep(mats, ahead)
        better = ahead_values > after
        aug[live] = np.where(better[:, None, None, None], ahead, swept)
        values[live] = np.where(better, ahead_values, after)
        step[live] = np.where(better, 2.0 * step[live], 1.0)
        live = live[after - before > RISE_TOL]
        if stop is not None and values.max() > stop:
            return aug, 0, True
        if live.size == 0:
            break
    return aug, live.size, False


def optimize_operator(
    rho: np.ndarray, kind: BellKind, options: OptimizeOptions | None = None
) -> ViolationReport:
    """Maximize a Bell operator over projective measurement angles.

    The reported value is a lower bound on the true projective maximum;
    ``converged`` is False when the two best restarts disagree by more than
    the spread tolerance or ``stop_above`` halted the run. Identical seeds
    give bit-identical reports.
    """
    kind = BellKind(kind)
    options = options or OptimizeOptions()
    n = N_PARTIES[kind]
    value_fn = make_batched_value(rho, kind)
    mats = _party_matrices(_fused_coefficient_tensor(rho, kind))

    start = augmented_vectors(_initial_points(options.restarts, 4 * n, options.seed))
    stop = None if options.stop_above is None else options.stop_above + STOP_MARGIN
    aug, capped, stopped = _see_saw(mats, start.reshape(-1, n, 2, 4), options.max_iter, stop)
    points = _angles(aug)
    restart_values = value_fn(points)
    best_index = int(np.argmax(restart_values))  # ties: lowest restart index
    best_value = float(restart_values[best_index])

    top_two = np.sort(restart_values)[-2:]  # one restart is trivially converged
    converged = not stopped and bool(top_two[-1] - top_two[0] <= RESTART_SPREAD_TOL)

    bound = CLASSICAL_BOUND[kind]
    return ViolationReport(
        value=best_value,
        scenario=MeasurementScenario.from_flat(points[best_index]),
        operator=kind,
        classical_bound=bound,
        violated=bool(best_value > bound + VIOLATION_ATOL),
        restarts_used=options.restarts,
        converged=converged,
        restart_values=restart_values,
        residual=_residual(mats, aug[best_index : best_index + 1]),
        capped=capped,
    )
