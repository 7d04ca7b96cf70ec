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
plus one extrapolation trial each).

Where the maximum is flat (rho4 Svetlichny near p = 5/8, where the all-x
setting gives exactly 4) the see-saw still converges only linearly, at a
rate near 1. For three-party operators, every ``CRAWL_WINDOW`` sweeps a
restart whose rise shrank by less than ``SLOW_RATE**CRAWL_WINDOW`` over the
window takes a Riemannian Newton step on the product of the six unit
spheres (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
Manifolds (2008)), and keeps taking one each sweep while its steps are kept.
The value is linear in each party's 8-vector, so the 12x12 tangent Hessian
has only cross-party blocks (the fused tensor contracted with the third
party's vector) plus ``-<g_s, v_s>`` on the diagonal of each party and
setting. The step -H^-1 grad is retracted by normalization and kept only
where H is negative definite, the step is bounded and the value strictly
rises, so no value ever falls. Reading the rate over a window keeps the
step off restarts that converge at an ordinary rate, where it would cost
more than the sweeps it saves. Each report carries the largest eigenvalue
of the best restart's tangent Hessian (``ViolationReport.hessian_max``).

With ``OptimizeOptions.stop_above`` set,
the batch stops once one restart's value exceeds it by ``STOP_MARGIN``; no
value ever falls, so a full run would give the same verdict on the stop value.

The reported values are recomputed by ``make_batched_value`` at the final
settings, expressed as canonical angles ([0, pi] polar, [0, 2 pi) azimuth),
so the direct-trace ``operator_value`` reproduces them.
"""

from __future__ import annotations

import functools
import itertools
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
# Every CRAWL_WINDOW sweeps, a restart whose rise shrank by less than
# SLOW_RATE**CRAWL_WINDOW over the window (a mean linear rate above SLOW_RATE
# per sweep) takes a Newton step.
SLOW_RATE = 0.8
CRAWL_WINDOW = 16
# A Newton step is kept only if no tangent coordinate exceeds this (radians).
NEWTON_STEP_MAX = 1.0
# A Newton step needs the tangent Hessian's largest eigenvalue below -HESSIAN_MIN.
HESSIAN_MIN = 1e-14


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
    stopped before they froze. ``hessian_max`` is the largest eigenvalue of
    the best restart's Riemannian Hessian on the tangent space of the unit
    Bloch spheres. With a zero residual, a value below -``HESSIAN_MIN``
    certifies a strict local maximum of the settings, not the global one.
    A value within rounding of zero, of either sign, certifies nothing: a
    continuous family of maxima (GHZ-type states, for instance), a flat
    direction, or the zero operator of the maximally mixed state; a positive
    one marks a saddle. A run halted by ``stop_above`` is unconverged: its
    value is certified above the stop value but is not the maximum.
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
    hessian_max: float = 0.0


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


def _tangent_bases(v: np.ndarray) -> np.ndarray:
    """Two orthonormal tangent vectors at each unit vector of ``v`` (..., 3) -> (..., 2, 3).

    With u = (v_x, v_y) and k = 1 / (1 + |v_z|), the rows of
    [I - k u u^T | -sign(v_z) u] are orthonormal and orthogonal to v (the
    branch-free frame of Duff et al., JCGT 6(1) (2017), up to the sign of
    the second vector).
    """
    u, z = v[..., :2], v[..., 2:]
    bases = np.empty(v.shape[:-1] + (2, 3))
    bases[..., :2] = np.eye(2) - (u / (1.0 + np.abs(z)))[..., :, None] * u[..., None, :]
    bases[..., 2] = np.where(z < 0.0, u, -u)
    return bases


def _pair_matrices(fused: np.ndarray) -> np.ndarray:
    """Per party pair p < q (in ``itertools.combinations`` order), the fused
    tensor with p and q leading, laid out as an (8**(n-2), 64) matrix that the
    remaining party's vector turns into the pair's (8, 8) Euclidean Hessian block."""
    pairs = itertools.combinations(range(fused.ndim), 2)
    return np.stack([np.moveaxis(fused, pq, (0, 1)).reshape(64, -1).T for pq in pairs])


def _tangent_system(pair_mats: np.ndarray, aug: np.ndarray):
    """Riemannian gradient and Hessian of the value on the product of unit spheres.

    Returns the tangent bases (rows, n, 2, 2, 3) and, in those bases, the
    gradient (rows, 4n) and Hessian (rows, 4n, 4n), ordered party, setting,
    basis vector. The value is linear in each party's 8-vector, so its
    Euclidean Hessian has only cross-party blocks: the fused tensor contracted
    with the remaining party's vector. The sphere adds -<g_s, v_s> on the
    diagonal of each party and setting; the two settings of one party do not
    couple.
    """
    rows, n = aug.shape[:2]
    p, q = np.array(list(itertools.combinations(range(n), 2))).T
    flat = aug.reshape(rows, n, 8)
    # of three parties, 3 - p - q is the one outside the pair; two have none
    rest = flat[:, 3 - p - q, None, :] if n == 3 else np.ones((rows, 1, 1, 1))
    blocks = (rest @ pair_mats).reshape(rows, len(p), 8, 8)
    g = np.empty((rows, n, 8))
    g[:, p] = (blocks @ flat[:, q, :, None])[..., 0]
    g[:, q] = (flat[:, p, None, :] @ blocks)[..., 0, :]
    bases = _tangent_bases(aug[..., :3])
    embed = np.zeros((rows, n, 2, 4, 2, 2))  # [row, party, s, component, s', basis vector]
    for s in range(2):
        embed[:, :, s, :3, s] = bases[:, :, s].swapaxes(-1, -2)
    embed = embed.reshape(rows, n, 8, 4)
    cross = (embed[:, p].swapaxes(-1, -2) @ blocks @ embed[:, q]).swapaxes(0, 1)
    hess = np.zeros((rows, n, 4, n, 4))
    hess[:, p, :, q] = cross
    hess[:, q, :, p] = cross.swapaxes(-1, -2)
    hess = hess.reshape(rows, 4 * n, 4 * n)
    curvature = -np.sum(g.reshape(rows, n, 2, 4)[..., :3] * aug[..., :3], axis=-1)
    diagonal = np.arange(4 * n)
    hess[:, diagonal, diagonal] = np.repeat(curvature.reshape(rows, -1), 2, axis=1)
    grad = (g[:, :, None, :] @ embed)[:, :, 0].reshape(rows, 4 * n)
    return bases, grad, hess


def _newton(
    mats: list[np.ndarray], pair_mats: np.ndarray, aug: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Riemannian Newton step per row of ``aug``, retracted by normalization.

    A row keeps its trial only where the tangent Hessian is negative definite
    (its largest eigenvalue lies below -``HESSIAN_MIN``), no tangent
    coordinate of the step exceeds ``NEWTON_STEP_MAX`` (which also rejects a
    non-finite step) and the value strictly rises above ``values``.
    Returns the new vectors, their values and the mask of rows that moved.
    """
    rows, n = aug.shape[:2]
    bases, grad, hess = _tangent_system(pair_mats, aug)
    ok = np.linalg.eigvalsh(hess)[:, -1] < -HESSIAN_MIN
    step = np.zeros_like(grad)
    if ok.any():
        step[ok] = np.linalg.solve(hess[ok], -grad[ok, :, None])[..., 0]
    ok &= np.all(np.abs(step) <= NEWTON_STEP_MAX, axis=1)
    step = np.where(ok[:, None], step, 0.0).reshape(rows, n, 2, 1, 2)
    trial = aug.copy()
    _normalize_into(trial[..., :3], aug[..., :3] + (step @ bases)[..., 0, :])
    trial_values = np.sum(_contract(mats, trial, n - 1) * trial[:, -1], axis=(1, 2))
    moved = ok & (trial_values > values)
    return (
        np.where(moved[:, None, None, None], trial, aug),
        np.where(moved, trial_values, values),
        moved,
    )


def _see_saw(
    mats: list[np.ndarray], pair_mats: np.ndarray, aug: np.ndarray, max_iter: int, stop: float | None
):
    """Ascend every row of ``aug``; returns (vectors, rows stopped by the cap,
    whether a value above ``stop`` ended the run; None never stops it)."""
    aug = aug.copy()
    values = np.full(len(aug), -np.inf)
    step = np.ones(len(aug))
    anchor = np.full(len(aug), np.inf)  # each row's rise at the last window check
    polishing = np.arange(0)  # the rows whose last Newton step was kept
    three_party = aug.shape[1] == 3
    live = np.arange(len(aug))
    for sweep in range(max_iter):
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
        rise = after - before
        # The extrapolation makes one sweep's rise ratio jump above 1 and back,
        # so the rate is read over windows of CRAWL_WINDOW sweeps; the first
        # opens at sweep CRAWL_WINDOW, past the transient of the start.
        window_end = sweep > 0 and sweep % CRAWL_WINDOW == 0
        if three_party and (window_end or polishing.size):
            due = np.zeros(len(aug), dtype=bool)
            due[polishing] = True
            due = due[live]
            if window_end:
                due |= rise > SLOW_RATE**CRAWL_WINDOW * anchor[live]
                anchor[live] = rise
            crawl = live[due & (rise > RISE_TOL)]
            polishing = crawl[:0]
            if crawl.size:
                aug[crawl], values[crawl], moved = _newton(mats, pair_mats, aug[crawl], values[crawl])
                polishing = crawl[moved]
        live = live[rise > RISE_TOL]
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
    fused = _fused_coefficient_tensor(rho, kind)
    mats, pair_mats = _party_matrices(fused), _pair_matrices(fused)

    start = augmented_vectors(_initial_points(options.restarts, 4 * n, options.seed))
    stop = None if options.stop_above is None else options.stop_above + STOP_MARGIN
    aug, capped, stopped = _see_saw(mats, pair_mats, start.reshape(-1, n, 2, 4), options.max_iter, stop)
    points = _angles(aug)
    restart_values = value_fn(points)
    best_index = int(np.argmax(restart_values))  # ties: lowest restart index
    best_value = float(restart_values[best_index])
    # first- and second-order certificates of the best restart's settings
    _, grad, hess = _tangent_system(pair_mats, aug[best_index : best_index + 1])
    along = -np.diagonal(hess[0])[::2]  # <g_s, v_s> per party and setting
    tangential = np.linalg.norm(grad.reshape(-1, 2), axis=1)  # |g_s - <g_s, v_s> v_s|

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
        residual=float(np.max(np.hypot(tangential, along) - along)),
        capped=capped,
        hessian_max=float(np.linalg.eigvalsh(hess)[0, -1]),
    )
