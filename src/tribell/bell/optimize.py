"""Multi-start see-saw maximization of Bell operators.

Each operator is folded into one coefficient tensor that is multilinear in
the per-party augmented 8-vectors (``_fused_coefficient_tensor``). Its one
contraction is a party pair's 8x8 block with the remaining party's vector
(``operators._pair_block``), which gives both parties' partial contractions,
the value and the pair's Hessian block. With the other parties held fixed,
the value is linear in one party's vector, so that party's best pair of
Bloch vectors is ``g_s / |g_s|``, where ``g`` is the partial contraction and
``g_s`` its block for setting s (see-saw, e.g. Pál & Vértesi, PRA 82,
022116 (2010)). One sweep updates the parties in turn and never lowers the
value.

All restarts start from seeded random angles and are swept in lockstep as
one vectorized batch, which keeps the search deterministic for a fixed
seed; a frozen restart leaves the batch. No restart's arithmetic reads
another's, so restart k follows the same path whatever the restart count.
After each sweep an extrapolation along the sweep's move is tried and kept
per restart only if it raises the value; this crosses the flat ridges on
which plain see-saw crawls. A restart freezes once a sweep raises its
value by at most ``RISE_TOL``; ``max_iter`` caps the iterations (one sweep
plus one extrapolation trial each).

Where the maximum is flat (rho4 Svetlichny near p = 5/8, where the all-x
setting gives exactly 4) the see-saw still converges only linearly, at a
rate near 1. So every ``NEWTON_EVERY`` sweeps, for any operator, each
restart still rising takes a Riemannian Newton step on the product of the
unit Bloch spheres (Absil, Mahony & Sepulchre, Optimization Algorithms on
Matrix Manifolds (2008)); no other sweep takes one. The value is linear in
each party's 8-vector, so the tangent Hessian has only cross-party blocks
(the pair blocks in tangent bases) plus ``-<g_s, v_s>`` on the diagonal of
each party and setting. The step solves (H - ``HESSIAN_MIN`` I) s = -grad
for every restart in one batched solve and is retracted by normalization. A
restart keeps its trial exactly where the value strictly rises, the rule the
extrapolation trial follows, so no value ever falls. Each report carries the
largest Riemannian gradient norm and the largest tangent Hessian eigenvalue
at the reported settings (``ViolationReport.residual``, ``hessian_max``).

With ``OptimizeOptions.stop_above`` set,
the batch stops once one restart's value exceeds it by ``STOP_MARGIN``; no
value ever falls, so a full run would give the same verdict on the stop value.

The reported values are recomputed through the same pair block by
``make_batched_value``, at the final settings as canonical angles ([0, pi]
polar, [0, 2 pi) azimuth), so the direct-trace ``operator_value`` reproduces them.
Restarts within ``TIE_ULPS`` ulps of the best value tie, and the report takes
the lowest-indexed of them.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    N_PARTIES,
    VIOLATION_CUT,
    BellKind,
    MeasurementScenario,
    _fused_coefficient_tensor,
    _pair_block,
    _pair_matrices,
    _pair_value,
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
# Every NEWTON_EVERY sweeps, each restart still rising takes a Newton step.
NEWTON_EVERY = 16
# The Newton solve shifts the tangent Hessian by -HESSIAN_MIN I, which keeps it
# regular where a setting enters no term; hessian_max below -HESSIAN_MIN
# certifies a strict local maximum.
HESSIAN_MIN = 1e-14
# Restarts within this many ulps of the best value tie; the lowest-indexed one is reported.
TIE_ULPS = 8


@dataclass
class OptimizeOptions:
    restarts: int = DEFAULT_RESTARTS
    seed: int = DEFAULT_SEED
    max_iter: int = MAX_ITERATIONS
    stop_above: float | None = None

    def __post_init__(self):
        for name in ("restarts", "seed", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValueError("at least one restart required")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class ViolationReport:
    """Outcome of one multi-start maximization.

    ``residual`` is the largest norm, over all parties and settings, of the
    Riemannian gradient of the value at the reported settings on the unit
    Bloch spheres (zero at a stationary point); ``capped`` counts the
    restarts that ``max_iter`` stopped before they froze. ``hessian_max`` is
    the largest eigenvalue of the Riemannian Hessian at the same settings.
    With a zero residual, a value below -``HESSIAN_MIN`` certifies a strict
    local maximum of the settings, not the global one. A value within
    rounding of zero, of either sign, certifies nothing: a continuous family
    of maxima (GHZ-type states, for instance), a flat direction, or the zero
    operator of the maximally mixed state; a positive one marks a saddle. A
    run halted by ``stop_above`` is unconverged: its value is certified
    above the stop value but is not the maximum.
    """

    value: float
    scenario: MeasurementScenario
    operator: BellKind
    violated: bool
    converged: bool
    restart_values: np.ndarray = field(repr=False)
    residual: float = 0.0
    capped: int = 0
    hessian_max: float = 0.0


def _initial_points(restarts: int, dim: int, seed: int) -> np.ndarray:
    """Seeded uniform (polar, azimuth) starts from one stream, drawn row by row,
    so the first k rows do not depend on ``restarts``."""
    points = np.random.default_rng(seed).random((restarts, dim))
    points[:, 0::2] *= np.pi
    points[:, 1::2] *= 2.0 * np.pi
    return points


@functools.lru_cache(maxsize=8)
def _starts(restarts: int, dim: int, seed: int) -> np.ndarray:
    """The augmented vectors of ``_initial_points``, read-only and shared by
    every optimization with these arguments (all probes of a threshold query)."""
    start = augmented_vectors(_initial_points(restarts, dim, seed))
    start.setflags(write=False)
    return start


def _angles(aug: np.ndarray) -> np.ndarray:
    """Augmented vectors -> flat canonical (theta, phi) rows."""
    v = aug.reshape(len(aug), -1, 4)
    points = np.empty((len(aug), 2 * v.shape[1]))
    points[:, 0::2] = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    points[:, 1::2] = np.arctan2(v[..., 1], v[..., 0]) % (2.0 * np.pi)
    return points


def _normalize_into(out: np.ndarray, v: np.ndarray) -> None:
    """Write the Bloch parts of the augmented rows ``v`` (..., 4), scaled to
    unit length, into the augmented rows ``out``; a zero Bloch part leaves its
    row of ``out`` unchanged. Whole rows are divided where no norm is zero,
    which is faster than dividing the strided Bloch parts, and the constant
    components are then reset to 1."""
    bloch = v[..., :3]
    norm = np.sqrt(np.einsum("...i,...i->...", bloch, bloch))[..., None]
    if norm.min() > 0.0:
        np.divide(v, norm, out=out)
        out[..., 3] = 1.0
    else:
        np.divide(bloch, norm, out=out[..., :3], where=norm > 0.0)


def _sweep(pair_mats: np.ndarray, aug: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Update each party in turn; returns the new vectors and their values.
    Parties 0 and 1 share the pair-(0, 1) block; a third reads pair (1, 2)."""
    aug = aug.copy()
    flat = aug.reshape(len(aug), -1, 8)
    block = _pair_block(pair_mats, aug, 0)
    g = (block @ flat[:, 1, :, None]).reshape(-1, 2, 4)
    _normalize_into(aug[:, 0], g)
    g = (flat[:, 0, None, :] @ block).reshape(-1, 2, 4)
    if aug.shape[1] == 3:
        _normalize_into(aug[:, 1], g)
        g = (flat[:, 1, None, :] @ _pair_block(pair_mats, aug, 2)).reshape(-1, 2, 4)
    _normalize_into(aug[:, -1], g)
    return aug, (g * aug[:, -1]).sum(axis=(1, 2))


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


# Per party count, the party pairs p < q in ``itertools.combinations`` order.
_PAIRS = {n: np.array(list(itertools.combinations(range(n), 2))).T for n in (2, 3)}


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
    p, q = _PAIRS[n]
    flat = aug.reshape(rows, n, 8)
    blocks = np.stack([_pair_block(pair_mats, aug, k) for k in range(len(p))], axis=1)
    g = np.empty((rows, n, 8))
    g[:, p] = (blocks @ flat[:, q, :, None])[..., 0]
    g[:, q] = (flat[:, p, None, :] @ blocks)[..., 0, :]
    bases = _tangent_bases(aug[..., :3])
    embed = np.zeros((rows, n, 2, 4, 2, 2))  # [row, party, s, component, s', basis vector]
    embed[:, :, [0, 1], :3, [0, 1]] = bases.transpose(2, 0, 1, 4, 3)
    embed = embed.reshape(rows, n, 8, 4)
    cross = (embed[:, p].swapaxes(-1, -2) @ blocks @ embed[:, q]).swapaxes(0, 1)
    hess = np.zeros((rows, n, 4, n, 4))
    hess[:, p, :, q] = cross
    hess[:, q, :, p] = cross.swapaxes(-1, -2)
    hess = hess.reshape(rows, 4 * n, 4 * n)
    curvature = -np.sum((g.reshape(rows, n, 2, 4) * aug)[..., :3], axis=-1)
    diagonal = np.arange(4 * n)
    hess[:, diagonal, diagonal] = np.repeat(curvature.reshape(rows, -1), 2, axis=1)
    grad = (g[:, :, None, :] @ embed)[:, :, 0].reshape(rows, 4 * n)
    return bases, grad, hess


def _newton(
    pair_mats: np.ndarray, aug: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Riemannian Newton step per row of ``aug``, retracted by normalization.

    One batched solve gives every row's step; a row keeps its trial exactly
    where the value strictly rises above ``values``. Returns the new vectors
    and their values; ``_see_saw`` calls it on every live row once each
    ``NEWTON_EVERY`` sweeps, and at no other time.
    """
    rows, n = aug.shape[:2]
    bases, grad, hess = _tangent_system(pair_mats, aug)
    step = np.linalg.solve(hess - HESSIAN_MIN * np.eye(4 * n), -grad[..., None])
    shifted = aug.copy()
    shifted[..., :3] += (step.reshape(rows, n, 2, 1, 2) @ bases)[..., 0, :]
    trial = aug.copy()
    _normalize_into(trial, shifted)
    trial_values = _pair_value(pair_mats, trial)
    moved = trial_values > values
    return np.where(moved[:, None, None, None], trial, aug), np.where(moved, trial_values, values)


def _see_saw(pair_mats: np.ndarray, aug: np.ndarray, max_iter: int, stop: float | None):
    """Ascend every row of ``aug``; returns (vectors, rows stopped by the cap,
    whether a value above ``stop`` ended the run; None never stops it).

    Only the live rows are swept, kept compacted in ``live``'s order; each row
    is written back to the returned vectors once it freezes. No row's
    arithmetic depends on the others, so compaction changes no bit.
    """
    result = aug.copy()
    live = np.arange(len(aug))
    values = np.full(len(aug), -np.inf)
    step = np.ones(len(aug))
    top = -np.inf  # the best value of the frozen rows
    for sweep in range(max_iter):
        swept, after = _sweep(pair_mats, aug)
        # Extrapolate along the sweep's move and keep the trial where it wins;
        # the step doubles while trials win and falls back to 1 when one loses.
        ahead = swept.copy()
        _normalize_into(ahead, swept + step[:, None, None, None] * (swept - aug))
        ahead, ahead_values = _sweep(pair_mats, ahead)
        better = ahead_values > after
        rising = after - values > RISE_TOL
        aug = np.where(better[:, None, None, None], ahead, swept)
        values = np.where(better, ahead_values, after)
        step = np.where(better, 2.0 * step, 1.0)
        if not rising.all():
            result[live[~rising]] = aug[~rising]
            top = max(top, values[~rising].max())
            live, aug, values, step = (x[rising] for x in (live, aug, values, step))
        # Every NEWTON_EVERY sweeps (the first past the start's transient) each
        # row still rising takes a Newton step; no other sweep takes one.
        if sweep and not sweep % NEWTON_EVERY and live.size:
            aug, values = _newton(pair_mats, aug, values)
        if stop is not None and values.max(initial=top) > stop:
            result[live] = aug
            return result, 0, True
        if live.size == 0:
            break
    result[live] = aug
    return result, live.size, False


def _best_restart(values: np.ndarray) -> int:
    """The lowest restart index whose value is within ``TIE_ULPS`` ulps of the
    maximum. Restarts that reach one maximum differ in the last bits, so a plain
    argmax would make the reported settings hinge on rounding."""
    top = values.max()
    return int(np.argmax(values >= top - TIE_ULPS * np.spacing(abs(top))))


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
    pair_mats = _pair_matrices(_fused_coefficient_tensor(rho, kind))

    start = _starts(options.restarts, 4 * n, options.seed)
    stop = None if options.stop_above is None else options.stop_above + STOP_MARGIN
    aug, capped, stopped = _see_saw(pair_mats, start.reshape(-1, n, 2, 4), options.max_iter, stop)
    points = _angles(aug)
    restart_values = value_fn(points)
    best_index = _best_restart(restart_values)
    best_value = float(restart_values[best_index])
    # first- and second-order certificates at the reported settings
    best = augmented_vectors(points[best_index : best_index + 1]).reshape(1, n, 2, 4)
    _, grad, hess = _tangent_system(pair_mats, best)

    top_two = np.sort(restart_values)[-2:]  # one restart is trivially converged
    converged = not stopped and bool(top_two[-1] - top_two[0] <= RESTART_SPREAD_TOL)

    return ViolationReport(
        value=best_value,
        scenario=MeasurementScenario.from_flat(points[best_index]),
        operator=kind,
        violated=bool(best_value > VIOLATION_CUT[kind]),
        converged=converged,
        restart_values=restart_values,
        residual=float(np.max(np.linalg.norm(grad.reshape(-1, 2), axis=1))),
        capped=capped,
        hessian_max=float(np.linalg.eigvalsh(hess)[0, -1]),
    )
