"""Closed-form operator maxima and visibility thresholds.

For the GGHZ and extended-GHZ (subclass S) pure families the projective
maxima of both operators are known in closed form as functions of the
three-tangle tau and the squared concurrence C12^2: B5 for the 99th facet
and B4 for Svetlichny's operator. The GGHZ forms B1/B3 and B2 are their
C12^2 = 0 cases, and each white-noise visibility threshold is the local
bound divided by one of them. This module checks no range itself: every
(tau, C12^2) goes through ``states.check_tau_c12`` and every mixing weight
through ``states.mixed_builder``.

Every real three-qubit X state (entries only on the diagonal and the
anti-diagonal, all real) has an exact maximum of each operator, with
settings that attain it: ``ns99_x_max`` and ``svetlichny_x_max``. The
class holds the rank-4..8 mixed families at every weight, every GGHZ state,
and GGHZ under any product of the depolarizing and amplitude-damping
channels. Both rest on one in-plane maximum, ``_in_plane_max``. The
numerical optimizer is the independent cross-check for all of them.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .. import qalg
from ..states import Family, check_tau_c12, mixed_builder
from .operators import CLASSICAL_BOUND, VIOLATION_CUT, BellKind, MeasurementScenario

NS99_LOCAL_BOUND = CLASSICAL_BOUND[BellKind.NS99]
# Pauli-tensor entries (X, Y, Z, I order) a real X state can carry: the {Z, I}^3
# block and the in-plane xxx, xyy, yxy, yyx (an X state's coherences flip all
# three qubits; real ones carry an even number of Y).
_REAL_X_ENTRIES = np.zeros((4, 4, 4), dtype=bool)
_REAL_X_ENTRIES[np.ix_((2, 3), (2, 3), (2, 3))] = True
_REAL_X_ENTRIES[(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)] = True
X_STATE_ATOL = 1e-12


def bound_b4(tau: float, c12sq: float) -> float:
    """Svetlichny maximum for subclass S.

    4 sqrt(1 - tau) for tau <= (1 - C12^2)/3, else 4 sqrt(C12^2 + 2 tau).
    """
    tau, c12sq = check_tau_c12(tau, c12sq)
    if tau <= (1.0 - c12sq) / 3.0:
        return 4.0 * math.sqrt(1.0 - tau)
    return 4.0 * math.sqrt(c12sq + 2.0 * tau)


def bound_b5(tau: float, c12sq: float) -> float:
    """99th-facet maximum for subclass S.

    3 for tau <= C12^2 (1 - C12^2) / (1 + C12^2), else
    1 + sqrt(A + 2C) + sqrt(A - 2C) with A = 1 + tau and
    C = sqrt(C12^2 (1 - tau - C12^2)).
    """
    tau, c12sq = check_tau_c12(tau, c12sq)
    threshold = c12sq * (1.0 - c12sq) / (1.0 + c12sq)
    if tau <= threshold:
        return NS99_LOCAL_BOUND
    a = 1.0 + tau
    c = math.sqrt(max(c12sq * (1.0 - tau - c12sq), 0.0))
    return 1.0 + math.sqrt(max(a + 2.0 * c, 0.0)) + math.sqrt(max(a - 2.0 * c, 0.0))


def bound_b1_b3(tau: float) -> float:
    """99th-facet maximum 1 + 2 sqrt(1 + tau) of a GGHZ state: B5 at C12^2 = 0."""
    return bound_b5(tau, 0.0)


def bound_b2(tau: float) -> float:
    """Svetlichny maximum of a GGHZ state, B4 at C12^2 = 0.

    4 sqrt(1 - tau) for tau <= 1/3, else 4 sqrt(2 tau).
    """
    return bound_b4(tau, 0.0)


def _x_leak(r: np.ndarray) -> float:
    """The largest Pauli entry of ``r`` outside the real-X pattern."""
    return float(np.abs(np.where(_REAL_X_ENTRIES, 0.0, r)).max())


def is_real_x_state(rho: np.ndarray) -> bool:
    """Whether a three-qubit state is an X state with real coherences, up to
    ``X_STATE_ATOL`` in every Pauli entry outside the pattern; the test that
    decides which states take the exact maxima."""
    return _x_leak(qalg.pauli_tensor(rho, 3)) <= X_STATE_ATOL


class NotRealXStateError(ValueError):
    """An exact X-state maximum was asked of a state that is not a real X state."""


def _x_entries(rho: np.ndarray) -> list[float]:
    """The Pauli entries a, d, b, g = T_xxx, T_xyy, T_yxy, T_yyx, then T_zzz and the
    pair correlators t_AB, t_AC, t_BC of a real X state; other states raise
    NotRealXStateError."""
    r = qalg.pauli_tensor(rho, 3)
    leak = _x_leak(r)
    if not leak <= X_STATE_ATOL:  # is_real_x_state's test, on the tensor at hand
        raise NotRealXStateError(f"state is not a real X state: off entry {leak:.3g}")
    return r[(0, 0, 1, 1, 2, 2, 2, 3), (0, 1, 0, 1, 2, 2, 3, 2), (0, 1, 1, 0, 2, 3, 2, 2)].tolist()


def _in_plane_max(a: float, d: float, b: float, g: float) -> tuple[float, float, float]:
    """M(a, d, b, g): the largest singular value of [[a cos f, b sin f], [g sin f, d cos f]]
    maximized over f, with a maximizing (cos f, sin f), f in [0, pi/2].

    The singular value is
    sigma_1 = (|((a + d) cos, (g - b) sin)| + |((a - d) cos, (b + g) sin)|) / 2,
    in c = cos^2 f a sum of square roots of affine functions, so it is
    concave on [0, 1] and peaks at c = 0, c = 1 or where its derivative
    vanishes; squared, that condition is linear in c. (Flipping the sign of
    sin f leaves the singular values alone.)
    """
    # the two squared norms are p0 + dp c and q0 + dq c
    p0, q0 = (g - b) ** 2, (b + g) ** 2
    dp, dq = (a + d) ** 2 - p0, (a - d) ** 2 - q0
    ends = [0.0, 1.0]
    if dp * dq * (dp - dq):
        # dp^2 (q0 + dq c) = dq^2 (p0 + dp c); a spurious root of it only adds a lower candidate
        root = (dq * dq * p0 - dp * dp * q0) / (dp * dq * (dp - dq))
        ends.append(min(max(root, 0.0), 1.0))
    value, c = max(
        (0.5 * (math.sqrt(max(p0 + dp * c, 0.0)) + math.sqrt(max(q0 + dq * c, 0.0))), c)
        for c in ends
    )
    return value, math.sqrt(c), math.sqrt(1.0 - c)


class XStateMaximum(NamedTuple):
    """An operator's exact maximum on a real X state, and settings that attain it."""

    value: float
    scenario: MeasurementScenario


# Settings are (polar, azimuth) angle pairs.
def _axis(sign: float) -> tuple[float, float]:
    """Along +z for a positive sign, else along -z."""
    return (0.0, 0.0) if sign > 0.0 else (math.pi, 0.0)


def _plane(azimuth: float) -> tuple[float, float]:
    """In the x-y plane at ``azimuth``."""
    return (0.5 * math.pi, azimuth)


def _top_singular_pair(m00: float, m01: float, m10: float, m11: float) -> tuple[float, float]:
    """Azimuths of unit x, y in the plane with x^T m y = sigma_1(m), m = [[m00, m01], [m10, m11]]."""
    # y is the major axis of m^T m, at half the angle of (diagonal difference, 2 x off-diagonal)
    y = 0.5 * math.atan2(2.0 * (m00 * m01 + m10 * m11), m00**2 + m10**2 - m01**2 - m11**2)
    cy, sy = math.cos(y), math.sin(y)
    return math.atan2(m10 * cy + m11 * sy, m00 * cy + m01 * sy), y


def _scenario(angles) -> MeasurementScenario:
    """(polar, azimuth) pairs in scenario order A0, A1, B0, B1, C0, C1, azimuths made canonical."""
    angles = np.array(angles)
    angles[:, 1] %= 2.0 * math.pi
    return MeasurementScenario(angles)


def svetlichny_x_max(rho: np.ndarray) -> XStateMaximum:
    """Exact Svetlichny maximum of a real X state, 4 max(M(a, d, b, g), M(a, d, b, -g), |T_zzz|),
    with a = T_xxx, d = T_xyy, b = T_yxy, g = T_yyx and M as in ``_in_plane_max``.

    Any other Pauli content raises NotRealXStateError. Proof. With a0 + a1 = 2 cos t u,
    a1 - a0 = 2 sin t w (u, w orthonormal), beta = b0 + i b1 and gamma = c0 + i c1,
    the operator is 2 Re[beta^H (cos t T(u) + i sin t T(w)) gamma], T(v) the B x C
    matrix of the correlation tensor contracted with v on A. As
    |beta|^2 = |gamma|^2 = 2, S <= 4 sigma_1(cos t T(u) + i sin t T(w)). For a real X
    state T(v) is block diagonal, Q(v) = [[a v_x, b v_y], [g v_y, d v_x]] in the
    plane and T_zzz v_z on z, so sigma_1 is the larger block's.
    1. The z block is |T_zzz| |cos t u_z + i sin t w_z| <= |T_zzz|.
    2. The plane block is Q(v) with v = K (cos t, i sin t), K = [u_xy, w_xy] a
       real 2 x 2 contraction. sigma_1 is convex in K, so over the
       contractions it is largest at an extreme point, an orthogonal K, where
       v is a unit vector of C^2.
    3. For unit v with Bloch vector n, |Q(v)|_F^2 = (a^2 + d^2)(1 + n_z)/2
       + (b^2 + g^2)(1 - n_z)/2 and, as det Q(v) = ad v_x^2 - bg v_y^2,
       4 |det Q(v)|^2 = a^2 d^2 (1 + n_z)^2 + b^2 g^2 (1 - n_z)^2 - 2 abdg (n_x^2 - n_y^2).
       So sigma_1^2 = (|Q|_F^2 + sqrt(|Q|_F^4 - 4 |det Q|^2)) / 2 is monotone in
       n_x^2 - n_y^2 at fixed n_z, and its maximum over the sphere lies on the
       circle n_y = 0 or on the circle n_x = 0.
    4. On n_y = 0, v is real up to a phase: sigma_1(Q(u)) for a real unit u,
       at most M(a, d, b, g). On n_x = 0, v = (cos t, i sin t) up to a phase and
       Q(v) = diag(1, -i) [[a cos t, b sin t], [-g sin t, d cos t]] diag(1, i): at
       most M(a, d, b, -g).
    The returned settings attain the bound: for |T_zzz|, every axis along z,
    C's with the sign of T_zzz;
    a0 = a1 = u, b0 = b1 = x, c0 = c1 = y, with x, y the top singular pair of
    Q(u), for M(a, d, b, g); and for M(a, d, b, -g), a1 = u = (cos t, sin t),
    b0 = x, c0 = y, the top singular pair of the second matrix above, with
    each party's other setting the mirror image (y -> -y) of its first.
    """
    a, d, b, g, zzz, _, _, _ = _x_entries(rho)
    real, cos_r, sin_r = _in_plane_max(a, d, b, g)
    flip, cos_f, sin_f = _in_plane_max(a, d, b, -g)
    top = max(real, flip, abs(zzz))
    if top == real:
        x, y = _top_singular_pair(a * cos_r, b * sin_r, g * sin_r, d * cos_r)
        u = math.atan2(sin_r, cos_r)
        settings = [_plane(u), _plane(u), _plane(x), _plane(x), _plane(y), _plane(y)]
    elif top == flip:
        x, y = _top_singular_pair(a * cos_f, b * sin_f, -g * sin_f, d * cos_f)
        u = math.atan2(sin_f, cos_f)
        settings = [_plane(-u), _plane(u), _plane(x), _plane(-x), _plane(y), _plane(-y)]
    else:
        up, c = _axis(1.0), _axis(zzz)
        settings = [up, up, up, up, c, c]
    return XStateMaximum(4.0 * top, _scenario(settings))


def ns99_x_max(rho: np.ndarray) -> XStateMaximum:
    """Exact 99th-facet maximum of a real X state: the larger of two branches,
    |t_AB| + hypot(t_BC, M) + hypot(t_AC, M) with M = M(a, d, b, g) (see
    ``svetlichny_x_max``), and the best all-z assignment.

    Any other Pauli content raises NotRealXStateError. Proof. The facet's value is
    a1^T T_AB b1 + b1^T T_BC c0 + a1^T T_AC c1 + a0^T T(., ., c0 - c1) b0. For a
    real X state each pair tensor is its zz entry t alone, and T(., ., w) is
    block diagonal: [[a w_x, d w_y], [b w_y, g w_x]] in the plane, whose
    sigma_1 is at most M |w_xy| (M is the in-plane tensor's spectral norm,
    whichever party carries the vector), and T_zzz w_z on z. Maximizing over
    a0, b0 gives the larger block's sigma_1, and the rest depends on c0, c1
    only through their z components z0, z1 and the plane part of c0 - c1,
    whose length is at most r0 + r1 (r_i = sqrt(1 - z_i^2)) in any direction.
    Over a1, b1, the pair terms peak at a1, b1 = s_a z, s_b z.
    - Plane block: s_a s_b t_AB + (s_b z0 t_BC + r0 M) + (s_a z1 t_AC + r1 M) peaks
      at |t_AB| + hypot(t_BC, M) + hypot(t_AC, M).
    - z block: s_a s_b t_AB + s_b z0 t_BC + s_a z1 t_AC + |T_zzz| |z0 - z1| is
      convex in each z_i, so it peaks at z0, z1 = c0, c1 in {-1, 1}.
    The returned settings attain the larger branch.
    """
    a, d, b, g, zzz, t_ab, t_ac, t_bc = _x_entries(rho)
    m = _in_plane_max(a, d, b, g)[0]
    plane = abs(t_ab) + math.hypot(t_bc, m) + math.hypot(t_ac, m)
    all_z, sa, sb, c0, c1 = max(
        (sa * sb * t_ab + sb * c0 * t_bc + sa * c1 * t_ac + abs(zzz) * abs(c0 - c1), sa, sb, c0, c1)
        for sa, sb, c0, c1 in itertools.product((1.0, -1.0), repeat=4)
    )
    if plane >= all_z:
        sa, sb = 1.0, math.copysign(1.0, t_ab)
        # c0 - c1 runs along the plane direction w that attains M on C, with length r0 + r1
        _, cos_w, sin_w = _in_plane_max(a, g, d, b)
        x, y = _top_singular_pair(a * cos_w, d * sin_w, b * sin_w, g * cos_w)
        w = math.atan2(sin_w, cos_w)
        c0 = (math.atan2(m, sb * t_bc), w)
        c1 = (math.atan2(m, sa * t_ac), w + math.pi)
        settings = [_plane(x), _axis(sa), _plane(y), _axis(sb), c0, c1]
    else:
        settings = [_axis(1.0), _axis(sa), _axis(zzz * (c0 - c1)), _axis(sb), _axis(c0), _axis(c1)]
    return XStateMaximum(max(plane, all_z), _scenario(settings))


# The exact maximum of each three-party operator on a real X state.
X_STATE_MAXIMUM = {BellKind.NS99: ns99_x_max, BellKind.SVETLICHNY: svetlichny_x_max}


# Unread in src/: perfbench's threshold and scan checks and the tests use it.
def ns99_mixed_bound(family: Family, p: float) -> float:
    """99th-facet maximum of a mixed family's real X state at mixing weight p."""
    return ns99_x_max(mixed_builder(family)(p)).value


def chsh_pure_max(c12sq: float) -> float:
    """CHSH maximum 2 sqrt(1 + C12^2) of a pure two-qubit state."""
    c12sq = check_tau_c12(0.0, c12sq)[1]
    return 2.0 * math.sqrt(1.0 + c12sq)


def visibility_threshold(kind: BellKind, tau: float, c12sq: float = 0.0) -> float | None:
    """Largest white-noise visibility at which a subclass-S state stays local.

    Every term of both three-party operators is a product of traceless Pauli
    observables, so the white noise in alpha |psi><psi| + (1 - alpha) I/8
    adds nothing and the maximum scales as alpha times the pure maximum (B5
    or B4): the threshold is the local bound divided by that maximum. Returns
    None when that maximum does not exceed ``VIOLATION_CUT``, the cut of every
    violation verdict (no threshold below 1).
    CHSH, a two-party operator, raises ValueError.
    """
    kind = BellKind(kind)
    if kind is BellKind.CHSH:
        raise ValueError("no visibility threshold for operator chsh")
    maximum = (bound_b5 if kind is BellKind.NS99 else bound_b4)(tau, c12sq)
    if maximum <= VIOLATION_CUT[kind]:
        return None
    return CLASSICAL_BOUND[kind] / maximum
