"""Closed-form operator maxima and visibility thresholds.

For the GGHZ and extended-GHZ (subclass S) pure families the projective
maxima of both operators are known in closed form as functions of the
three-tangle tau and the squared concurrence C12^2: B5 for the 99th facet
and B4 for Svetlichny's operator. The GGHZ forms B1/B3 and B2 are their
C12^2 = 0 cases, and each white-noise visibility threshold is the local
bound divided by one of them. The rank-4..8 mixed families are diagonal in
the GHZ basis with real coherences, and for every such state the 99th-facet
maximum has one exact form, ``ns99_ghz_diagonal_max``. The numerical
optimizer is the independent cross-check for all of them.
"""

from __future__ import annotations

import math

import numpy as np

from .. import qalg
from ..states import Family, mixed_builder
from .operators import CLASSICAL_BOUND, BellKind

NS99_LOCAL_BOUND = CLASSICAL_BOUND[BellKind.NS99]
# The mixed families whose 99th-facet maximum has a closed form in p: the GHZ-diagonal ones.
NS99_MIXED_FAMILIES = (Family.RHO4, Family.RHO5, Family.RHO6, Family.RHO7, Family.RHO8)
# Pauli-tensor entries (X, Y, Z, I order) a GHZ-diagonal state with real coherences
# can carry: the trace, the three zz pairs and the in-plane xxx, xyy, yxy, yyx.
_GHZ_DIAGONAL_ENTRIES = tuple(zip((3, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2),
                                  (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))


def _check_unit(value: float, name: str) -> float:
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"{name} must lie in [0,1], got {value}")
    return min(max(value, 0.0), 1.0)


def _check_tau_c12(tau: float, c12sq: float) -> tuple[float, float]:
    tau = _check_unit(tau, "tau")
    c12sq = _check_unit(c12sq, "C12^2")
    if tau + c12sq > 1.0 + 1e-10:
        raise ValueError(f"infeasible pair: tau + C12^2 = {tau + c12sq} > 1")
    return tau, c12sq


def bound_b4(tau: float, c12sq: float) -> float:
    """Svetlichny maximum for subclass S.

    4 sqrt(1 - tau) for tau <= (1 - C12^2)/3, else 4 sqrt(C12^2 + 2 tau).
    """
    tau, c12sq = _check_tau_c12(tau, c12sq)
    if tau <= (1.0 - c12sq) / 3.0:
        return 4.0 * math.sqrt(1.0 - tau)
    return 4.0 * math.sqrt(c12sq + 2.0 * tau)


def bound_b5(tau: float, c12sq: float) -> float:
    """99th-facet maximum for subclass S.

    3 for tau <= C12^2 (1 - C12^2) / (1 + C12^2), else
    1 + sqrt(A + 2C) + sqrt(A - 2C) with A = 1 + tau and
    C = sqrt(C12^2 (1 - tau - C12^2)).
    """
    tau, c12sq = _check_tau_c12(tau, c12sq)
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


def ns99_ghz_diagonal_max(rho: np.ndarray) -> float:
    """Exact 99th-facet maximum of a GHZ-diagonal state with real coherences.

    Such a state shows the facet only its zz pair correlators t and the
    in-plane three-body entries a = T_xxx, d = T_xyy, b = T_yxy, g = T_yyx;
    any other Pauli coefficient above 1e-12 raises ValueError. The maximum is
    |t_AB| + hypot(t_BC, M) + hypot(t_AC, M), with M the largest singular
    value of A(phi) = T(cos phi x + sin phi y, ., .) = [[a cos, b sin], [g sin, d cos]]
    over phi. Its singular value
    sigma_1 = (|((a + d) cos, (g - b) sin)| + |((a - d) cos, (b + g) sin)|) / 2
    is, in c = cos^2 phi, a sum of square roots of affine functions, so it is
    concave on [0, 1] and peaks at c = 0, c = 1 or where its derivative
    vanishes; squared, that condition is linear in c.
    """
    r = qalg.pauli_tensor(rho, 3)
    outside = r.copy()
    outside[_GHZ_DIAGONAL_ENTRIES] = 0.0
    leak = float(np.abs(outside).max())
    if leak > 1e-12:
        raise ValueError(f"state is not GHZ-diagonal with real coherences: off entry {leak:.3g}")
    t_ab, t_ac, t_bc = r[2, 2, 3], r[2, 3, 2], r[3, 2, 2]
    a, d, b, g = r[0, 0, 0], r[0, 1, 1], r[1, 0, 1], r[1, 1, 0]
    # the two squared norms are p0 + dp c and q0 + dq c
    p0, q0 = (g - b) ** 2, (b + g) ** 2
    dp, dq = (a + d) ** 2 - p0, (a - d) ** 2 - q0
    ends = [0.0, 1.0]
    if dp * dq * (dp - dq):
        # dp^2 (q0 + dq c) = dq^2 (p0 + dp c); a spurious root of it only adds a lower candidate
        root = (dq * dq * p0 - dp * dp * q0) / (dp * dq * (dp - dq))
        ends.append(min(max(root, 0.0), 1.0))
    m = max(
        0.5 * (math.sqrt(max(p0 + dp * c, 0.0)) + math.sqrt(max(q0 + dq * c, 0.0)))
        for c in ends
    )
    return float(abs(t_ab) + math.hypot(t_bc, m) + math.hypot(t_ac, m))


def ns99_mixed_bound(family: Family, p: float) -> float:
    """99th-facet maximum of a family in NS99_MIXED_FAMILIES at mixing weight p."""
    family = Family(family)
    if family not in NS99_MIXED_FAMILIES:
        raise ValueError(f"no closed-form ns99 bound for family {family.value}")
    return ns99_ghz_diagonal_max(mixed_builder(family)(_check_unit(p, "p")))


def chsh_pure_max(c12sq: float) -> float:
    """CHSH maximum 2 sqrt(1 + C12^2) of a pure two-qubit state."""
    c12sq = _check_unit(c12sq, "C12^2")
    return 2.0 * math.sqrt(1.0 + c12sq)


def visibility_threshold(kind: BellKind, tau: float, c12sq: float = 0.0) -> float | None:
    """Largest white-noise visibility at which a subclass-S state stays local.

    Every term of both three-party operators is a product of traceless Pauli
    observables, so the white noise in alpha |psi><psi| + (1 - alpha) I/8
    adds nothing and the maximum scales as alpha times the pure maximum (B5
    or B4): the threshold is the local bound divided by that maximum. Returns
    None when the pure state itself does not violate (no threshold below 1).
    CHSH, a two-party operator, raises ValueError.
    """
    kind = BellKind(kind)
    if kind is BellKind.CHSH:
        raise ValueError("no visibility threshold for operator chsh")
    maximum = (bound_b5 if kind is BellKind.NS99 else bound_b4)(tau, c12sq)
    bound = CLASSICAL_BOUND[kind]
    if maximum <= bound + 1e-12:
        return None
    return bound / maximum
