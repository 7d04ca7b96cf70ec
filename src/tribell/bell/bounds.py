"""Closed-form operator maxima and visibility thresholds.

For the GGHZ and extended-GHZ (subclass S) pure families the projective
maxima of both operators are known in closed form as functions of the
three-tangle tau and the squared concurrence C12^2: B5 for the 99th facet
and B4 for Svetlichny's operator. The GGHZ forms B1/B3 and B2 are their
C12^2 = 0 cases, and each white-noise visibility threshold is the local
bound divided by one of them. For the rank-4..8 mixed families the
99th-facet maxima are known as functions of the mixing weight p. The
numerical optimizer is the independent cross-check for all of them.

The rank-6 expression is reproduced here with the leading factor 2 on its
radical, matching the rank-4/5 pattern; without that factor the expression
never reaches the local bound 3 and contradicts both its own published
violation threshold (the expression equals 3 at p = 0.756458 only with the
factor) and the p = 1 limit, where the state is locally equivalent to GHZ
and must reach 1 + 2 sqrt(2).
"""

from __future__ import annotations

import math

from ..states import Family
from .operators import CLASSICAL_BOUND, BellKind

NS99_LOCAL_BOUND = CLASSICAL_BOUND[BellKind.NS99]
# The mixed families whose 99th-facet maximum has a closed form in p.
NS99_MIXED_FAMILIES = (Family.RHO4, Family.RHO5, Family.RHO6, Family.RHO7, Family.RHO8)


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


def bound_rho4(p: float) -> float:
    """99th-facet maximum of the rank-4 family: (2 sqrt(16p^2-8p+10) + |1-4p|)/3."""
    p = _check_unit(p, "p")
    return (2.0 * math.sqrt(16.0 * p * p - 8.0 * p + 10.0) + abs(1.0 - 4.0 * p)) / 3.0


def bound_rho5(p: float) -> float:
    """99th-facet maximum of the rank-5 family: (2 sqrt(37p^2-4p+17) + |1-6p|)/5."""
    p = _check_unit(p, "p")
    return (2.0 * math.sqrt(37.0 * p * p - 4.0 * p + 17.0) + abs(1.0 - 6.0 * p)) / 5.0


def bound_table2(family: Family, p: float) -> float:
    """99th-facet maxima of the rank-6/7/8 families (published coefficients)."""
    family = Family(family)
    p = _check_unit(p, "p")
    if family is Family.RHO6:
        radicand = (1.0 + 10.0 * p) ** 2 + (6.0 * (1.0 - p) + abs(3.0 - 14.0 * p)) ** 2
        return (2.0 * math.sqrt(radicand) + abs(12.0 * p - 1.0)) / 11.0
    if family is Family.RHO7:
        b = (1.0 - p) / 2.0 + abs(0.26470 - 1.26470 * p)
        return (
            math.sqrt((-0.11765 + 1.11765 * p) ** 2 + b * b)
            + math.sqrt((0.11765 + 0.8824 * p) ** 2 + b * b)
            + 0.0588
            + 0.9412 * p
        )
    if family is Family.RHO8:
        c = 0.4572 * (1.0 - p) + abs(0.2571 - 1.2571 * p)
        return (
            math.sqrt((0.0857 + 0.9143 * p) ** 2 + c * c)
            + math.sqrt((-0.1428 + 1.1429 * p) ** 2 + c * c)
            + 0.0857
            + 0.9142 * p
        )
    raise ValueError(f"no tabulated bound for family {family}")


def ns99_mixed_bound(family: Family, p: float) -> float:
    """Dispatch to the closed-form 99th-facet bound of a family in NS99_MIXED_FAMILIES."""
    family = Family(family)
    if family not in NS99_MIXED_FAMILIES:
        raise ValueError(f"no closed-form ns99 bound for family {family.value}")
    if family is Family.RHO4:
        return bound_rho4(p)
    if family is Family.RHO5:
        return bound_rho5(p)
    return bound_table2(family, p)


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
