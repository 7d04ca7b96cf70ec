"""Constructors for the pure and mixed three-qubit state families.

Pure families: the generalized GHZ states cos(eta)|000> + sin(eta)|111>, the
extended-GHZ subclass S lam0|000> + lam3|110> + lam4|111>, its maximal-slice
(MS) specialization, the named states W / W-tilde and the eight GHZ-type
basis states |L,i+-> supported on a bit string and its complement, of which
GHZ is |L,1+>. A subclass-S state given by its pair (tau, C12^2) is built from
the defining relations tau = 4 lam0^2 lam4^2 and C12^2 = 4 lam0^2 lam3^2.

Mixed families rho2..rho8: one affine table. Each is p |top><top| + (1 - p)/n
rest, with rest an integer-weighted sum of projectors of trace n: W and
W-tilde for the rank-2 and rank-3 GHZ mixtures, the eight |L,i+-> for the
rank-4..8 ones.

Each parameter range has one owner, which every other module calls:
``check_eta`` the GGHZ (and MS) angle, ``check_tau_c12`` the subclass-S pair
(tau, C12^2), and ``mixed_builder`` the mixing weight p.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import qalg

NORM_ATOL = 1e-10
# State files carry rounded entries; amplitudes within this budget of unit
# norm are renormalized on ingestion, and a density matrix with no entry of
# rho - rho^dagger above it is Hermitized; anything worse is rejected.
FILE_NORM_ATOL = 1e-3


class Family(str, enum.Enum):
    GGHZ = "gghz"
    MS = "ms"
    EXT_S = "ext_s"
    GHZ = "ghz"
    W = "w"
    WTILDE = "wtilde"
    LAMBDA_BASIS = "lambda_basis"
    RHO2 = "rho2"
    RHO3 = "rho3"
    RHO4 = "rho4"
    RHO5 = "rho5"
    RHO6 = "rho6"
    RHO7 = "rho7"
    RHO8 = "rho8"


# The subclass-S families: pure states fixed by (tau, C12^2), with closed-form maxima.
SUBCLASS_S = (Family.GGHZ, Family.MS, Family.EXT_S)


def pure_state(amplitudes) -> np.ndarray:
    """Eight-amplitude state vector, renormalized exactly."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.shape[0] != 8:
        raise ValueError(f"expected 8 amplitudes, got {psi.shape[0]}")
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return qalg.check_state_vector(psi / norm)


def check_eta(family: Family, eta: float) -> None:
    """Raise unless eta lies in [0, pi/4] for gghz or in [0, pi/2] for ms (see ``ms``)."""
    top, label = (math.pi / 4, "pi/4") if family is Family.GGHZ else (math.pi / 2, "pi/2")
    if not 0.0 <= eta <= top + 1e-12:
        raise ValueError(f"eta must lie in [0, {label}], got {eta}")


def gghz(eta: float) -> np.ndarray:
    """Generalized GHZ state cos(eta)|000> + sin(eta)|111>, eta in [0, pi/4]."""
    check_eta(Family.GGHZ, eta)
    psi = np.zeros(8, dtype=complex)
    psi[0] = math.cos(eta)
    psi[7] = math.sin(eta)
    return psi


def extended_ghz(l0: float, l3: float, l4: float) -> np.ndarray:
    """Subclass-S state lam0|000> + lam3|110> + lam4|111>.

    The coefficients may carry signs but must satisfy
    lam0^2 + lam3^2 + lam4^2 = 1 to 1e-10.
    """
    norm_sq = l0 * l0 + l3 * l3 + l4 * l4
    if not abs(norm_sq - 1.0) <= NORM_ATOL:  # also rejects a non-finite entry
        raise ValueError(f"lambda triple must be finite and normalized, got {(l0, l3, l4)}")
    psi = np.zeros(8, dtype=complex)
    psi[0b000] = l0
    psi[0b110] = l3
    psi[0b111] = l4
    return psi / np.linalg.norm(psi)


def ms(eta: float) -> np.ndarray:
    """Maximal-slice state (|000> + cos(eta)|110> + sin(eta)|111>)/sqrt(2).

    The family is defined for eta in [0, pi/4]; values up to pi/2 are accepted
    with a warning so that rounded literature examples remain constructible.
    """
    check_eta(Family.MS, eta)
    if eta > math.pi / 4 + 1e-12:
        warnings.warn(
            f"MS parameter eta={eta} exceeds pi/4; state is valid but outside "
            "the family's canonical range",
            stacklevel=2,
        )
    r = 1.0 / math.sqrt(2.0)
    return extended_ghz(r, math.cos(eta) * r, math.sin(eta) * r)


def check_tau_c12(tau: float, c12sq: float) -> tuple[float, float]:
    """The pair (tau, C12^2), each clamped to [0, 1], of a subclass-S state.

    Each value may lie 1e-12 outside [0, 1] and their sum 1e-10 above 1, so
    rounded inputs pass; a non-finite value or anything further out raises
    ValueError.
    """
    ok = -1e-12 <= tau <= 1.0 + 1e-12 and -1e-12 <= c12sq <= 1.0 + 1e-12  # NaN fails
    t, c = min(max(float(tau), 0.0), 1.0), min(max(float(c12sq), 0.0), 1.0)
    if not (ok and t + c <= 1.0 + 1e-10):
        raise ValueError(f"need finite tau, C12^2 >= 0 with tau + C12^2 <= 1, got {(tau, c12sq)}")
    return t, c


def tau_c12sq(
    family: Family,
    *,
    eta: float | None = None,
    tau: float | None = None,
    c12sq: float | None = None,
) -> tuple[float, float]:
    """(tau, C12^2) of a gghz, ms or ext_s state.

    gghz has (sin^2 2eta, 0) and ms (sin^2 eta, cos^2 eta); each takes eta or
    tau, not both, and tau fixes C12^2 (0 and max(1 - tau, 0)); an ms pair sums to exactly
    1, so ``ext_s_lambdas_from_tau_c12`` (whose l0 takes a square root of 1 - tau - C12^2,
    which a sum one unit below 1 moves by 1e-8) rebuilds ``ms(eta)``. ``check_eta`` checks
    eta, as in ``gghz`` and ``ms``. A c12sq more than
    1e-12 from the family's value raises ValueError. ext_s has no angle and takes
    tau and c12sq. Every pair is returned through ``check_tau_c12``.
    """
    family = Family(family)
    _require(family in SUBCLASS_S, f"{family.value} has no (tau, C12^2) form")
    if family is Family.EXT_S:
        _require(eta is None, "ext_s has no angle eta")
        _require(tau is not None and c12sq is not None, "ext_s needs tau and c12sq")
        return check_tau_c12(tau, c12sq)
    _require((eta is None) != (tau is None), f"{family.value} takes eta or tau, exactly one")
    if eta is not None:
        check_eta(family, eta)
    if tau is None:
        tau = math.sin(2.0 * eta if family is Family.GGHZ else eta) ** 2
    # ms: a tau rounded just above 1 (which check_tau_c12 clamps) gets C12^2 = 0
    own = 0.0 if family is Family.GGHZ else max(1.0 - tau, 0.0)
    # 1e-12 forgives the rounding of 1 - tau, so an ms --c12sq of 0.2 fits tau 0.8.
    _require(
        c12sq is None or abs(c12sq - own) <= 1e-12,
        f"a {family.value} state has C12^2 = {own:g}; only ext_s takes other values",
    )
    return check_tau_c12(tau, own)


def ext_s_lambdas_from_tau_c12(tau: float, c12sq: float) -> tuple[float, float, float]:
    """Invert tau = 4 l0^2 l4^2, C12^2 = 4 l0^2 l3^2 for a subclass-S state.

    The pair goes through ``check_tau_c12``. With the norm, the two relations give
    l0^2 (1 - l0^2) = (tau + C12^2)/4, whose larger root (l0 >= 1/sqrt(2)) is
    returned; both roots give the same tau, C12^2 and hence the same operator
    bounds. l3 and l4 then come from their own relations, so 4 l0^2 l4^2 returns
    tau to rounding even where tau is far below the norm's rounding.
    """
    tau, c12sq = check_tau_c12(tau, c12sq)
    disc = math.sqrt(max(1.0 - (tau + c12sq), 0.0))
    l0_sq = (1.0 + disc) / 2.0
    l0 = math.sqrt(l0_sq)
    l3 = math.sqrt(c12sq / (4.0 * l0_sq))
    l4 = math.sqrt(tau / (4.0 * l0_sq))
    return l0, l3, l4


def w_state() -> np.ndarray:
    return pure_state([0, 1, 1, 0, 1, 0, 0, 0])


def w_tilde_state() -> np.ndarray:
    return pure_state([0, 0, 0, 1, 0, 1, 1, 0])


# |L,i+-> = (|u_i> +- |complement(u_i)>)/sqrt(2) for the four bit strings
# below; index 1 is the GHZ pair (000, 111).
_LAMBDA_SUPPORT = {1: (0b000, 0b111), 2: (0b110, 0b001), 3: (0b101, 0b010), 4: (0b011, 0b100)}


def lambda_basis(index: int, sign: int) -> np.ndarray:
    """GHZ-type basis state |L,index +-> with sign +1 or -1."""
    if index not in _LAMBDA_SUPPORT:
        raise ValueError(f"lambda basis index must be 1..4, got {index}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    hi, lo = _LAMBDA_SUPPORT[index]
    psi = np.zeros(8, dtype=complex)
    psi[hi] = 1.0 / math.sqrt(2.0)
    psi[lo] = sign / math.sqrt(2.0)
    return psi


def ghz_state() -> np.ndarray:
    """GHZ = (|000> + |111>)/sqrt(2), the basis state |L,1+>."""
    return lambda_basis(1, 1)


# Mixed families p |top><top| + (1 - p)/n rest: top, the states whose projectors
# make up rest, and their integer weights, which sum to n = tr(rest). rho2 and rho3
# mix GHZ with W and W-tilde (rho3 weights W-tilde by k - 1, so n = k). rho4..rho8
# weight the |L,i+-> in the order 1+, 1-, 2+, ..., 4-; with the paper's
# Omega = P(1+) + P(1-) and Pi = P(2+) + P(3+) + P(4+), rho4 rests on Pi and rho6
# on Omega + 3 Pi.
_W_PAIR = (w_state(), w_tilde_state())
_LAMBDA_BASIS = tuple(lambda_basis(i, sign) for i in (1, 2, 3, 4) for sign in (1, -1))
_MIXED = {
    Family.RHO2: (ghz_state(), _W_PAIR, (1, 0)),
    Family.RHO3: (ghz_state(), _W_PAIR, None),
    Family.RHO4: (lambda_basis(1, 1), _LAMBDA_BASIS, (0, 0, 1, 0, 1, 0, 1, 0)),
    Family.RHO5: (lambda_basis(1, 1), _LAMBDA_BASIS, (0, 1, 3, 0, 3, 0, 3, 0)),
    Family.RHO6: (lambda_basis(2, -1), _LAMBDA_BASIS, (1, 1, 3, 0, 3, 0, 3, 0)),
    Family.RHO7: (lambda_basis(3, -1), _LAMBDA_BASIS, (3, 3, 9, 1, 9, 0, 9, 0)),
    Family.RHO8: (lambda_basis(4, -1), _LAMBDA_BASIS, (3, 3, 9, 1, 9, 1, 9, 0)),
}
MIXED_FAMILIES = tuple(_MIXED)


def mixed_builder(family: Family, k: int | None = None) -> Callable[[float], np.ndarray]:
    """Map a mixing weight p in [0, 1] to the density matrix of a mixed family; the
    builder is the one check of p."""
    family = Family(family)
    _require(family in _MIXED, f"{family.value} has no mixing-weight builder")
    top, basis, weights = _MIXED[family]
    if family is Family.RHO3:
        _require(k is not None, f"{family.value} requires the integer k")
        _require(
            isinstance(k, (int, np.integer)) and k >= 1, f"k must be a positive integer, got {k!r}"
        )
        weights = (1, k - 1)
    top = qalg.projector(top)
    rest = sum(w * qalg.projector(psi) for w, psi in zip(weights, basis) if w)
    n = sum(weights)

    def build(p: float) -> np.ndarray:
        _require(0.0 <= p <= 1.0, f"mixing weight must lie in [0,1], got {p}")
        return p * top + (1.0 - p) / n * rest

    return build


# Pure families: the keywords each takes, in call order, and its state vector.
_PURE_BUILDERS = {
    Family.GGHZ: (("eta",), gghz),
    Family.MS: (("eta",), ms),
    Family.EXT_S: (("lambdas",), lambda lambdas: extended_ghz(*lambdas)),
    Family.GHZ: ((), ghz_state),
    Family.W: ((), w_state),
    Family.WTILDE: ((), w_tilde_state),
    Family.LAMBDA_BASIS: (("basis_index", "sign"), lambda_basis),
}


def reject_foreign(family: Family, **given) -> None:
    """Raise ValueError if a keyword that is not None is not one the family takes."""
    family = Family(family)
    if family in _MIXED:
        own = ("p", "k") if family is Family.RHO3 else ("p",)
    else:
        own = _PURE_BUILDERS[family][0]
    foreign = [name for name, value in given.items() if value is not None and name not in own]
    _require(not foreign, f"{family.value} does not take {', '.join(foreign)}")


def family_state(
    family: Family,
    *,
    eta: float | None = None,
    lambdas: Sequence[float] | None = None,
    p: float | None = None,
    k: int | None = None,
    basis_index: int | None = None,
    sign: int | None = None,
) -> np.ndarray:
    """Density matrix for any family (pure families become projectors).

    Each family takes only its own keywords, all of them required: eta (gghz,
    ms), lambdas (ext_s), p (rho2..rho8), k (rho3), basis_index and sign
    (lambda_basis); any other keyword that is not None raises ValueError.
    """
    family = Family(family)
    given = dict(eta=eta, lambdas=lambdas, p=p, k=k, basis_index=basis_index, sign=sign)
    reject_foreign(family, **given)
    mixed = family in _MIXED
    # a missing or invalid k raises in mixed_builder
    own, build = (("p",), mixed_builder(family, k)) if mixed else _PURE_BUILDERS[family]
    missing = [name for name in own if given[name] is None]
    _require(not missing, f"{family.value} requires {', '.join(missing)}")
    state = build(*(given[name] for name in own))
    return qalg.check_density_matrix(state) if mixed else qalg.projector(state)


def white_noise_mix(rho: np.ndarray, alpha: float) -> np.ndarray:
    """Visibility mix alpha*rho + (1-alpha) I/8."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    rho = qalg.check_density_matrix(rho)
    d = rho.shape[0]
    return alpha * rho + (1.0 - alpha) * np.eye(d, dtype=complex) / d


def load_state_file(path) -> np.ndarray:
    """Read a JSON state document and return an 8x8 density matrix.

    Two layouts are accepted: ``{"amplitudes": [[re, im] x 8]}`` for a pure
    state (renormalized if the rounded norm is within 1e-3 of one) and
    ``{"density": [[[re, im] x 8] x 8]}`` for a general density matrix
    (Hermitized if no entry of rho - rho^dagger exceeds 1e-3 in modulus).
    """
    text = Path(path).read_text(encoding="utf-8")
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"state file must hold a JSON object, got {type(doc).__name__}")
    if "amplitudes" in doc:
        pairs = _json_list(doc["amplitudes"], "amplitudes")
        if len(pairs) != 8:
            raise ValueError(f"state file must list 8 amplitudes, got {len(pairs)}")
        psi = np.array([_complex_entry(e) for e in pairs])
        if not np.all(np.isfinite(psi)):
            raise ValueError("state file amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > FILE_NORM_ATOL:
            raise ValueError(f"state vector norm {norm} too far from 1")
        return qalg.projector(psi / norm)
    if "density" in doc:
        rows = [_json_list(row, "density rows") for row in _json_list(doc["density"], "density")]
        lengths = [len(row) for row in rows]
        if lengths != [8] * 8:
            raise ValueError(
                f"state file density must be 8 rows of 8 [re, im] pairs, got row lengths {lengths}"
            )
        mat = np.array([[_complex_entry(e) for e in row] for row in rows])
        skew = float(np.max(np.abs(mat - mat.conj().T)))
        if skew > FILE_NORM_ATOL:
            raise ValueError(f"state file density is not Hermitian: |rho - rho^dagger| reaches {skew}")
        mat = (mat + mat.conj().T) / 2.0
        return qalg.check_density_matrix(mat, name="state file density")
    raise ValueError("state file must contain 'amplitudes' or 'density'")


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"state file {name} must be a JSON list, got {value!r}")
    return value


def _complex_entry(entry) -> complex:
    """One ``[re, im]`` pair of a state file; any other entry raises ValueError."""
    try:
        re, im = entry
        return complex(float(re), float(im))
    except (TypeError, ValueError):
        raise ValueError(f"state file entries must be [re, im] pairs, got {entry!r}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)
