"""Constructors for the pure and mixed three-qubit state families.

Pure families: the generalized GHZ states cos(eta)|000> + sin(eta)|111>, the
extended-GHZ subclass lam0|000> + lam3|110> + lam4|111>, its maximal-slice
(MS) specialization, the named states GHZ / W / W-tilde and the eight
GHZ-type basis states |L,i+-> supported on a bit string and its complement.

Mixed families: the GHZ/W mixtures of rank 2 and 3, and the rank-4..8
mixtures built from the |L,i+-> projectors.
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
# State files carry rounded amplitudes; anything within this budget of unit
# norm is renormalized on ingestion, anything worse is rejected.
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


def pure_state(amplitudes, normalize: bool = False) -> np.ndarray:
    """Eight-amplitude state vector; optionally renormalized exactly."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.shape[0] != 8:
        raise ValueError(f"expected 8 amplitudes, got {psi.shape[0]}")
    if normalize:
        norm = float(np.linalg.norm(psi))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        psi = psi / norm
    return qalg.check_state_vector(psi)


def gghz(eta: float) -> np.ndarray:
    """Generalized GHZ state cos(eta)|000> + sin(eta)|111>, eta in [0, pi/4]."""
    if not 0.0 <= eta <= math.pi / 4 + 1e-12:
        raise ValueError(f"eta must lie in [0, pi/4], got {eta}")
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
    if abs(norm_sq - 1.0) > NORM_ATOL:
        raise ValueError(f"lambda triple not normalized: sum of squares = {norm_sq!r}")
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
    if not 0.0 <= eta <= math.pi / 2 + 1e-12:
        raise ValueError(f"eta must lie in [0, pi/2], got {eta}")
    if eta > math.pi / 4 + 1e-12:
        warnings.warn(
            f"MS parameter eta={eta} exceeds pi/4; state is valid but outside "
            "the family's canonical range",
            stacklevel=2,
        )
    r = 1.0 / math.sqrt(2.0)
    return extended_ghz(r, math.cos(eta) * r, math.sin(eta) * r)


def tau_c12sq(
    family: Family,
    *,
    eta: float | None = None,
    tau: float | None = None,
    c12sq: float | None = None,
) -> tuple[float, float]:
    """(tau, C12^2) of a gghz, ms or ext_s state.

    gghz has (sin^2 2eta, 0) and ms (sin^2 eta, cos^2 eta); each takes eta or
    tau, not both, and tau fixes C12^2 (0 and 1 - tau). A c12sq more than
    1e-12 from the family's value raises ValueError. ext_s has no angle and takes
    tau and c12sq as given.
    """
    family = Family(family)
    if family is Family.EXT_S:
        _require(eta is None, "ext_s has no angle eta")
        _require(tau is not None and c12sq is not None, "ext_s needs tau and c12sq")
        return float(tau), float(c12sq)
    _require(family in (Family.GGHZ, Family.MS), f"{family.value} has no (tau, C12^2) form")
    _require((eta is None) != (tau is None), f"{family.value} takes eta or tau, exactly one")
    if family is Family.GGHZ:
        tau, own = (math.sin(2.0 * eta) ** 2 if tau is None else tau), 0.0
    else:
        tau, own = (math.sin(eta) ** 2, math.cos(eta) ** 2) if tau is None else (tau, 1.0 - tau)
    # 1e-12 forgives the rounding of 1 - tau, so an ms --c12sq of 0.2 fits tau 0.8.
    _require(
        c12sq is None or abs(c12sq - own) <= 1e-12,
        f"a {family.value} state has C12^2 = {own:g}; only ext_s takes other values",
    )
    return float(tau), own


def ext_s_lambdas_from_tau_c12(tau: float, c12sq: float) -> tuple[float, float, float]:
    """Invert tau = 4 l0^2 l4^2, C12^2 = 4 l0^2 l3^2 for a subclass-S state.

    Requires tau + C12^2 <= 1. Of the two l0 branches the larger one
    (l0 >= 1/sqrt(2)) is returned; both give the same tau, C12^2 and hence
    the same operator bounds.
    """
    if tau < -1e-12 or c12sq < -1e-12 or tau + c12sq > 1.0 + 1e-12:
        raise ValueError(f"need tau, C12^2 >= 0 and tau + C12^2 <= 1, got {(tau, c12sq)}")
    tau = max(tau, 0.0)
    c12sq = max(c12sq, 0.0)
    disc = math.sqrt(max(1.0 - (tau + c12sq), 0.0))
    l0_sq = (1.0 + disc) / 2.0
    l0 = math.sqrt(l0_sq)
    l3 = math.sqrt(c12sq / (4.0 * l0_sq))
    l4 = math.sqrt(tau / (4.0 * l0_sq))
    # Absorb residual rounding into l4 so the triple passes the norm check.
    rem = 1.0 - l0_sq - l3 * l3
    l4 = math.sqrt(max(rem, 0.0)) if abs(rem - l4 * l4) < 1e-12 else l4
    return l0, l3, l4


def ghz_state() -> np.ndarray:
    return pure_state([1, 0, 0, 0, 0, 0, 0, 1], normalize=True)


def w_state() -> np.ndarray:
    return pure_state([0, 1, 1, 0, 1, 0, 0, 0], normalize=True)


def w_tilde_state() -> np.ndarray:
    return pure_state([0, 0, 0, 1, 0, 1, 1, 0], normalize=True)


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


def omega_operator() -> np.ndarray:
    """Omega = |L,1+><L,1+| + |L,1-><L,1-| (trace 2)."""
    return qalg.projector(lambda_basis(1, 1)) + qalg.projector(lambda_basis(1, -1))


def pi_operator() -> np.ndarray:
    """Pi = sum over i=2,3,4 of |L,i+><L,i+| (trace 3)."""
    return sum(qalg.projector(lambda_basis(i, 1)) for i in (2, 3, 4))


def rho2(p: float) -> np.ndarray:
    """Rank-2 mixture p |GHZ><GHZ| + (1-p) |W><W|."""
    _check_weight(p)
    return p * qalg.projector(ghz_state()) + (1.0 - p) * qalg.projector(w_state())


def rho3(p: float, k: int) -> np.ndarray:
    """Rank-3 mixture p GHZ + q W + (1-p-q) W-tilde with q = (1-p)/k."""
    _check_weight(p)
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    q = (1.0 - p) / k
    r = 1.0 - p - q
    if r < -1e-12:
        raise ValueError(f"weights (p={p}, q={q}) leave negative remainder {r}")
    r = max(r, 0.0)
    return (
        p * qalg.projector(ghz_state())
        + q * qalg.projector(w_state())
        + r * qalg.projector(w_tilde_state())
    )


def rho4(p: float) -> np.ndarray:
    """Rank-4 mixture p |L,1+><L,1+| + (1-p)/3 Pi."""
    _check_weight(p)
    return p * qalg.projector(lambda_basis(1, 1)) + (1.0 - p) / 3.0 * pi_operator()


def rho5(p: float) -> np.ndarray:
    """Rank-5 mixture p |L,1+><L,1+| + (1-p)/10 (|L,1-><L,1-| + 3 Pi)."""
    _check_weight(p)
    return p * qalg.projector(lambda_basis(1, 1)) + (1.0 - p) / 10.0 * (
        qalg.projector(lambda_basis(1, -1)) + 3.0 * pi_operator()
    )


def rho6(p: float) -> np.ndarray:
    """Rank-6 mixture p |L,2-><L,2-| + (1-p)/11 (Omega + 3 Pi)."""
    _check_weight(p)
    return p * qalg.projector(lambda_basis(2, -1)) + (1.0 - p) / 11.0 * (
        omega_operator() + 3.0 * pi_operator()
    )


def rho7(p: float) -> np.ndarray:
    """Rank-7 mixture p |L,3-><L,3-| + (1-p)/34 (|L,2-><L,2-| + 3 Omega + 9 Pi)."""
    _check_weight(p)
    return p * qalg.projector(lambda_basis(3, -1)) + (1.0 - p) / 34.0 * (
        qalg.projector(lambda_basis(2, -1)) + 3.0 * omega_operator() + 9.0 * pi_operator()
    )


def rho8(p: float) -> np.ndarray:
    """Rank-8 mixture built on |L,4-><L,4-|."""
    _check_weight(p)
    return p * qalg.projector(lambda_basis(4, -1)) + (1.0 - p) / 35.0 * (
        qalg.projector(lambda_basis(2, -1))
        + qalg.projector(lambda_basis(3, -1))
        + 3.0 * omega_operator()
        + 9.0 * pi_operator()
    )


# Mixed families: the keywords each takes, in call order, and its density matrix.
_WEIGHT_BUILDERS = {
    Family.RHO2: (("p",), rho2),
    Family.RHO3: (("p", "k"), rho3),
    Family.RHO4: (("p",), rho4),
    Family.RHO5: (("p",), rho5),
    Family.RHO6: (("p",), rho6),
    Family.RHO7: (("p",), rho7),
    Family.RHO8: (("p",), rho8),
}
MIXED_FAMILIES = tuple(_WEIGHT_BUILDERS)


def mixed_builder(family: Family, k: int | None = None) -> Callable[[float], np.ndarray]:
    """Map a mixing weight p to the density matrix of a mixed family."""
    family = Family(family)
    _require(family in _WEIGHT_BUILDERS, f"{family.value} has no mixing-weight builder")
    own, build = _WEIGHT_BUILDERS[family]
    if "k" in own:
        _require(k is not None, f"{family.value} requires the integer k")
        return lambda p: build(p, k)
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
    own = (_WEIGHT_BUILDERS if family in MIXED_FAMILIES else _PURE_BUILDERS)[family][0]
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
    mixed = family in MIXED_FAMILIES
    own, build = (_WEIGHT_BUILDERS if mixed else _PURE_BUILDERS)[family]
    if mixed:
        own, build = ("p",), mixed_builder(family, k)  # a missing k raises here
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
    ``{"density": [[[re, im] x 8] x 8]}`` for a general density matrix.
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


def _check_weight(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0,1], got {p}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)
