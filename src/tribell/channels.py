"""Single-qubit Kraus noise channels acting on three-qubit states.

Two channels are provided, each applied qubit by qubit to an 8x8 density
matrix with one strength per qubit:

* depolarization with Kraus weights
  {sqrt(1 - 3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}, so that every
  single-qubit Pauli expectation on that qubit shrinks by exactly (1 - p);
* amplitude damping with
  E0 = [[1, 0], [0, sqrt(1-g)]], E1 = [[0, sqrt(g)], [0, 0]].

The generic Kraus application is the authoritative physical model: each
Kraus operator K contracts the addressed qubit's row and column axes of the
(2,)*6 view of rho, giving sum_k K rho K^dagger without 8x8 operators. The
module also reproduces two published closed-form matrices for noisy
generalized-GHZ states (one per channel); both are restricted to the
|000>/|111> block and are kept for diagnostic comparison only. The
amplitude-damping closed form is non-Hermitian as printed and is symmetrized
here, with a warning, by averaging the two off-diagonal coefficients.

``ChannelSpec`` is the one check of the strengths, which the closed forms
also build; their GGHZ angle goes through ``states.check_eta``.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import qalg, states


class ChannelKind(str, enum.Enum):
    DEPOLARIZE = "depolarize"
    AMPLITUDE_DAMP = "amplitude_damp"


@dataclass
class ChannelSpec:
    """One channel kind with per-qubit strengths (qubits 1, 2, 3)."""

    kind: ChannelKind
    strengths: tuple[float, float, float]

    def __post_init__(self):
        self.kind = ChannelKind(self.kind)
        if len(self.strengths) != 3:
            raise ValueError("strengths must list one value per qubit")
        for s in self.strengths:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"channel strength must lie in [0,1], got {s}")


class HermitizedClosedFormWarning(UserWarning):
    """Raised when a printed closed form had to be symmetrized to be a state."""


def _depolarizing_kraus(p: float) -> list[np.ndarray]:
    k0 = math.sqrt(1.0 - 3.0 * p / 4.0)
    kp = math.sqrt(p / 4.0)
    return [
        k0 * qalg.IDENTITY_2,
        kp * qalg.PAULI_X,
        kp * qalg.PAULI_Y,
        kp * qalg.PAULI_Z,
    ]


def _amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [e0, e1]


def _apply_kraus_on_qubit(rho: np.ndarray, kraus, qubit: int) -> np.ndarray:
    """sum_k K rho K^dagger with K on one qubit's row and column axes of the (2,)*6 view."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"channels address three-qubit states, got shape {rho.shape}")
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit must be in 1..3, got {qubit}")
    row, col = qubit - 1, qubit + 2
    r = rho.reshape((2,) * 6)
    out = np.zeros_like(r)
    for k in kraus:
        kr = np.moveaxis(np.tensordot(k, r, axes=(1, row)), 0, row)
        out += np.moveaxis(np.tensordot(kr, k.conj(), axes=(col, 1)), -1, col)
    return out.reshape(8, 8)


def apply_channel_spec(rho: np.ndarray, spec: ChannelSpec) -> np.ndarray:
    """Apply the spec's channel to qubits 1, 2, 3 with their strengths.

    The per-qubit maps act on distinct qubits and commute, so the order is
    irrelevant.
    """
    rho = qalg.check_density_matrix(rho)
    kraus_of = {
        ChannelKind.DEPOLARIZE: _depolarizing_kraus,
        ChannelKind.AMPLITUDE_DAMP: _amplitude_damping_kraus,
    }[spec.kind]
    out = rho
    for qubit, strength in enumerate(spec.strengths, start=1):
        out = _apply_kraus_on_qubit(out, kraus_of(strength), qubit)
    return out


def closed_form_depolarized_gghz(eta: float, p1: float, p2: float, p3: float) -> np.ndarray:
    """Published two-level matrix for a depolarized GGHZ state.

    With J1 = prod(1 - 3 p_i / 4) and J2 = p1 p2 p3 / 64 the matrix keeps only
    the |000>/|111> block,

        [(J1+J2) cos^2(eta) + 2 J2 sin^2(eta)] |000><000|
      + [(J1+J2) sin^2(eta) + 2 J2 cos^2(eta)] |111><111|
      + (J1-J2)/2 sin(2 eta) (|000><111| + |111><000|),

    normalized by J1 + 3 J2. This truncates the populations that full
    three-qubit depolarization spreads over all eight basis states;
    ``apply_channel_spec`` is the faithful model, this form is diagnostic.
    """
    ChannelSpec(ChannelKind.DEPOLARIZE, (p1, p2, p3))  # checks the strengths
    states.check_eta(states.Family.GGHZ, eta)
    j1 = (1.0 - 3.0 * p1 / 4.0) * (1.0 - 3.0 * p2 / 4.0) * (1.0 - 3.0 * p3 / 4.0)
    j2 = p1 * p2 * p3 / 64.0
    c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
    coh = (j1 - j2) / 2.0 * math.sin(2.0 * eta)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = (j1 + j2) * c2 + 2.0 * j2 * s2
    rho[7, 7] = (j1 + j2) * s2 + 2.0 * j2 * c2
    rho[0, 7] = rho[7, 0] = coh
    rho /= j1 + 3.0 * j2
    return qalg.check_density_matrix(rho)


def closed_form_damped_gghz(eta: float, g1: float, g2: float, g3: float) -> np.ndarray:
    """Published two-level matrix for an amplitude-damped GGHZ state.

    With D1 = sqrt(prod(1 - g_i)) and D2 = g1 g2 g3 the printed matrix is

        [cos^2(eta) |000><000| + (D1+D2)/2 sin(2 eta) |000><111|
         + D1/2 sin(2 eta) |111><000| + D1^2 sin^2(eta) |111><111|]
        / (cos^2(eta) + D1^2 sin^2(eta)),

    whose off-diagonal coefficients differ, so it is not Hermitian as
    printed. The constructor averages the two coefficients and emits a
    ``HermitizedClosedFormWarning`` whenever that changes the matrix
    (i.e. whenever D2 > 0). The averaged coherence can exceed the
    positive-semidefiniteness limit sqrt(p00 * p77) by a few 1e-6, so the
    result is returned as printed, without the strict density-matrix PSD
    gate; any PSD deficit is included in the warning.
    ``apply_channel_spec`` remains the oracle.
    """
    ChannelSpec(ChannelKind.AMPLITUDE_DAMP, (g1, g2, g3))  # checks the strengths
    states.check_eta(states.Family.GGHZ, eta)
    d1 = math.sqrt((1.0 - g1) * (1.0 - g2) * (1.0 - g3))
    d2 = g1 * g2 * g3
    c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
    upper = (d1 + d2) / 2.0 * math.sin(2.0 * eta)
    lower = d1 / 2.0 * math.sin(2.0 * eta)
    coh = (upper + lower) / 2.0
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = c2
    rho[7, 7] = d1 * d1 * s2
    rho[0, 7] = rho[7, 0] = coh
    rho /= c2 + d1 * d1 * s2
    if abs(upper - lower) > 0.0:
        deficit = float(np.linalg.eigvalsh(rho).min())
        extra = (
            f"; averaged matrix has negative eigenvalue {deficit:.3e}"
            if deficit < -qalg.PSD_ATOL
            else ""
        )
        warnings.warn(
            f"closed-form damped matrix is non-Hermitian as printed "
            f"(off-diagonal coefficients {upper!r} vs {lower!r}); "
            f"averaging to Hermitian form{extra}",
            HermitizedClosedFormWarning,
            stacklevel=2,
        )
    return rho
