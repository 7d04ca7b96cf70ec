"""Bell operators and their evaluation on quantum states.

Each operator is a signed sum of full correlators over dichotomic Bloch
observables, two settings per party:

* Svetlichny (three parties, hybrid-model bound 4):
    <X0Y0Z0> + <X1Y0Z0> - <X0Y1Z0> + <X1Y1Z0>
  + <X0Y0Z1> - <X1Y0Z1> + <X0Y1Z1> + <X1Y1Z1>
* NS2 99th facet (three parties, bound 3):
    <X1Y1> + <X0Y0Z0> + <Y1Z0> + <X1Z1> - <X0Y0Z1>
* CHSH (two parties, bound 2):
    <X0Y0> + <X0Y1> + <X1Y0> - <X1Y1>

A term slot of ``None`` means the identity on that party (a marginal
correlator). ``operator_value`` evaluates the printed term list directly by
8x8 (or 4x4) traces; it is the oracle the tests and the benchmark check
against, and no production path calls it. Everywhere else ``TERMS`` is read
once per operator, into the cached +-1 mask ``_term_mask`` over the fused
per-party index ``4*s + component`` (components x, y, z, 1). A state's
correlations are its full Pauli tensor R = ``qalg.pauli_tensor`` over
(X, Y, Z, I): the fold is ``mask * tile(R)``. Its one contraction is a pair
block B (``_pair_block``: the fold with the third party's vector), which the
see-saw reads partial contractions from; every value, from
``make_batched_value`` or a Newton trial, is v_0 B v_1 (``_pair_value``).
``correlation_tensors`` are slices of R; ``behavior_operator_value``
contracts a behavior table with the mask's z and constant components. The
paths agree to machine precision.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .. import qalg


class BellKind(str, enum.Enum):
    SVETLICHNY = "svetlichny"
    NS99 = "ns99"
    CHSH = "chsh"


# (settings per party, sign); None = identity slot.
TERMS: dict[BellKind, tuple[tuple[tuple[int | None, ...], float], ...]] = {
    BellKind.SVETLICHNY: (
        ((0, 0, 0), 1.0),
        ((1, 0, 0), 1.0),
        ((0, 1, 0), -1.0),
        ((1, 1, 0), 1.0),
        ((0, 0, 1), 1.0),
        ((1, 0, 1), -1.0),
        ((0, 1, 1), 1.0),
        ((1, 1, 1), 1.0),
    ),
    BellKind.NS99: (
        ((1, 1, None), 1.0),
        ((0, 0, 0), 1.0),
        ((None, 1, 0), 1.0),
        ((1, None, 1), 1.0),
        ((0, 0, 1), -1.0),
    ),
    BellKind.CHSH: (
        ((0, 0), 1.0),
        ((0, 1), 1.0),
        ((1, 0), 1.0),
        ((1, 1), -1.0),
    ),
}

CLASSICAL_BOUND = {BellKind.SVETLICHNY: 4.0, BellKind.NS99: 3.0, BellKind.CHSH: 2.0}
N_PARTIES = {BellKind.SVETLICHNY: 3, BellKind.NS99: 3, BellKind.CHSH: 2}
VIOLATION_ATOL = 1e-9
# The cut of every violation verdict; some families sit exactly on the bound below threshold.
VIOLATION_CUT = {kind: bound + VIOLATION_ATOL for kind, bound in CLASSICAL_BOUND.items()}


@dataclass
class MeasurementScenario:
    """Bloch measurement axes: two per party, parametrized by (theta, phi).

    ``angles`` has shape (2 * n_parties, 2) ordered
    [A0, A1, B0, B1, (C0, C1)]; theta is the polar angle in [0, pi] and phi
    the azimuth in [0, 2 pi).
    """

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.ndim != 2 or self.angles.shape[1] != 2 or self.angles.shape[0] % 2:
            raise ValueError(f"angles must have shape (2n, 2), got {self.angles.shape}")
        if not np.all(np.isfinite(self.angles)):
            raise ValueError("measurement angles must be finite")

    @property
    def n_parties(self) -> int:
        return self.angles.shape[0] // 2

    def vector(self, party: int, setting: int) -> np.ndarray:
        """Bloch vector for 0-based party index and setting 0/1."""
        return qalg.bloch_vector(*self.angles[2 * party + setting])

    @staticmethod
    def all_z(n_parties: int = 3) -> "MeasurementScenario":
        return MeasurementScenario(np.zeros((2 * n_parties, 2)))

    @staticmethod
    def from_flat(flat: np.ndarray) -> "MeasurementScenario":
        flat = np.asarray(flat, dtype=float).reshape(-1)
        return MeasurementScenario(flat.reshape(-1, 2))

    def flat(self) -> np.ndarray:
        return self.angles.reshape(-1).copy()


def correlator(rho: np.ndarray, obs) -> float:
    """Tr[rho (O1 x O2 x ...)] with O_i = v_i . sigma or the identity.

    ``obs`` is a sequence of Bloch vectors or ``None`` (identity slot);
    at least one slot must be a vector.
    """
    rho = np.asarray(rho, dtype=complex)
    n = round(math.log2(rho.shape[0]))
    if len(obs) != n:
        raise ValueError(f"expected {n} observable slots, got {len(obs)}")
    if all(v is None for v in obs):
        raise ValueError("at least one slot must carry an observable")
    op = None
    for v in obs:
        factor = qalg.IDENTITY_2 if v is None else qalg.bloch_observable(v)
        op = factor if op is None else np.kron(op, factor)
    value = complex(np.trace(rho @ op))
    return float(value.real)


def operator_value(rho: np.ndarray, scenario: MeasurementScenario, kind: BellKind) -> float:
    """Signed sum of correlators for the printed operator term list."""
    kind = BellKind(kind)
    n = N_PARTIES[kind]
    if scenario.n_parties != n:
        raise ValueError(f"{kind.value} needs {n} parties, scenario has {scenario.n_parties}")
    total = 0.0
    for slots, sign in TERMS[kind]:
        obs = [None if s is None else scenario.vector(p, s) for p, s in enumerate(slots)]
        total += sign * correlator(rho, obs)
    return total


def correlation_tensors(rho: np.ndarray, n_parties: int) -> dict:
    """Pauli correlation tensors of a state, keyed by active party tuple.

    For three parties: T3[i,j,k] = Tr[rho s_i x s_j x s_k] under key
    (0,1,2), and the pair tensors with an identity slot under (0,1), (0,2),
    (1,2). For two parties only the full (0,1) tensor is produced. All are
    slices of ``qalg.pauli_tensor``.
    """
    if n_parties not in (2, 3):
        raise ValueError(f"unsupported party count {n_parties}")
    r = qalg.pauli_tensor(rho, n_parties)
    if n_parties == 2:
        return {(0, 1): r[:3, :3]}
    return {
        (0, 1, 2): r[:3, :3, :3],
        (0, 1): r[:3, :3, 3],
        (0, 2): r[:3, 3, :3],
        (1, 2): r[3, :3, :3],
    }


@functools.cache
def _term_mask(kind: BellKind) -> np.ndarray:
    """The operator's signs on the fused index 4*s + component; read-only, (8,) * n.

    Each term is +-1 on the block of its settings' Bloch components (0..2);
    an identity slot sits on the constant component (3) of setting 0. No two
    blocks overlap, so every entry is 0 or +-1.
    """
    mask = np.zeros((8,) * N_PARTIES[kind])
    for slots, sign in TERMS[kind]:
        mask[np.ix_(*[[3] if s is None else 4 * s + np.arange(3) for s in slots])] = sign
    mask.setflags(write=False)
    return mask


def _fused_coefficient_tensor(rho: np.ndarray, kind: BellKind) -> np.ndarray:
    """Fold every operator term into one coefficient tensor.

    Party p is represented by an 8-vector concatenating the augmented
    Bloch vectors (vx, vy, vz, 1) of its two settings, so index
    4*s + component addresses setting s. The operator value is the full
    contraction of these per-party 8-vectors with the returned tensor of
    shape (8,) * n_parties: the term mask times the Pauli tensor tiled over
    both settings of every party.
    """
    n = N_PARTIES[kind]
    return _term_mask(BellKind(kind)) * np.tile(qalg.pauli_tensor(rho, n), (2,) * n)


def augmented_vectors(angles: np.ndarray) -> np.ndarray:
    """Flat [theta, phi] pairs of shape (..., 2k) -> (vx, vy, vz, 1) rows (..., k, 4)."""
    theta = angles[..., 0::2]
    phi = angles[..., 1::2]
    st = np.sin(theta)
    aug = np.empty(angles.shape[:-1] + (theta.shape[-1], 4))
    aug[..., 0] = st * np.cos(phi)
    aug[..., 1] = st * np.sin(phi)
    aug[..., 2] = np.cos(theta)
    aug[..., 3] = 1.0
    return aug


def _pair_matrices(fused: np.ndarray) -> np.ndarray:
    """Per party pair p < q (in ``itertools.combinations`` order), the fused
    tensor with p and q leading, laid out as an (8**(n-2), 64) matrix that the
    remaining party's vector multiplies."""
    n = fused.ndim
    pairs = itertools.combinations(range(n), 2)
    return np.stack([
        fused.transpose(*pq, *(k for k in range(n) if k not in pq)).reshape(64, -1).T
        for pq in pairs
    ])


def _pair_block(pair_mats: np.ndarray, aug: np.ndarray, pair: int) -> np.ndarray:
    """The fused tensor contracted with the vector of the party outside pair
    ``pair`` (p, q): (rows, 8, 8). Its block B gives p's partial contraction
    B v_q, q's v_p B, the value v_p B v_q and the pair's Euclidean Hessian."""
    rows, n = aug.shape[:2]
    # of the pairs (0, 1), (0, 2), (1, 2), the party outside pair k is 2 - k
    rest = aug[:, 2 - pair].reshape(rows, 8) if n == 3 else np.ones((rows, 1))
    return (rest @ pair_mats[pair]).reshape(rows, 8, 8)


def _pair_value(pair_mats: np.ndarray, aug: np.ndarray) -> np.ndarray:
    """Values v_0 B v_1 of the rows of ``aug`` (rows, n, 2, 4), with B the pair-(0, 1) block."""
    flat = aug.reshape(len(aug), -1, 8)
    return np.einsum("ri,rij,rj->r", flat[:, 0], _pair_block(pair_mats, aug, 0), flat[:, 1])


def make_batched_value(rho: np.ndarray, kind: BellKind):
    """Closure mapping flat [theta, phi] pairs in scenario order, shape
    (..., 4 * n_parties), to operator values (...) by one ``_pair_value``."""
    n = N_PARTIES[BellKind(kind)]
    pair_mats = _pair_matrices(_fused_coefficient_tensor(rho, kind))

    def value(angles: np.ndarray) -> np.ndarray:
        angles = np.asarray(angles, dtype=float)
        aug = augmented_vectors(angles).reshape(-1, n, 2, 4)
        return _pair_value(pair_mats, aug).reshape(angles.shape[:-1])

    return value


def behavior_operator_value(table: np.ndarray, kind: BellKind) -> float:
    """Operator value of a fixed behavior table p[a,b,c,x,y,z] (no optimization).

    Outcome a of a setting contributes (-1)^a to its z component and 1 to its
    constant one, so a full term reads sum (-1)^(a+b+c) p and a marginal term
    reads the unused party at its setting 0 (for no-signaling behaviors the
    choice of that setting is immaterial).
    """
    kind = BellKind(kind)
    if N_PARTIES[kind] != 3:
        raise ValueError("behavior tables are three-party objects")
    # [x, i, y, j, z, k] with i, j, k = 0 for the z component and 1 for the constant
    zc = _term_mask(kind).reshape(2, 4, 2, 4, 2, 4)[:, 2:, :, 2:, :, 2:]
    w = np.array([[1.0, 1.0], [-1.0, 1.0]])  # [outcome, i]
    table = np.asarray(table, dtype=float)
    return float(np.einsum("abcxyz,ai,bj,ck,xiyjzk->", table, w, w, w, zc))
