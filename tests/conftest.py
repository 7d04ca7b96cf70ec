import numpy as np
import pytest

from tribell import channels, qalg
from tribell.states import Family

# The mixed families that are real X states at every weight; rho2 and rho3 carry
# W's coherences below p = 1.
REAL_X_MIXED = (Family.RHO4, Family.RHO5, Family.RHO6, Family.RHO7, Family.RHO8)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_pure_state(rng, dim=8):
    """Haar-ish random pure state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, dim=8, rank=None):
    """Random full- or fixed-rank density matrix."""
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def partial_trace_dims(rho, dims, keep):
    """Reference partial trace: one np.trace per dropped subsystem, 0-based ``keep``."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(keep))
    reshaped = rho.reshape(tuple(dims) + tuple(dims))
    drop = [i for i in range(n) if i not in keep]
    for idx in sorted(drop, reverse=True):
        half = reshaped.ndim // 2
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + half)
        dims.pop(idx)
    d = int(np.prod(dims)) if dims else 1
    return reshaped.reshape(d, d)


def permute_qubits(state, perm):
    """Relabel the three qubits of a vector (8,) or matrix (8,8).

    ``perm`` lists, for each output slot, the 1-based input qubit placed
    there; e.g. ``(1, 3, 2)`` swaps qubits 2 and 3.
    """
    perm0 = [p - 1 for p in perm]
    if sorted(perm0) != [0, 1, 2]:
        raise ValueError(f"perm must be a permutation of (1,2,3), got {perm}")
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (8,):
        return arr.reshape(2, 2, 2).transpose(perm0).reshape(8)
    if arr.shape == (8, 8):
        axes = perm0 + [p + 3 for p in perm0]
        return arr.reshape((2,) * 6).transpose(axes).reshape(8, 8)
    raise ValueError(f"expected shape (8,) or (8,8), got {arr.shape}")


def bloch_projectors(v):
    """Projectors (I + v.sigma)/2 and (I - v.sigma)/2; outcome 0 is +1."""
    obs = qalg.bloch_observable(v)
    return (qalg.IDENTITY_2 + obs) / 2.0, (qalg.IDENTITY_2 - obs) / 2.0


def depolarize_qubit(rho, qubit, p):
    """Depolarize one qubit of a three-qubit state with strength p."""
    rho = qalg.check_density_matrix(rho)
    return channels._apply_kraus_on_qubit(rho, channels._depolarizing_kraus(p), qubit)


def amplitude_damp_qubit(rho, qubit, gamma):
    """Amplitude-damp one qubit of a three-qubit state with strength gamma."""
    rho = qalg.check_density_matrix(rho)
    return channels._apply_kraus_on_qubit(rho, channels._amplitude_damping_kraus(gamma), qubit)
