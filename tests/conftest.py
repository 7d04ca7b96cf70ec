import numpy as np
import pytest


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
