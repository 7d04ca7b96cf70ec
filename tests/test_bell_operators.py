import itertools

import numpy as np
import pytest

from tribell import polytope, qalg, states
from tribell.bell import (
    BellKind,
    MeasurementScenario,
    TERMS,
    behavior_operator_value,
    correlation_tensors,
    correlator,
    make_batched_value,
    operator_value,
)
from tribell.bell.operators import N_PARTIES, _fused_coefficient_tensor
from tribell.polytope import quantum_behavior
from conftest import random_density_matrix

Z = np.array([0.0, 0.0, 1.0])


def test_correlator_ghz_cases():
    ghz = qalg.projector(states.ghz_state())
    assert correlator(ghz, (Z, Z, None)) == pytest.approx(1.0, abs=1e-12)
    assert correlator(ghz, (Z, Z, Z)) == pytest.approx(0.0, abs=1e-12)
    assert correlator(np.eye(8) / 8, (Z, None, Z)) == pytest.approx(0.0, abs=1e-12)


def test_correlator_requires_observable():
    with pytest.raises(ValueError):
        correlator(np.eye(8) / 8, (None, None, None))


def test_operator_value_all_z():
    zero = qalg.projector(states.gghz(0.0))
    scen = MeasurementScenario.all_z()
    # |000>: six +1 terms and two -1 terms
    assert operator_value(zero, scen, BellKind.SVETLICHNY) == pytest.approx(4.0, abs=1e-12)
    ghz = qalg.projector(states.ghz_state())
    # <X1Y1>=1, <X0Y0Z0>=0, <Y1Z0>=1, <X1Z1>=1, <X0Y0Z1>=0
    assert operator_value(ghz, scen, BellKind.NS99) == pytest.approx(3.0, abs=1e-12)
    assert operator_value(np.eye(8) / 8, scen, BellKind.NS99) == pytest.approx(0.0)
    assert operator_value(np.eye(8) / 8, scen, BellKind.SVETLICHNY) == pytest.approx(0.0)


def test_batched_value_matches_direct_evaluation(rng):
    for kind in (BellKind.NS99, BellKind.SVETLICHNY):
        rho = random_density_matrix(rng)
        fn = make_batched_value(rho, kind)
        flat = rng.uniform(0, np.pi, size=(5, 12))
        flat[:, 1::2] *= 2.0
        batched = fn(flat)
        for i in range(5):
            scen = MeasurementScenario.from_flat(flat[i])
            assert batched[i] == pytest.approx(
                operator_value(rho, scen, kind), abs=1e-12
            )


def test_batched_value_chsh(rng):
    rho = random_density_matrix(rng, dim=4)
    fn = make_batched_value(rho, BellKind.CHSH)
    flat = rng.uniform(0, np.pi, size=(4, 8))
    vals = fn(flat)
    for i in range(4):
        scen = MeasurementScenario.from_flat(flat[i])
        assert vals[i] == pytest.approx(operator_value(rho, scen, BellKind.CHSH), abs=1e-12)


def test_correlation_tensors_ghz():
    t = correlation_tensors(qalg.projector(states.ghz_state()), 3)
    t3 = t[(0, 1, 2)]
    assert t3[0, 0, 0] == pytest.approx(1.0)  # xxx
    assert t3[0, 1, 1] == pytest.approx(-1.0)  # xyy
    assert t3[2, 2, 2] == pytest.approx(0.0)  # zzz
    assert t[(0, 1)][2, 2] == pytest.approx(1.0)  # zz two-body


def test_deterministic_strategies_attain_classical_bounds():
    # independent oracle: +-1 assignments per party and setting
    best = {BellKind.NS99: -10.0, BellKind.SVETLICHNY: -10.0}
    for ea in itertools.product((1, -1), repeat=2):
        for eb in itertools.product((1, -1), repeat=2):
            for ec in itertools.product((1, -1), repeat=2):
                outs = (ea, eb, ec)
                for kind in best:
                    total = 0.0
                    for slots, sign in TERMS[kind]:
                        term = 1.0
                        for party, s in enumerate(slots):
                            if s is not None:
                                term *= outs[party][s]
                        total += sign * term
                    best[kind] = max(best[kind], total)
    assert best[BellKind.NS99] == pytest.approx(3.0)
    assert best[BellKind.SVETLICHNY] == pytest.approx(4.0)


def test_behavior_operator_value_matches_state_evaluation(rng):
    rho = random_density_matrix(rng)
    flat = rng.uniform(0, np.pi, size=12)
    flat[1::2] *= 2.0
    scen = MeasurementScenario.from_flat(flat)
    behavior = quantum_behavior(rho, scen)
    for kind in (BellKind.NS99, BellKind.SVETLICHNY):
        assert behavior_operator_value(behavior.table, kind) == pytest.approx(
            operator_value(rho, scen, kind), abs=1e-12
        )


def test_correlator_values_within_unit_interval(rng):
    for _ in range(15):
        rho = random_density_matrix(rng)
        theta, phi = rng.uniform(0, np.pi, size=3), rng.uniform(0, 2 * np.pi, size=3)
        obs = [np.array(
            [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]
        ) for t, p in zip(theta, phi)]
        if rng.integers(2):
            obs[int(rng.integers(3))] = None
        value = correlator(rho, obs)
        assert -1 - 1e-10 <= value <= 1 + 1e-10


def test_scenario_helpers():
    scen = MeasurementScenario.all_z()
    assert scen.n_parties == 3
    assert np.allclose(scen.vector(0, 0), [0, 0, 1])
    with pytest.raises(ValueError):
        MeasurementScenario(np.zeros((5, 2)))
    flat = scen.flat()
    assert flat.shape == (12,)


# Reference fold, one term at a time: the four correlation einsums and a
# scatter of each signed term tensor into its block of the fused tensor.
def _reference_correlation_tensors(rho, n_parties):
    rho = np.asarray(rho, dtype=complex)
    paulis = np.stack(qalg.PAULIS)  # (3, 2, 2)
    if n_parties == 2:
        r = rho.reshape(2, 2, 2, 2)
        t = np.einsum("abde,ida,jeb->ij", r, paulis, paulis)
        return {(0, 1): np.ascontiguousarray(t.real)}
    r = rho.reshape(2, 2, 2, 2, 2, 2)
    t3 = np.einsum("abcdef,ida,jeb,kfc->ijk", r, paulis, paulis, paulis)
    t_ab = np.einsum("abcdec,ida,jeb->ij", r, paulis, paulis)
    t_ac = np.einsum("abcdbf,ida,kfc->ik", r, paulis, paulis)
    t_bc = np.einsum("abcaef,jeb,kfc->jk", r, paulis, paulis)
    return {
        (0, 1, 2): np.ascontiguousarray(t3.real),
        (0, 1): np.ascontiguousarray(t_ab.real),
        (0, 2): np.ascontiguousarray(t_ac.real),
        (1, 2): np.ascontiguousarray(t_bc.real),
    }


def _reference_fold(rho, kind):
    n = N_PARTIES[kind]
    tensors = _reference_correlation_tensors(rho, n)
    fused = np.zeros((8,) * n)
    for slots, sign in TERMS[kind]:
        active = tuple(p for p, s in enumerate(slots) if s is not None)
        tensor = tensors[active]
        index_sets = []
        for p, s in enumerate(slots):
            if s is None:
                index_sets.append(np.array([3]))  # constant slot of setting 0
            else:
                index_sets.append(4 * s + np.arange(3))
        block = sign * tensor
        expanded_shape = tuple(len(ix) for ix in index_sets)
        grid = np.ix_(*index_sets)
        fused[grid] += block.reshape(expanded_shape)
    return fused


def test_fused_tensor_equals_per_term_fold(rng):
    for kind in BellKind:
        dim = 2 ** N_PARTIES[kind]
        for rank in range(1, dim + 1):
            for _ in range(4):
                rho = random_density_matrix(rng, dim=dim, rank=rank)
                fused = _fused_coefficient_tensor(rho, kind)
                assert np.array_equal(fused, _reference_fold(rho, kind))
    for family in states.MIXED_FAMILIES:
        for p in np.linspace(0.0, 1.0, 11):
            k = 3 if family is states.Family.RHO3 else None
            rho = states.family_state(family, p=float(p), k=k)
            for kind in (BellKind.NS99, BellKind.SVETLICHNY):
                fused = _fused_coefficient_tensor(rho, kind)
                assert np.array_equal(fused, _reference_fold(rho, kind))


def test_correlation_tensors_match_trace_correlators(rng):
    axes = np.eye(3)
    for n in (2, 3):
        for _ in range(3):
            rho = random_density_matrix(rng, dim=2**n)
            for active, tensor in correlation_tensors(rho, n).items():
                assert tensor.shape == (3,) * len(active)
                for idx in itertools.product(range(3), repeat=len(active)):
                    obs = [None] * n
                    for party, i in zip(active, idx):
                        obs[party] = axes[i]
                    assert tensor[idx] == pytest.approx(correlator(rho, obs), abs=1e-14)


def _reference_behavior_value(table, kind):
    """Per-term loop over the behavior's correlators, unused parties at setting 0."""
    signs = np.array([1.0, -1.0])
    cors = {
        (0, 1, 2): np.einsum("abcxyz,a,b,c->xyz", table, signs, signs, signs),
        (0, 1): np.einsum("abcxy,a,b->xy", table[..., 0], signs, signs),
        (0, 2): np.einsum("abcxz,a,c->xz", table[:, :, :, :, 0, :], signs, signs),
        (1, 2): np.einsum("abcyz,b,c->yz", table[:, :, :, 0, :, :], signs, signs),
    }
    total = 0.0
    for slots, sign in TERMS[kind]:
        active = tuple(p for p, s in enumerate(slots) if s is not None)
        total += sign * float(cors[active][tuple(slots[p] for p in active)])
    return total


def test_behavior_operator_value_matches_per_term_loop(rng):
    # S2 vertices signal, so the setting-0 convention for marginal terms matters.
    vertices = polytope.enumerate_vertices(polytope.HybridKind.S2)
    tables = list(vertices.reshape(-1, *polytope.BEHAVIOR_SHAPE))
    for _ in range(20):
        scen = MeasurementScenario.from_flat(rng.uniform(0, 2 * np.pi, size=12))
        tables.append(quantum_behavior(random_density_matrix(rng), scen).table)
    for table in tables:
        for kind in (BellKind.NS99, BellKind.SVETLICHNY):
            value = behavior_operator_value(table, kind)
            assert abs(value - _reference_behavior_value(table, kind)) <= 1e-14
