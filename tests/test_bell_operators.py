import itertools

import numpy as np
import pytest

from tribell import qalg, states
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
