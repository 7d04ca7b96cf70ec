import itertools
import math

import numpy as np
import pytest

from tribell import polytope, qalg, states
from tribell.bell import (
    BellKind,
    MeasurementScenario,
    OptimizeOptions,
    behavior_operator_value,
    correlator,
    optimize_operator,
)
from tribell.polytope import Behavior, HybridKind, LPNumericalError
from conftest import bloch_projectors

MODELS = (HybridKind.FULLY_LOCAL, HybridKind.NS2, HybridKind.S2)


def _trace_behavior(rho, scenario):
    """Born rule by one kron and trace per table entry (reference)."""
    projs = [
        [bloch_projectors(scenario.vector(party, setting)) for setting in (0, 1)]
        for party in range(3)
    ]
    table = np.empty(polytope.BEHAVIOR_SHAPE)
    for x, y, z in itertools.product((0, 1), repeat=3):
        for a, b, c in itertools.product((0, 1), repeat=3):
            op = np.kron(np.kron(projs[0][x][a], projs[1][y][b]), projs[2][z][c])
            table[a, b, c, x, y, z] = float(np.trace(rho @ op).real)
    return table


def _loop_vertices(kind):
    """Vertex rows built entry by entry in nested loops (reference)."""
    strategies = [(s0, s1) for s0 in (0, 1) for s1 in (0, 1)]
    settings_all = list(itertools.product((0, 1), repeat=3))
    verts = []
    if kind is HybridKind.FULLY_LOCAL:
        for fa, fb, fc in itertools.product(strategies, repeat=3):
            table = np.zeros(polytope.BEHAVIOR_SHAPE)
            for x, y, z in settings_all:
                table[fa[x], fb[y], fc[z], x, y, z] = 1.0
            verts.append(table.reshape(-1))
        return np.array(verts)
    if kind is HybridKind.NS2:
        boxes = polytope.ns_bipartite_boxes()
    else:
        boxes = []
        inputs = list(itertools.product((0, 1), repeat=2))
        for outputs in itertools.product(itertools.product((0, 1), repeat=2), repeat=4):
            box = np.zeros((2, 2, 2, 2))
            for (x, y), (a, b) in zip(inputs, outputs):
                box[a, b, x, y] = 1.0
            boxes.append(box.reshape(-1))
    for pair in ((0, 1), (0, 2), (1, 2)):
        solo = 3 - pair[0] - pair[1]
        for box_flat in boxes:
            box = np.asarray(box_flat).reshape(2, 2, 2, 2)
            for f in strategies:
                table = np.zeros(polytope.BEHAVIOR_SHAPE)
                for settings in settings_all:
                    for o_pair in itertools.product((0, 1), repeat=2):
                        prob = box[o_pair[0], o_pair[1], settings[pair[0]], settings[pair[1]]]
                        if prob == 0.0:
                            continue
                        outcome = [0, 0, 0]
                        outcome[pair[0]], outcome[pair[1]] = o_pair
                        outcome[solo] = f[settings[solo]]
                        table[tuple(outcome) + settings] += prob
                verts.append(table.reshape(-1))
    return np.array(verts)


def _ns_equality_system():
    """Normalization and no-signaling equalities over P[a,b,x,y] (rank 8)."""
    def idx(a, b, x, y):
        return ((a * 2 + b) * 2 + x) * 2 + y

    rows, rhs = [], []
    for x, y in itertools.product((0, 1), repeat=2):
        row = np.zeros(16)
        for a, b in itertools.product((0, 1), repeat=2):
            row[idx(a, b, x, y)] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for a, x in itertools.product((0, 1), repeat=2):
        row = np.zeros(16)
        for b in (0, 1):
            row[idx(a, b, x, 0)] += 1.0
            row[idx(a, b, x, 1)] -= 1.0
        rows.append(row)
        rhs.append(0.0)
    for b, y in itertools.product((0, 1), repeat=2):
        row = np.zeros(16)
        for a in (0, 1):
            row[idx(a, b, 0, y)] += 1.0
            row[idx(a, b, 1, y)] -= 1.0
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


# Consecutive degenerate pivots after which the dense oracle enters by Bland's rule.
DEGENERATE_RUN = 50


def _dense_phase1_simplex(A, b, max_iter=50000):
    """Phase-1 simplex on the full dense tableau (reference).

    Enters by Dantzig's rule (most negative reduced cost), which the library's
    Bland pricing does not share. Dantzig's rule can cycle on a degenerate LP,
    so after DEGENERATE_RUN pivots in a row that leave the basic solution
    unchanged it enters by Bland's rule (smallest index) until a pivot moves it
    again. Each pivot is one rank-1 update of the whole tableau.
    Returns (objective, w, iterations).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    rows = np.hstack([A, np.eye(m)])
    rhs = b.copy()
    basis = np.arange(n, n + m)
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    eps = 1e-11
    degenerate = 0

    for iteration in range(max_iter):
        reduced = cost - cost[basis] @ rows
        entering_candidates = np.where(reduced < -eps)[0]
        if entering_candidates.size == 0:
            objective = float(cost[basis] @ rhs)
            w = np.zeros(n + m)
            w[basis] = rhs
            return objective, w[:n], iteration
        if degenerate < DEGENERATE_RUN:
            j = int(entering_candidates[np.argmin(reduced[entering_candidates])])  # Dantzig
        else:
            j = int(entering_candidates[0])  # Bland: smallest index
        col = rows[:, j].copy()
        positive = col > eps
        if not positive.any():
            raise LPNumericalError("phase-1 simplex detected an unbounded direction")
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        tie_rows = np.where(ratios <= best + 1e-15)[0]
        i = int(tie_rows[np.argmin(basis[tie_rows])])  # Bland tie-break
        degenerate = degenerate + 1 if best <= 1e-15 else 0
        pivot_row, pivot_rhs = rows[i] / col[i], rhs[i] / col[i]
        rows -= np.outer(col, pivot_row)
        rhs -= col * pivot_rhs
        rows[i], rhs[i] = pivot_row, pivot_rhs
        rhs = np.maximum(rhs, 0.0)
        basis[i] = j
    raise LPNumericalError(f"phase-1 simplex did not terminate in {max_iter} pivots")


def _assert_certificate(res, behavior):
    """An outside verdict's dual separates the behavior from every vertex."""
    y = res.certificate
    assert y.shape == (64,)
    assert np.max(polytope.enumerate_vertices(res.kind) @ y) <= 1e-9
    violation = behavior.flat() @ y
    assert violation > 0.0
    assert violation == pytest.approx(res.phase1_objective, rel=1e-9)


def test_uniform_behavior_from_maximally_mixed():
    scen = MeasurementScenario.all_z()
    beh = polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, scen)
    assert np.allclose(beh.table, 1 / 8.0, atol=1e-14)


def test_deterministic_behavior_from_000():
    beh = polytope.quantum_behavior(qalg.projector(states.gghz(0.0)), MeasurementScenario.all_z())
    expected = np.zeros(polytope.BEHAVIOR_SHAPE)
    expected[0, 0, 0, :, :, :] = 1.0
    assert np.allclose(beh.table, expected, atol=1e-14)


def test_behavior_correlators_match_trace_correlators(rng):
    from conftest import random_density_matrix

    rho = random_density_matrix(rng)
    flat = rng.uniform(0, np.pi, size=12)
    flat[1::2] *= 2
    scen = MeasurementScenario.from_flat(flat)
    beh = polytope.quantum_behavior(rho, scen)
    signs = np.array([1.0, -1.0])
    for x, y, z in [(0, 0, 0), (1, 1, 1), (0, 1, 0)]:
        from_behavior = np.einsum(
            "abc,a,b,c->", beh.table[:, :, :, x, y, z], signs, signs, signs
        )
        obs = (scen.vector(0, x), scen.vector(1, y), scen.vector(2, z))
        assert from_behavior == pytest.approx(correlator(rho, obs), abs=1e-12)


def test_quantum_behavior_matches_trace_oracle(rng):
    from conftest import random_density_matrix

    for rank in (1, 2, 8):
        rho = random_density_matrix(rng, rank=rank)
        scen = MeasurementScenario.from_flat(rng.uniform(0, 2 * np.pi, size=12))
        beh = polytope.quantum_behavior(rho, scen)
        assert np.max(np.abs(beh.table - _trace_behavior(rho, scen))) <= 1e-14


def test_quantum_behavior_is_nonsignaling(rng):
    from conftest import random_density_matrix

    rho = random_density_matrix(rng)
    scen = MeasurementScenario.from_flat(rng.uniform(0, np.pi, size=12))
    t = polytope.quantum_behavior(rho, scen).table
    # each party's marginal distribution cannot depend on the others' settings
    pa = t.sum(axis=(1, 2))  # (a, x, y, z)
    assert np.max(np.abs(pa - pa[:, :, :1, :1])) <= 1e-10
    pb = t.sum(axis=(0, 2))  # (b, x, y, z)
    assert np.max(np.abs(pb - pb[:, :1, :, :1])) <= 1e-10
    pc = t.sum(axis=(0, 1))  # (c, x, y, z)
    assert np.max(np.abs(pc - pc[:, :1, :1, :])) <= 1e-10


def test_behavior_validation_guards():
    bad = np.full(polytope.BEHAVIOR_SHAPE, 1 / 8.0)
    bad[0, 0, 0, 0, 0, 0] = 0.5  # breaks normalization
    with pytest.raises(ValueError):
        Behavior(bad)
    neg = np.full(polytope.BEHAVIOR_SHAPE, 1 / 8.0)
    neg[0, 0, 0, 0, 0, 0] = -0.01
    neg[1, 0, 0, 0, 0, 0] = 0.26
    with pytest.raises(ValueError):
        Behavior(neg)


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_behavior_rejects_non_finite_tables(entry):
    # NaN passes the positivity and normalization tests (both compare False),
    # so it needs its own rejection before any LP sees it
    for table in (np.full(polytope.BEHAVIOR_SHAPE, entry), np.full(polytope.BEHAVIOR_SHAPE, 1 / 8.0)):
        table[0, 0, 0, 0, 0, 0] = entry
        with pytest.raises(ValueError, match="non-finite probability"):
            Behavior(table)


def test_fully_local_vertex_count_and_normalization():
    verts = polytope.enumerate_vertices(HybridKind.FULLY_LOCAL)
    assert verts.shape == (64, 64)
    for v in verts:
        Behavior.from_flat(v)  # validates normalization exactly


def test_ns_bipartite_boxes_are_the_24_vertices():
    boxes = polytope.ns_bipartite_boxes()
    assert boxes.shape == (24, 16)
    assert len({tuple(box) for box in boxes}) == 24
    assert [tuple(box) for box in boxes] == sorted(tuple(box) for box in boxes)
    eq, rhs = _ns_equality_system()
    for box in boxes:
        assert box.min() >= 0.0
        assert np.array_equal(eq @ box, rhs)
        # a vertex: the equalities and its tight positivity constraints fix it
        tight = np.vstack([eq, np.eye(16)[box == 0.0]])
        assert np.linalg.matrix_rank(tight) == 16


def test_vertex_matrices_match_loop_construction():
    for kind in MODELS:
        verts = polytope.enumerate_vertices(kind)
        assert np.array_equal(verts, _loop_vertices(kind)), kind
        assert not verts.flags.writeable
        assert np.shares_memory(verts, polytope.enumerate_vertices(kind))


def test_model_vertex_counts():
    assert polytope.enumerate_vertices(HybridKind.NS2).shape == (3 * 24 * 4, 64)
    assert polytope.enumerate_vertices(HybridKind.S2).shape == (3 * 256 * 4, 64)


def test_vertices_respect_facet_bounds():
    ns2 = polytope.enumerate_vertices(HybridKind.NS2)
    vals = [behavior_operator_value(v.reshape(polytope.BEHAVIOR_SHAPE), BellKind.NS99) for v in ns2]
    assert max(vals) <= 3.0 + 1e-12
    assert max(vals) == pytest.approx(3.0)
    s2 = polytope.enumerate_vertices(HybridKind.S2)
    vals = [
        behavior_operator_value(v.reshape(polytope.BEHAVIOR_SHAPE), BellKind.SVETLICHNY)
        for v in s2
    ]
    assert max(vals) <= 4.0 + 1e-12
    assert max(vals) == pytest.approx(4.0)


def test_uniform_inside_fully_local():
    res = polytope.membership(Behavior(np.full(polytope.BEHAVIOR_SHAPE, 1 / 8.0)), HybridKind.FULLY_LOCAL)
    assert res.inside
    assert res.residual <= 1e-9


def test_membership_raises_when_the_phase1_witness_misses(monkeypatch):
    # a feasible phase-1 objective whose weights do not rebuild the behavior is a breakdown
    def empty_witness(at, b):
        return 0.0, np.zeros(at.shape[0]), np.zeros(at.shape[1]), 0

    monkeypatch.setattr(polytope, "_phase1_simplex", empty_witness)
    uniform = Behavior(np.full(polytope.BEHAVIOR_SHAPE, 1 / 8.0))
    with pytest.raises(LPNumericalError, match="phase-1 reported feasible but residual"):
        polytope.membership(uniform, HybridKind.FULLY_LOCAL)


def test_membership_raises_at_the_pivot_cap(monkeypatch):
    # a simplex that runs out of pivots is a breakdown, not an outside verdict
    monkeypatch.setattr(polytope, "LP_MAX_PIVOTS", 1)
    uniform = Behavior(np.full(polytope.BEHAVIOR_SHAPE, 1 / 8.0))
    with pytest.raises(LPNumericalError, match="phase-1 simplex did not terminate in 1 pivots"):
        polytope.membership(uniform, HybridKind.FULLY_LOCAL)


def test_phase1_simplex_raises_on_an_unbounded_direction():
    # the column's reduced cost 1.8e-11 passes the 1e-11 pricing cut, but none
    # of its entries exceeds the ratio test's 1e-11 cut
    with pytest.raises(LPNumericalError, match="unbounded direction"):
        polytope._phase1_simplex(np.full((1, 2), 0.9e-11), np.ones(2))


def test_random_local_mixtures_inside_all_models(rng):
    verts = polytope.enumerate_vertices(HybridKind.FULLY_LOCAL)
    for _ in range(3):
        w = rng.dirichlet(np.ones(64))
        beh = Behavior.from_flat(w @ verts)
        for kind in (HybridKind.FULLY_LOCAL, HybridKind.NS2, HybridKind.S2):
            res = polytope.membership(beh, kind)
            assert res.inside, f"local mixture escaped {kind}"
            # witness decomposition reconstructs the behavior
            model_verts = polytope.enumerate_vertices(kind)
            assert res.weights.min() >= 0.0
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-8)
            recon = res.weights @ model_verts
            assert np.max(np.abs(recon - beh.flat())) <= 1e-8


def test_ghz_optimal_scenario_outside_ns2():
    ghz = qalg.projector(states.ghz_state())
    rep = optimize_operator(ghz, BellKind.NS99, OptimizeOptions(restarts=16, seed=1))
    beh = polytope.quantum_behavior(ghz, rep.scenario)
    res = polytope.membership(beh, HybridKind.NS2)
    assert not res.inside
    assert res.phase1_objective > 1e-3
    _assert_certificate(res, beh)


def test_ghz_svetlichny_optimal_scenario_outside_s2():
    ghz = qalg.projector(states.ghz_state())
    rep = optimize_operator(ghz, BellKind.SVETLICHNY, OptimizeOptions(restarts=16, seed=1))
    assert rep.value == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-9)
    beh = polytope.quantum_behavior(ghz, rep.scenario)
    res = polytope.membership(beh, HybridKind.S2)
    assert not res.inside
    assert res.phase1_objective > 1e-3
    _assert_certificate(res, beh)  # against all 3072 S2 vertices


def test_s2_pair_columns_lift_every_vertex():
    # Each S2 vertex is the compact column sum over its deterministic pair
    # box, one entry per input pair, and the split maps that table back to
    # unit weight on the vertex's own row.
    columns = polytope._s2_pair_columns()
    assert columns.shape == (192, 100)
    assert not columns.flags.writeable
    verts = polytope.enumerate_vertices(HybridKind.S2)
    inputs = np.arange(4)
    for row in range(verts.shape[0]):
        pair, rest = divmod(row, 1024)
        box, s = divmod(rest, 4)
        outputs = (box // 4 ** (3 - inputs)) % 4  # output 2a+b of input pair 2x+y
        tables = np.zeros(192)
        tables[(pair * 4 + s) * 16 + inputs * 4 + outputs] = 1.0
        lifted = tables @ columns
        assert np.array_equal(lifted[:64], verts[row])
        assert not lifted[64:].any()
        weights = polytope._s2_vertex_weights(tables)
        assert weights[row] == 1.0
        assert np.count_nonzero(weights) == 1


def test_inside_ns2_implies_facet_satisfied(rng):
    # noisy GHZ at a visibility below the 99th-facet threshold
    ghz = qalg.projector(states.ghz_state())
    rep = optimize_operator(ghz, BellKind.NS99, OptimizeOptions(restarts=16, seed=1))
    for alpha in (0.3, 0.7):
        beh = polytope.quantum_behavior(states.white_noise_mix(ghz, alpha), rep.scenario)
        res = polytope.membership(beh, HybridKind.NS2)
        if res.inside:
            assert behavior_operator_value(beh.table, BellKind.NS99) <= 3.0 + 1e-7


def test_model_nesting(rng):
    # NS2 mixtures lie inside S2
    verts = polytope.enumerate_vertices(HybridKind.NS2)
    w = rng.dirichlet(np.ones(verts.shape[0]))
    beh = Behavior.from_flat(w @ verts)
    assert polytope.membership(beh, HybridKind.S2).inside


def test_behavior_file_roundtrip(tmp_path, rng):
    from conftest import random_density_matrix

    rho = random_density_matrix(rng)
    scen = MeasurementScenario.from_flat(rng.uniform(0, np.pi, size=12))
    beh = polytope.quantum_behavior(rho, scen)
    path = tmp_path / "behavior.txt"
    polytope.save_behavior(beh, path)
    loaded = polytope.load_behavior(path)
    assert np.allclose(loaded.table, beh.table, atol=1e-12)


def test_load_behavior_rejects_incomplete(tmp_path):
    path = tmp_path / "partial.txt"
    path.write_text("0 0 0 0 0 0 1.0\n")
    with pytest.raises(ValueError):
        polytope.load_behavior(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_behavior_names_a_non_finite_row(tmp_path, bad):
    # a NaN entry was reported as a coverage gap
    path = tmp_path / "behavior.txt"
    polytope.save_behavior(
        polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()),
        path,
    )
    text = path.read_text()
    assert "\n0 0 0 0 0 0 0.125\n" in text
    path.write_text(text.replace("\n0 0 0 0 0 0 0.125\n", f"\n0 0 0 0 0 0 {bad}\n"))
    with pytest.raises(ValueError, match=f"behavior row '0 0 0 0 0 0 {bad}' has a non-finite"):
        polytope.load_behavior(path)


def test_load_behavior_rejects_a_repeated_row(tmp_path):
    path = tmp_path / "behavior.txt"
    polytope.save_behavior(
        polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()),
        path,
    )
    # the first 0 0 0 0 0 0 row reads 0.9; the repeat used to overwrite it
    text = path.read_text().replace("\n0 0 0 0 0 0 ", "\n0 0 0 0 0 0 0.9\n0 0 0 0 0 0 ", 1)
    path.write_text(text)
    with pytest.raises(ValueError, match="repeats an earlier x y z a b c"):
        polytope.load_behavior(path)


def _oracle_behaviors(seed, count):
    """Seeded GHZ, GGHZ, Haar and noisy Haar behaviors, equatorial and general settings."""
    kinds = ("ghz", "gghz", "haar", "noisy")
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        kind = kinds[index % 4]
        if kind == "ghz":
            psi = states.ghz_state()
        elif kind == "gghz":
            psi = states.gghz(float(rng.uniform(0.05, math.pi / 4)))
        else:
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi = v / np.linalg.norm(v)
        rho = qalg.projector(psi)
        if kind == "noisy":
            rho = states.white_noise_mix(rho, float(rng.uniform(0.3, 1.0)))
        theta = rng.uniform(0.0, math.pi, size=6)
        if (index // 4) % 2 == 0:
            theta[:] = math.pi / 2
        angles = np.stack([theta, rng.uniform(0.0, 2.0 * math.pi, size=6)], axis=1)
        yield polytope.quantum_behavior(rho, MeasurementScenario(angles))


def test_membership_matches_dense_tableau_oracle():
    # Verdicts agree with the dense vertex LP, normalization row included, in
    # every model. Membership solves the behavior rows alone (for S2, the
    # compact pair-table LP), whose phase-1 value differs from that LP's, so
    # its objective is checked against the dense solver run on the same rows.
    compact = polytope._s2_pair_columns().T
    inside = set()
    for beh in _oracle_behaviors(seed=2024, count=32):
        for kind in MODELS:
            verts = polytope.enumerate_vertices(kind)
            A = np.vstack([verts.T, np.ones((1, verts.shape[0]))])
            b = np.append(beh.flat(), 1.0)
            objective, _, _ = _dense_phase1_simplex(A, b)
            res = polytope.membership(beh, kind)
            assert res.inside == (objective <= polytope.MEMBERSHIP_ATOL), kind
            if kind is HybridKind.S2:
                b = np.append(beh.flat(), np.zeros(36))
                objective, _, _ = _dense_phase1_simplex(compact, b)
            else:
                objective, _, _ = _dense_phase1_simplex(verts.T, beh.flat())
            assert res.phase1_objective == pytest.approx(objective, abs=1e-9)
            if res.inside:
                inside.add(kind)
                w = res.weights
                residual = max(np.max(np.abs(w @ verts - beh.flat())), abs(w.sum() - 1.0), -w.min())
                assert residual <= 1e-8
                assert res.certificate is None
            else:
                _assert_certificate(res, beh)
    assert inside == set(MODELS)  # the sample reaches inside verdicts in every model


def test_phase1_simplex_matches_dense_oracle_on_signed_rows():
    # small random LPs with mixed-sign right-hand sides, half of them feasible
    infeasible = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 8))
        feasible = seed % 2 == 1
        b = A @ rng.uniform(0.0, 1.0, size=8) if feasible else rng.normal(size=4)
        objective, w, y, _ = polytope._phase1_simplex(np.ascontiguousarray(A.T), b)
        reference, _, _ = _dense_phase1_simplex(A, b)
        assert objective == pytest.approx(reference, abs=1e-9), seed
        assert np.max(A.T @ y) <= 1e-9
        assert y @ b == pytest.approx(objective, abs=1e-9)
        if feasible:
            assert objective <= 1e-9
            assert w.min() >= 0.0
            assert np.max(np.abs(A @ w - b)) <= 1e-8
        infeasible += objective > 1e-6
    assert infeasible >= 10


@pytest.mark.parametrize("row, bad", [
    ("0 0 0 0 0 0 ", "2 0 0 0 0 0 "),  # setting 2
    ("0 0 0 0 0 0 ", "0 0 0 2 0 0 "),  # outcome 2
    ("1 0 0 0 0 0 ", "-1 0 0 0 0 0 "),  # would index setting 1 from the end
])
def test_load_behavior_rejects_fields_other_than_0_or_1(tmp_path, row, bad):
    path = tmp_path / "behavior.txt"
    polytope.save_behavior(
        polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()),
        path,
    )
    text = path.read_text()
    path.write_text(text.replace("\n" + row, "\n" + bad, 1))
    with pytest.raises(ValueError, match="must be 0 or 1"):
        polytope.load_behavior(path)
