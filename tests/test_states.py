import json

import numpy as np
import pytest

from tribell import entangle, qalg, states
from tribell.states import Family


def test_gghz_is_ghz_at_quarter_pi():
    psi = states.gghz(np.pi / 4)
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    assert np.allclose(psi, expected)


def test_gghz_at_zero_is_000():
    psi = states.gghz(0.0)
    assert psi[0] == pytest.approx(1.0)
    assert np.allclose(psi[1:], 0.0)


def test_gghz_example_amplitudes():
    psi = states.gghz(0.69)
    assert psi[0].real == pytest.approx(np.cos(0.69))
    assert psi[7].real == pytest.approx(np.sin(0.69))


def test_gghz_range_guard():
    with pytest.raises(ValueError):
        states.gghz(1.0)
    with pytest.raises(ValueError):
        states.gghz(-0.1)


def test_extended_ghz_reduces_to_ms_and_ghz():
    eta = 0.37
    r = 1 / np.sqrt(2)
    assert np.allclose(
        states.extended_ghz(r, np.cos(eta) * r, np.sin(eta) * r), states.ms(eta)
    )
    assert np.allclose(states.extended_ghz(r, 0.0, r), states.ghz_state())
    psi = states.extended_ghz(1.0, 0.0, 0.0)
    assert psi[0] == pytest.approx(1.0)


def test_extended_ghz_rejects_unnormalized():
    with pytest.raises(ValueError):
        states.extended_ghz(0.8, 0.5, 0.5)


@pytest.mark.parametrize("triple", [(np.nan, 0.0, 1.0), (0.6, np.inf, 0.8)])
def test_extended_ghz_rejects_non_finite(triple):
    # a NaN norm passed the normalization check and reached the eigensolver
    with pytest.raises(ValueError, match="lambda triple must be finite"):
        states.extended_ghz(*triple)


def test_ms_range_and_warning():
    with pytest.warns(UserWarning):
        psi = states.ms(np.pi / 2)
    assert np.allclose(psi, states.ghz_state())
    with pytest.warns(UserWarning):
        states.ms(1.0)
    with pytest.raises(ValueError):
        states.ms(2.0)


def test_ms_at_zero_is_biseparable():
    psi = states.ms(0.0)
    assert psi[0] == pytest.approx(1 / np.sqrt(2))
    assert psi[0b110] == pytest.approx(1 / np.sqrt(2))
    assert entangle.three_tangle_pure(psi) == pytest.approx(0.0, abs=1e-12)


def test_ms_detection_example_amplitudes():
    # amplitudes (1, 0.955, 0.296)/sqrt(2), published with rounded norm
    amps = np.zeros(8)
    amps[0], amps[6], amps[7] = 1.0, 0.955, 0.296
    psi = states.pure_state(amps, normalize=True)
    eta = np.arctan2(0.296, 0.955)
    assert np.allclose(psi, states.ms(eta), atol=2e-4)


def test_named_pure_states():
    ghz = states.ghz_state()
    assert ghz[0] == pytest.approx(1 / np.sqrt(2))
    wt = states.w_tilde_state()
    assert wt[0b011] == pytest.approx(1 / np.sqrt(3))
    assert wt[0b110] == pytest.approx(1 / np.sqrt(3))
    assert wt[0b101] == pytest.approx(1 / np.sqrt(3))
    lam = states.lambda_basis(4, -1)
    assert lam[0b011] == pytest.approx(1 / np.sqrt(2))
    assert lam[0b100] == pytest.approx(-1 / np.sqrt(2))


# The hand-expanded builders the affine table replaced, kept as its reference.
def _omega():
    return qalg.projector(states.lambda_basis(1, 1)) + qalg.projector(states.lambda_basis(1, -1))


def _pi():
    return sum(qalg.projector(states.lambda_basis(i, 1)) for i in (2, 3, 4))


def _lam(index, sign):
    return qalg.projector(states.lambda_basis(index, sign))


REFERENCE_BUILDERS = {
    Family.RHO2: lambda p: p * qalg.projector(states.ghz_state())
    + (1.0 - p) * qalg.projector(states.w_state()),
    Family.RHO4: lambda p: p * _lam(1, 1) + (1.0 - p) / 3.0 * _pi(),
    Family.RHO5: lambda p: p * _lam(1, 1) + (1.0 - p) / 10.0 * (_lam(1, -1) + 3.0 * _pi()),
    Family.RHO6: lambda p: p * _lam(2, -1) + (1.0 - p) / 11.0 * (_omega() + 3.0 * _pi()),
    Family.RHO7: lambda p: p * _lam(3, -1)
    + (1.0 - p) / 34.0 * (_lam(2, -1) + 3.0 * _omega() + 9.0 * _pi()),
    Family.RHO8: lambda p: p * _lam(4, -1)
    + (1.0 - p) / 35.0 * (_lam(2, -1) + _lam(3, -1) + 3.0 * _omega() + 9.0 * _pi()),
}


def _reference_rho3(p, k):
    q = (1.0 - p) / k
    r = max(1.0 - p - q, 0.0)
    return (
        p * qalg.projector(states.ghz_state())
        + q * qalg.projector(states.w_state())
        + r * qalg.projector(states.w_tilde_state())
    )


P_GRID = np.linspace(0.0, 1.0, 101)


@pytest.mark.parametrize("family", list(REFERENCE_BUILDERS), ids=lambda f: f.value)
def test_mixed_builder_matches_reference_bit_for_bit(family):
    build, reference = states.mixed_builder(family), REFERENCE_BUILDERS[family]
    for p in P_GRID:
        assert np.array_equal(build(float(p)), reference(float(p))), (family, p)


@pytest.mark.parametrize("k", [1, 2, 3, 10])
def test_mixed_builder_rho3_matches_reference(k):
    # the table weights W-tilde by (1 - p)/k * (k - 1) where the reference takes 1 - p - q
    build = states.mixed_builder(Family.RHO3, k)
    for p in P_GRID:
        assert np.max(np.abs(build(float(p)) - _reference_rho3(float(p), k))) <= 1e-16


def test_rho3_k1_equals_rho2():
    rho2, rho3 = states.mixed_builder(Family.RHO2), states.mixed_builder(Family.RHO3, 1)
    for p in (0.0, 0.3, 0.8, 1.0):
        assert np.allclose(rho3(p), rho2(p), atol=1e-15)


def test_rho4_collapses_at_p1():
    assert np.allclose(states.mixed_builder(Family.RHO4)(1.0), qalg.projector(states.ghz_state()))


def test_rho6_at_p0_matches_direct_construction():
    # direct construction oracle: (Omega + 3 Pi)/11 from explicit projectors
    expected = (_omega() + 3 * _pi()) / 11.0
    got = states.mixed_builder(Family.RHO6)(0.0)
    assert np.allclose(got, expected, atol=1e-15)
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)


def test_mixed_family_weight_guards():
    with pytest.raises(ValueError, match="mixing weight must lie in"):
        states.mixed_builder(Family.RHO2)(1.2)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        states.mixed_builder(Family.RHO3, 0)(0.5)


def test_mixed_builder_rejects_a_float_k_after_the_equal_integer():
    # 2.0 == 2 and both hash alike, so a cache keyed on k would skip the check
    states.mixed_builder(Family.RHO3, 2)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        states.mixed_builder(Family.RHO3, 2.0)


def test_mixed_families_are_valid_states(rng):
    for fam in states.MIXED_FAMILIES:
        build = states.mixed_builder(fam, k=3)
        for p in rng.uniform(0, 1, size=4):
            rho = build(float(p))
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-10
    for fam in set(Family) - set(states.MIXED_FAMILIES):
        with pytest.raises(ValueError):
            states.mixed_builder(fam, k=3)


# The keywords each family requires, with one admissible value each.
FAMILY_KEYWORDS = {
    Family.GGHZ: {"eta": 0.5},
    Family.MS: {"eta": 0.5},
    Family.EXT_S: {"lambdas": (0.8, 0.36, 0.48)},
    Family.GHZ: {},
    Family.W: {},
    Family.WTILDE: {},
    Family.LAMBDA_BASIS: {"basis_index": 3, "sign": -1},
    Family.RHO2: {"p": 0.7},
    Family.RHO3: {"p": 0.7, "k": 4},
    Family.RHO4: {"p": 0.7},
    Family.RHO5: {"p": 0.7},
    Family.RHO6: {"p": 0.7},
    Family.RHO7: {"p": 0.7},
    Family.RHO8: {"p": 0.7},
}


@pytest.mark.parametrize("family", list(Family))
def test_family_state_builds_every_family(family):
    keywords = FAMILY_KEYWORDS[family]
    rho = states.family_state(family, **keywords)
    assert rho.shape == (8, 8)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    if family in states.MIXED_FAMILIES:
        expected = states.mixed_builder(family, keywords.get("k"))(keywords["p"])
        assert np.array_equal(rho, expected)
    # every required keyword is enforced
    for name in keywords:
        with pytest.raises(ValueError):
            states.family_state(family, **{**keywords, name: None})


# One admissible value for every keyword that family_state takes.
ANY_KEYWORD = {
    "eta": 0.5, "lambdas": (0.8, 0.36, 0.48), "p": 0.7, "k": 4, "basis_index": 3, "sign": -1,
}


@pytest.mark.parametrize("family", list(Family))
def test_family_state_rejects_foreign_keywords(family):
    keywords = FAMILY_KEYWORDS[family]
    foreign = sorted(ANY_KEYWORD.keys() - keywords.keys())
    assert len(foreign) == len(ANY_KEYWORD) - len(keywords)
    for name in foreign:
        with pytest.raises(ValueError, match=f"{family.value} does not take {name}"):
            states.family_state(family, **keywords, **{name: ANY_KEYWORD[name]})
        # None stands for "not given", as the CLI passes every option
        states.family_state(family, **keywords, **{name: None})


def test_white_noise_mix_endpoints(rng):
    rho = qalg.projector(states.ghz_state())
    assert np.allclose(states.white_noise_mix(rho, 1.0), rho)
    assert np.allclose(states.white_noise_mix(rho, 0.0), np.eye(8) / 8)
    with pytest.raises(ValueError):
        states.white_noise_mix(rho, 1.5)


def test_white_noise_mix_ghz_half():
    mixed = states.white_noise_mix(qalg.projector(states.ghz_state()), 0.5)
    assert mixed[0, 0].real == pytest.approx(0.25 + 0.0625)
    assert mixed[7, 7].real == pytest.approx(0.25 + 0.0625)
    for i in range(1, 7):
        assert mixed[i, i].real == pytest.approx(0.0625)
    assert mixed[0, 7].real == pytest.approx(0.25)


def test_pure_family_constructors_normalized(rng):
    for _ in range(20):
        eta = float(rng.uniform(0, np.pi / 4))
        for psi in (states.gghz(eta), states.ms(eta)):
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        psi = states.extended_ghz(*v)
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)


def test_ext_s_half_lambda0_tangle_identity(rng):
    # on the lam0 = 1/sqrt(2) slice, tau = 1 - C12^2
    for _ in range(10):
        eta = float(rng.uniform(0, np.pi / 2))
        r = 1 / np.sqrt(2)
        psi = states.extended_ghz(r, np.cos(eta) * r, np.sin(eta) * r)
        tau = entangle.three_tangle_pure(psi)
        rho_ab = qalg.partial_trace(qalg.projector(psi), keep=[1, 2])
        c12 = entangle.concurrence(rho_ab)
        assert tau == pytest.approx(1.0 - c12 * c12, abs=1e-10)


def test_tau_c12sq_matches_the_states(rng):
    for _ in range(5):
        eta = float(rng.uniform(0, np.pi / 4))
        for family, build in ((Family.GGHZ, states.gghz), (Family.MS, states.ms)):
            psi = build(eta)
            tau, c12sq = states.tau_c12sq(family, eta=eta)
            assert tau == pytest.approx(entangle.three_tangle_pure(psi), abs=1e-10)
            rho_ab = qalg.partial_trace(qalg.projector(psi), keep=[1, 2])
            assert c12sq == pytest.approx(entangle.concurrence(rho_ab) ** 2, abs=1e-10)
            assert states.tau_c12sq(family, tau=tau)[1] == pytest.approx(c12sq, abs=1e-12)
    assert states.tau_c12sq(Family.EXT_S, tau=0.3, c12sq=0.4) == (0.3, 0.4)
    # 1 - 0.8 is 0.19999999999999996; the typed 0.2 fits and the derived value is kept
    assert states.tau_c12sq(Family.MS, tau=0.8, c12sq=0.2) == (0.8, 1.0 - 0.8)
    for family, given in [
        (Family.GGHZ, dict(tau=0.5, c12sq=0.3)),
        (Family.MS, dict(tau=0.5, c12sq=0.1)),
        (Family.MS, dict(eta=0.5, tau=0.5)),
        (Family.MS, dict()),
        (Family.GGHZ, dict(eta=2.0)),  # outside [0, pi/4], as gghz() rejects it
        (Family.GGHZ, dict(eta=-0.5)),
        (Family.MS, dict(eta=3.0)),  # outside [0, pi/2], as ms() rejects it
        (Family.EXT_S, dict(tau=0.5)),
        (Family.EXT_S, dict(eta=0.5, c12sq=0.3)),
        (Family.RHO4, dict(tau=0.5)),
    ]:
        with pytest.raises(ValueError):
            states.tau_c12sq(family, **given)


def test_ext_s_lambdas_from_tau_c12():
    l0, l3, l4 = states.ext_s_lambdas_from_tau_c12(0.3, 0.4)
    assert l0 * l0 + l3 * l3 + l4 * l4 == pytest.approx(1.0, abs=1e-12)
    assert 4 * l0 * l0 * l4 * l4 == pytest.approx(0.3, abs=1e-10)
    assert 4 * l0 * l0 * l3 * l3 == pytest.approx(0.4, abs=1e-10)
    with pytest.raises(ValueError):
        states.ext_s_lambdas_from_tau_c12(0.7, 0.7)


@pytest.mark.parametrize("tau, c12sq", [(0.5, np.nan), (np.nan, 0.2)])
def test_ext_s_lambdas_from_tau_c12_rejects_non_finite(tau, c12sq):
    # NaN passed the range checks and came back as a NaN triple
    with pytest.raises(ValueError, match="need finite tau"):
        states.ext_s_lambdas_from_tau_c12(tau, c12sq)


def test_state_file_amplitudes(tmp_path):
    path = tmp_path / "state.json"
    amps = [[0.966, 0.0]] + [[0.0, 0.0]] * 6 + [[0.259, 0.0]]
    path.write_text(json.dumps({"amplitudes": amps}))
    rho = states.load_state_file(path)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert rho[0, 0].real == pytest.approx(0.966**2, abs=1e-3)


def test_state_file_density(tmp_path):
    path = tmp_path / "density.json"
    rho = states.white_noise_mix(qalg.projector(states.ghz_state()), 0.6)
    doc = {"density": [[[float(v.real), float(v.imag)] for v in row] for row in rho]}
    path.write_text(json.dumps(doc))
    loaded = states.load_state_file(path)
    assert np.allclose(loaded, rho, atol=1e-12)


def test_state_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"amplitudes": [[1.0, 0.0]] * 3}))
    with pytest.raises(ValueError):
        states.load_state_file(path)
    path.write_text(json.dumps({"nothing": 1}))
    with pytest.raises(ValueError):
        states.load_state_file(path)


@pytest.mark.parametrize("layout, entries", [
    ("amplitudes", [1, 0, 0, 0, 0, 0, 0, 0]),
    ("amplitudes", [[1.0, 0.0]] * 7 + ["ab"]),
    ("density", [[0] * 8] * 8),
])
def test_state_file_rejects_entries_that_are_not_pairs(tmp_path, layout, entries):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({layout: entries}))
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        states.load_state_file(path)


@pytest.mark.parametrize("doc", [{"amplitudes": 5}, {"density": 5}, {"density": [5]}, 5])
def test_state_file_rejects_containers_that_are_not_lists(tmp_path, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="JSON"):
        states.load_state_file(path)


@pytest.mark.parametrize("skew", [0.9e-3, 1.1e-3])
def test_state_file_density_hermitized_only_within_budget(tmp_path, skew):
    # rounding may leave rho_07 and rho_70* apart by up to FILE_NORM_ATOL
    rho = states.white_noise_mix(qalg.projector(states.ghz_state()), 0.6)
    off = rho.copy()
    off[0, 7] += skew
    path = tmp_path / "density.json"
    path.write_text(json.dumps({"density": [[[v.real, v.imag] for v in row] for row in off.tolist()]}))
    if skew > states.FILE_NORM_ATOL:
        with pytest.raises(ValueError, match="not Hermitian"):
            states.load_state_file(path)
    else:
        loaded = states.load_state_file(path)
        assert np.array_equal(loaded, loaded.conj().T)
        assert np.allclose(loaded, (off + off.conj().T) / 2, atol=1e-15)
