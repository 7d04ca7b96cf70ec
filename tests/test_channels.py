import numpy as np
import pytest

from tribell import channels, qalg, states
from tribell.channels import ChannelKind, ChannelSpec
from conftest import amplitude_damp_qubit, depolarize_qubit, random_density_matrix


def test_depolarize_zero_strength_is_identity(rng):
    rho = random_density_matrix(rng)
    assert np.allclose(depolarize_qubit(rho, 2, 0.0), rho, atol=1e-14)


def test_depolarize_full_strength_mixes_marginal(rng):
    rho = random_density_matrix(rng)
    out = depolarize_qubit(rho, 1, 1.0)
    marginal = qalg.partial_trace(out, keep=[1])
    assert np.allclose(marginal, np.eye(2) / 2, atol=1e-12)
    # untouched qubits keep their joint marginal
    assert np.allclose(
        qalg.partial_trace(out, keep=[2, 3]), qalg.partial_trace(rho, keep=[2, 3]), atol=1e-12
    )


def test_depolarize_scales_ghz_coherence():
    p = 0.37
    rho = qalg.projector(states.ghz_state())
    out = depolarize_qubit(rho, 1, p)
    assert out[0, 7].real == pytest.approx((1.0 - p) * 0.5, abs=1e-14)


def test_amplitude_damp_zero_strength_is_identity(rng):
    rho = random_density_matrix(rng)
    assert np.allclose(amplitude_damp_qubit(rho, 3, 0.0), rho, atol=1e-14)


def test_amplitude_damp_single_qubit_population():
    # |1><1| -> gamma |0><0| + (1-gamma)|1><1|, checked on qubit 3 of |111>
    rho = np.zeros((8, 8), dtype=complex)
    rho[7, 7] = 1.0
    gamma = 0.42
    out = amplitude_damp_qubit(rho, 3, gamma)
    assert out[7, 7].real == pytest.approx(1.0 - gamma)
    assert out[6, 6].real == pytest.approx(gamma)  # |110><110|
    full = amplitude_damp_qubit(rho, 3, 1.0)
    assert full[6, 6].real == pytest.approx(1.0)


def test_strength_guards():
    # ChannelSpec is the one check of the strengths, for either kind and any qubit
    for kind, bad in ((ChannelKind.DEPOLARIZE, 1.2), (ChannelKind.AMPLITUDE_DAMP, -0.1)):
        for qubit in range(3):
            strengths = tuple(bad if q == qubit else 0.5 for q in range(3))
            with pytest.raises(ValueError, match="channel strength must lie in"):
                ChannelSpec(kind, strengths)
    rho = np.eye(8, dtype=complex) / 8
    with pytest.raises(ValueError, match="qubit must be in 1..3"):
        channels._apply_kraus_on_qubit(rho, channels._depolarizing_kraus(0.5), 4)


def test_apply_channel_spec_zero_is_identity(rng):
    rho = random_density_matrix(rng)
    spec = ChannelSpec(ChannelKind.DEPOLARIZE, (0.0, 0.0, 0.0))
    assert np.allclose(channels.apply_channel_spec(rho, spec), rho, atol=1e-14)


def test_apply_channel_spec_published_examples_are_states():
    dep = channels.apply_channel_spec(
        qalg.projector(states.gghz(0.69)),
        ChannelSpec(ChannelKind.DEPOLARIZE, (0.8, 0.7, 0.6)),
    )
    qalg.check_density_matrix(dep)
    psi = states.pure_state([0.995, 0, 0, 0, 0, 0, 0, 0.099])
    damped = channels.apply_channel_spec(
        qalg.projector(psi), ChannelSpec(ChannelKind.AMPLITUDE_DAMP, (0.1, 0.08, 0.09))
    )
    qalg.check_density_matrix(damped)
    # damping keeps the |000> population plus what decays into it
    assert damped[0, 0].real > psi[0].real ** 2


def test_channels_preserve_trace_and_psd(rng):
    for _ in range(25):
        rho = random_density_matrix(rng)
        qubit = int(rng.integers(1, 4))
        for out in (
            depolarize_qubit(rho, qubit, float(rng.uniform(0, 1))),
            amplitude_damp_qubit(rho, qubit, float(rng.uniform(0, 1))),
        ):
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_channels_commute_across_qubits(rng):
    rho = random_density_matrix(rng)
    a = depolarize_qubit(depolarize_qubit(rho, 1, 0.3), 2, 0.7)
    b = depolarize_qubit(depolarize_qubit(rho, 2, 0.7), 1, 0.3)
    assert np.max(np.abs(a - b)) <= 1e-12
    c = amplitude_damp_qubit(amplitude_damp_qubit(rho, 1, 0.2), 3, 0.5)
    d = amplitude_damp_qubit(amplitude_damp_qubit(rho, 3, 0.5), 1, 0.2)
    assert np.max(np.abs(c - d)) <= 1e-12


def test_depolarization_coherence_factor_exact(rng):
    # every single-qubit coherence on the addressed qubit scales by 1 - p
    rho = random_density_matrix(rng)
    p = 0.61
    out = depolarize_qubit(rho, 1, p)
    # coherence blocks between qubit-1 values 0 and 1
    r = rho.reshape(2, 4, 2, 4)
    o = out.reshape(2, 4, 2, 4)
    assert np.allclose(o[0, :, 1, :], (1 - p) * r[0, :, 1, :], atol=1e-13)
    assert np.allclose(o[1, :, 0, :], (1 - p) * r[1, :, 0, :], atol=1e-13)


def _kron_kraus_on_qubit(rho, kraus, qubit):
    """The former Kraus map: each K embedded as an 8x8 kron operator, then K rho K^dagger."""
    eye = np.eye(2, dtype=complex)
    out = np.zeros_like(rho)
    for k in kraus:
        factors = [k if q == qubit else eye for q in range(1, 4)]
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        out += op @ rho @ op.conj().T
    return out


def test_kraus_map_matches_kron_oracle(rng):
    rhos = [random_density_matrix(rng, rank=r) for r in (1, 2, 8) for _ in range(3)]
    rhos.append(qalg.projector(states.gghz(0.69)))
    for rho in rhos:
        for qubit in (1, 2, 3):
            s = float(rng.uniform())
            assert np.array_equal(
                depolarize_qubit(rho, qubit, s),
                _kron_kraus_on_qubit(rho, channels._depolarizing_kraus(s), qubit),
            )
            assert np.array_equal(
                amplitude_damp_qubit(rho, qubit, s),
                _kron_kraus_on_qubit(rho, channels._amplitude_damping_kraus(s), qubit),
            )
        for kind, builder in (
            (ChannelKind.DEPOLARIZE, channels._depolarizing_kraus),
            (ChannelKind.AMPLITUDE_DAMP, channels._amplitude_damping_kraus),
        ):
            strengths = tuple(float(x) for x in rng.uniform(size=3))
            ref = rho
            for qubit, s in enumerate(strengths, start=1):
                ref = _kron_kraus_on_qubit(ref, builder(s), qubit)
            got = channels.apply_channel_spec(rho, ChannelSpec(kind, strengths))
            assert np.array_equal(got, ref)


def test_channels_reject_states_that_are_not_three_qubits():
    with pytest.raises(ValueError, match="three-qubit"):
        depolarize_qubit(np.eye(4) / 4, 1, 0.5)
    with pytest.raises(ValueError, match="three-qubit"):
        channels.apply_channel_spec(np.eye(2) / 2, ChannelSpec(ChannelKind.DEPOLARIZE, (0.1,) * 3))


def test_closed_form_depolarized_limits():
    rho = channels.closed_form_depolarized_gghz(0.41, 0.0, 0.0, 0.0)
    assert np.allclose(rho, qalg.projector(states.gghz(0.41)), atol=1e-14)
    sym = channels.closed_form_depolarized_gghz(np.pi / 4, 0.5, 0.5, 0.5)
    assert sym[0, 0].real == pytest.approx(sym[7, 7].real)


def test_closed_form_depolarized_differs_from_kraus():
    # the published two-level matrix truncates the spread populations; the
    # generic Kraus map is the oracle and the discrepancy is real
    eta, p = 0.69, (0.8, 0.7, 0.6)
    closed = channels.closed_form_depolarized_gghz(eta, *p)
    kraus = channels.apply_channel_spec(
        qalg.projector(states.gghz(eta)), ChannelSpec(ChannelKind.DEPOLARIZE, p)
    )
    gap = np.max(np.abs(closed - kraus))
    assert gap > 0.1  # models genuinely disagree at strong noise
    assert kraus[1, 1].real > 0.01 and closed[1, 1].real == 0.0


def test_closed_form_damped_limits():
    with pytest.warns(channels.HermitizedClosedFormWarning):
        rho = channels.closed_form_damped_gghz(0.3, 0.2, 0.3, 0.4)
    assert np.allclose(rho, rho.conj().T)
    none = channels.closed_form_damped_gghz(0.3, 0.0, 0.0, 0.0)
    assert np.allclose(none, qalg.projector(states.gghz(0.3)), atol=1e-14)
    zero_eta = channels.closed_form_damped_gghz(0.0, 0.5, 0.6, 0.7)
    expected = np.zeros((8, 8))
    expected[0, 0] = 1.0
    assert np.allclose(zero_eta, expected)


def test_closed_form_damped_vs_kraus_comparison():
    eta, g = 0.3, (0.25, 0.15, 0.1)
    with pytest.warns(channels.HermitizedClosedFormWarning):
        closed = channels.closed_form_damped_gghz(eta, *g)
    kraus = channels.apply_channel_spec(
        qalg.projector(states.gghz(eta)), ChannelSpec(ChannelKind.AMPLITUDE_DAMP, g)
    )
    # they share the |000> block scale but differ in the damped populations
    assert abs(closed[0, 0].real - kraus[0, 0].real) < 0.05
    assert np.max(np.abs(closed - kraus)) > 1e-3
