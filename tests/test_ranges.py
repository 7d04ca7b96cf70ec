"""Every public entry point that takes a ranged parameter leaves the decision to
the parameter's one owner: it rejects what the owner rejects, with the owner's
message, and accepts the owner's boundary values.

Owners: ``states.check_tau_c12`` for (tau, C12^2), ``states.check_eta`` for
the GGHZ angle, ``states.mixed_builder`` for the mixing weight and
``channels.ChannelSpec`` for the channel strengths. Inputs outside a function's
own domain, which no owner covers, raise that function's own message.
"""

import math
import warnings

import numpy as np
import pytest

from tribell import channels, entangle, polytope, qalg, states, workflows
from tribell.bell import (
    BellKind,
    MeasurementScenario,
    behavior_operator_value,
    bound_b1_b3,
    bound_b2,
    bound_b4,
    bound_b5,
    chsh_pure_max,
    correlation_tensors,
    correlator,
    operator_value,
    visibility_threshold,
)
from tribell.bell.bounds import ns99_mixed_bound
from tribell.channels import ChannelKind, ChannelSpec
from tribell.states import Family

NAN = math.nan
QUARTER = math.pi / 4


def _visibility_check(tau, c12sq):
    try:
        workflows.visibility_check(BellKind.SVETLICHNY, tau, c12sq, restarts=1)
    except workflows.NoViolationError:
        pass  # in range; the pure state just never violates


def _damped(eta, g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", channels.HermitizedClosedFormWarning)
        return channels.closed_form_damped_gghz(eta, 0.1, g, 0.2)


# Per range: the entry points as functions of the checked values, the values
# each must reject, the boundary values each must accept, and the owner's message.
RANGES = {
    "pair": (
        {
            "check_tau_c12": states.check_tau_c12,
            "tau_c12sq": lambda t, c: states.tau_c12sq(Family.EXT_S, tau=t, c12sq=c),
            "ext_s_lambdas_from_tau_c12": states.ext_s_lambdas_from_tau_c12,
            "bound_b4": bound_b4,
            "bound_b5": bound_b5,
            "visibility_threshold": lambda t, c: visibility_threshold(BellKind.NS99, t, c),
            "visibility_check": _visibility_check,
        },
        [(-2e-12, 0.3), (0.3, -2e-12), (1.0 + 2e-12, 0.0), (0.0, 1.0 + 2e-12),
         (0.5, 0.5 + 2e-10), (NAN, 0.3), (0.3, NAN), (math.inf, 0.0)],
        [(-1e-12, 0.3), (0.3, -1e-12), (1.0 + 1e-12, 0.0), (0.0, 1.0 + 1e-12),
         (0.5, 0.50000000005)],
        "need finite tau",
    ),
    "tau": (
        {
            "bound_b1_b3": bound_b1_b3,
            "bound_b2": bound_b2,
            "delta_d_subclass_s": entangle.delta_d_subclass_s,
            "tau_c12sq_gghz": lambda t: states.tau_c12sq(Family.GGHZ, tau=t),
            # C12^2 = 1 - tau must not fall below -1e-12 where tau is rounded above 1
            "tau_c12sq_ms": lambda t: states.tau_c12sq(Family.MS, tau=t),
        },
        [(-2e-12,), (1.0 + 2e-12,), (NAN,)],
        [(-1e-12,), (0.0,), (1.0,), (1.0 + 1e-12,)],
        "need finite tau",
    ),
    "c12sq": (
        {"chsh_pure_max": chsh_pure_max},
        [(-2e-12,), (1.0 + 2e-12,), (NAN,)],
        [(-1e-12,), (0.0,), (1.0,), (1.0 + 1e-12,)],
        "need finite tau",
    ),
    "eta": (
        {
            "gghz": states.gghz,
            "family_state": lambda eta: states.family_state(Family.GGHZ, eta=eta),
            "tau_c12sq": lambda eta: states.tau_c12sq(Family.GGHZ, eta=eta),
            "delta_d_gghz": entangle.delta_d_gghz,
            "closed_form_depolarized_gghz":
                lambda eta: channels.closed_form_depolarized_gghz(eta, 0.1, 0.2, 0.3),
            "closed_form_damped_gghz": lambda eta: _damped(eta, 0.3),
        },
        [(-1e-12,), (QUARTER + 1e-11,), (NAN,)],
        [(0.0,), (QUARTER,), (QUARTER + 1e-12,)],
        r"eta must lie in \[0, pi/4\]",
    ),
    "p": (
        {
            "mixed_builder": lambda p: states.mixed_builder(Family.RHO4)(p),
            "mixed_builder_rho3": lambda p: states.mixed_builder(Family.RHO3, 3)(p),
            "family_state": lambda p: states.family_state(Family.RHO6, p=p),
            "ns99_mixed_bound": lambda p: ns99_mixed_bound(Family.RHO8, p),
        },
        [(-1e-12,), (1.0 + 1e-12,), (NAN,)],
        [(0.0,), (1.0,)],
        "mixing weight must lie in",
    ),
    "strength": (
        {
            "ChannelSpec_depolarize": lambda s: ChannelSpec(ChannelKind.DEPOLARIZE, (0.1, s, 0.2)),
            "ChannelSpec_amplitude_damp":
                lambda s: ChannelSpec(ChannelKind.AMPLITUDE_DAMP, (s, 0.1, 0.2)),
            "closed_form_depolarized_gghz":
                lambda s: channels.closed_form_depolarized_gghz(0.3, 0.1, 0.2, s),
            "closed_form_damped_gghz": lambda s: _damped(0.3, s),
        },
        [(-1e-12,), (1.0 + 1e-12,), (NAN,)],
        [(0.0,), (1.0,)],
        "channel strength must lie in",
    ),
}


def _cases():
    for kind, (entry_points, rejected, accepted, message) in RANGES.items():
        for name, fn in entry_points.items():
            for args in rejected:
                yield pytest.param(fn, args, message, id=f"{kind}-{name}-rejects-{args}")
            for args in accepted:
                yield pytest.param(fn, args, None, id=f"{kind}-{name}-accepts-{args}")


@pytest.mark.parametrize("fn, args, message", list(_cases()))
def test_every_entry_point_keeps_its_owners_range(fn, args, message):
    if message is None:
        fn(*args)
    else:
        with pytest.raises(ValueError, match=message):
            fn(*args)


_BELL_PAIR = qalg.projector(np.array([1, 0, 0, 1]) / math.sqrt(2.0))
_FOUR_AMPLITUDES = np.full(4, 0.5)

# Inputs outside a function's domain that no range owner covers: each call and the
# message of the check that must reject it.
DOMAIN_CHECKS = {
    "lambda_basis-index": (lambda: states.lambda_basis(5, 1), "lambda basis index must be 1..4"),
    "lambda_basis-sign": (lambda: states.lambda_basis(1, 0), "sign must be"),
    "pure_state-7-amplitudes": (lambda: states.pure_state(np.ones(7)), "expected 8 amplitudes"),
    "pure_state-zero": (lambda: states.pure_state(np.zeros(8)), "cannot normalize the zero"),
    "ChannelSpec-two-strengths": (
        lambda: ChannelSpec(ChannelKind.DEPOLARIZE, (0.1, 0.1)),
        "strengths must list one value per qubit",
    ),
    "SweepSpec-no-columns": (
        lambda: workflows.SweepSpec(Family.GGHZ, 0.1, 0.5, 3, ()),
        "sweep needs at least one output column",
    ),
    "SweepSpec-fractional-steps": (
        lambda: workflows.SweepSpec(Family.RHO6, 0.7, 0.8, 2.5, ("ns_bound",)),
        "steps must be an integer, got 2.5",
    ),
    "compute_table-3": (lambda: workflows.compute_table(3), "table must be 1 or 2"),
    "discord_numeric-measured-2": (
        lambda: entangle.discord_numeric(_BELL_PAIR, measured=2), "measured must be 0 or 1"
    ),
    "three_tangle_pure-two-qubits": (
        lambda: entangle.three_tangle_pure(_FOUR_AMPLITUDES), "three-qubit pure states"
    ),
    "discord_monogamy_score-two-qubits": (
        lambda: entangle.discord_monogamy_score(_FOUR_AMPLITUDES), "three-qubit pure states"
    ),
    "quantum_behavior-two-qubits": (
        lambda: polytope.quantum_behavior(_BELL_PAIR, MeasurementScenario.all_z()),
        "expects a three-qubit state",
    ),
    "check_density_matrix-non-square": (
        lambda: qalg.check_density_matrix(np.eye(4)[:2]), "rho must be square"
    ),
    "check_density_matrix-non-finite": (
        lambda: qalg.check_density_matrix(np.full((2, 2), np.nan)),
        "rho contains non-finite entries",
    ),
    "check_density_matrix-16": (
        lambda: qalg.check_density_matrix(np.eye(16) / 16),
        "rho dimension must be 2, 4 or 8, got 16",
    ),
    "check_state_vector-3-amplitudes": (
        lambda: qalg.check_state_vector(np.ones(3)), "state dimension must be 2, 4 or 8, got 3"
    ),
    "check_state_vector-non-finite": (
        lambda: qalg.check_state_vector(np.array([np.inf, 0.0])),
        "state contains non-finite amplitudes",
    ),
    "pauli_tensor-shape": (
        lambda: qalg.pauli_tensor(_BELL_PAIR, 3), "expected a 3-qubit density matrix"
    ),
    "bloch_observable-2-vector": (
        lambda: qalg.bloch_observable(np.ones(2)), "Bloch vector must have shape"
    ),
    "correlator-slot-count": (
        lambda: correlator(_BELL_PAIR, [np.array([0.0, 0.0, 1.0])]),
        "expected 2 observable slots, got 1",
    ),
    "operator_value-ns99-two-parties": (
        lambda: operator_value(_BELL_PAIR, MeasurementScenario.all_z(2), BellKind.NS99),
        "ns99 needs 3 parties, scenario has 2",
    ),
    "correlation_tensors-4": (
        lambda: correlation_tensors(_BELL_PAIR, 4), "unsupported party count 4"
    ),
    "behavior_operator_value-chsh": (
        lambda: behavior_operator_value(np.full(polytope.BEHAVIOR_SHAPE, 1 / 8.0), "chsh"),
        "behavior tables are three-party objects",
    ),
    "Behavior-shape": (
        lambda: polytope.Behavior(np.full((2, 2), 0.5)), "behavior table must have shape"
    ),
}


@pytest.mark.parametrize("call, message", list(DOMAIN_CHECKS.values()), ids=list(DOMAIN_CHECKS))
def test_every_domain_check_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
