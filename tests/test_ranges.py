"""Every public entry point that takes a ranged parameter leaves the decision to
the parameter's one owner: it rejects what the owner rejects, with the owner's
message, and accepts the owner's boundary values.

Owners: ``states.check_tau_c12`` for (tau, C12^2), ``states.check_eta`` for
the GGHZ angle, ``states.mixed_builder`` for the mixing weight and
``channels.ChannelSpec`` for the channel strengths.
"""

import math
import warnings

import pytest

from tribell import channels, entangle, states, workflows
from tribell.bell import (
    BellKind,
    bound_b1_b3,
    bound_b2,
    bound_b4,
    bound_b5,
    chsh_pure_max,
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
