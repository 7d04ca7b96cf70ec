"""Command-line frontend.

Verbs: bound, optimize, threshold, visibility, sweep, tables, membership,
channel. Output is line-oriented key=value text, or a single JSON document
with identical fields under --json. Exit codes: 0 success, 2 invalid input,
3 numerical non-convergence / no crossing / no violation.

Options left out take the library's defaults; NL_SEED overrides the default
seed and an explicit --seed wins over both. A --seed, --restarts or --delta
that the chosen path never reads exits 2. All angles are radians.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import channels, polytope, states, workflows
from .bell import (
    NS99_MIXED_FAMILIES,
    BellKind,
    MeasurementScenario,
    OptimizeOptions,
    bound_b4,
    bound_b5,
    chsh_pure_max,
    ns99_mixed_bound,
    optimize_operator,
    visibility_threshold,
)
from .bell.optimize import DEFAULT_RESTARTS, DEFAULT_SEED
from .states import Family

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
THREE_PARTY = [BellKind.NS99.value, BellKind.SVETLICHNY.value]


def _seed(args) -> int:
    """The --seed given, else NL_SEED, else DEFAULT_SEED; read only where a path draws restarts."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("NL_SEED", str(DEFAULT_SEED))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"NL_SEED must be an integer, got {text!r}") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _emit(pairs: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(pairs, sort_keys=True))
    else:
        for key, value in pairs.items():
            if isinstance(value, (list, tuple)):
                print(f"{key}=" + ",".join(_fmt(v) for v in value))
            else:
                print(f"{key}={_fmt(value)}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--restarts", type=int, help=f"default {DEFAULT_RESTARTS}")
    parser.add_argument("--seed", type=int, help=f"RNG seed (default NL_SEED or {DEFAULT_SEED})")
    parser.add_argument("--json", action="store_true", help="emit one JSON document")


def _given(**options) -> dict:
    """The options given on the command line; the callee's defaults fill the rest."""
    return {name: value for name, value in options.items() if value is not None}


# The options that name a family state; a state file replaces all of them.
FAMILY_OPTIONS = ("--family", "--eta", "--lambdas", "--p", "--k", "--basis-index", "--sign")


def _reject_given(args, options, other: str) -> None:
    """Raise ValueError naming the first of ``options`` given on the command line."""
    for option in options:
        if getattr(args, option[2:].replace("-", "_")) is not None:
            raise ValueError(f"{option} cannot be combined with {other}")


def _state_from_args(args) -> np.ndarray:
    if args.state:
        _reject_given(args, FAMILY_OPTIONS, "--state FILE")
        rho = states.load_state_file(args.state)
    elif args.family:
        rho = states.family_state(
            args.family,
            eta=args.eta,
            lambdas=args.lambdas,
            p=args.p,
            k=args.k,
            basis_index=args.basis_index,
            sign=args.sign,
        )
    else:
        raise ValueError("provide --state FILE or --family with its parameters")
    if args.alpha is not None:
        rho = states.white_noise_mix(rho, args.alpha)
    return rho


def _add_state_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state", help="JSON state file (amplitudes or density)")
    parser.add_argument("--family", choices=[f.value for f in Family], help="named family")
    parser.add_argument("--eta", type=float, help="family angle in radians")
    parser.add_argument("--lambdas", type=float, nargs=3, metavar=("L0", "L3", "L4"))
    parser.add_argument("--p", type=float, help="mixing weight")
    parser.add_argument("--k", type=int, help="rho3 integer parameter")
    parser.add_argument("--basis-index", type=int, choices=[1, 2, 3, 4],
                        help="lambda_basis index")
    parser.add_argument("--sign", type=int, choices=[1, -1], help="lambda_basis sign")
    parser.add_argument("--alpha", type=float, help="optional white-noise visibility mix")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_bound(args) -> int:
    op = BellKind(args.operator)
    family = Family(args.family)
    if op is BellKind.CHSH:
        if args.c12sq is None or args.tau is not None or args.p is not None:
            raise ValueError("the chsh bound takes --c12sq and neither --tau nor --p")
        value = chsh_pure_max(args.c12sq)
    elif family in states.SUBCLASS_S:
        states.reject_foreign(family, p=args.p)
        tau, c12sq = states.tau_c12sq(family, tau=args.tau, c12sq=args.c12sq)
        value = (bound_b5 if op is BellKind.NS99 else bound_b4)(tau, c12sq)
    elif family in NS99_MIXED_FAMILIES:
        if op is not BellKind.NS99:
            raise ValueError(f"no closed-form {op.value} bound for {family.value}")
        states.reject_foreign(family, tau=args.tau, c12sq=args.c12sq)
        if args.p is None:
            raise ValueError("mixed-family bounds need --p")
        value = ns99_mixed_bound(family, args.p)
    else:
        raise ValueError(f"no closed-form bound for family {family.value}")
    _emit({"bound": value}, args.json)
    return EXIT_OK


def cmd_optimize(args) -> int:
    rho = _state_from_args(args)
    op = BellKind(args.operator)
    seed = _seed(args)
    opts = OptimizeOptions(seed=seed, **_given(restarts=args.restarts))
    report = optimize_operator(rho, op, opts)
    _emit(
        {
            "operator": op.value,
            "value": report.value,
            "classical_bound": report.classical_bound,
            "violated": report.violated,
            "converged": report.converged,
            "restarts": report.restarts_used,
            "seed": seed,
            "angles_rad": [float(a) for a in report.scenario.flat()],
        },
        args.json,
    )
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_threshold(args) -> int:
    query = workflows.ThresholdQuery(
        family=Family(args.family),
        operator=BellKind(args.operator),
        k=args.k,
        seed=_seed(args),
        **_given(bracket=args.bracket and tuple(args.bracket), tol=args.tol,
                 restarts=args.restarts),
    )
    if query.exact:
        _reject_given(args, ("--restarts", "--seed"),
                      f"ns99 on {query.family.value}, whose probes take the exact maximum")
    try:
        result = workflows.threshold_bisect(query)
    except workflows.NoCrossingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _emit(
        {
            "family": query.family.value,
            "operator": query.operator.value,
            "p_star": result.p_star,
            "bracket": list(query.bracket),
            "tol": query.tol,
            "evaluations": result.evaluations,
            "seed": query.seed,
        },
        args.json,
    )
    return EXIT_OK


def cmd_visibility(args) -> int:
    if not args.confirm:
        _reject_given(args, ("--delta", "--restarts", "--seed"), "--no-confirm")
    if args.tau is not None and args.eta is None and args.family in (None, Family.EXT_S.value):
        # --tau without a family (or with ext_s) names a subclass-S point; C12^2 defaults to 0.
        family, c12sq = Family.EXT_S, args.c12sq or 0.0
    else:
        family, c12sq = Family(args.family or Family.GGHZ), args.c12sq
    tau, c12sq = states.tau_c12sq(family, eta=args.eta, tau=args.tau, c12sq=c12sq)
    op = BellKind(args.operator)
    threshold = visibility_threshold(op, tau, c12sq)
    if threshold is None:
        print(f"error: no violation of {op.value} for tau={tau}, C12^2={c12sq}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    pairs = {"operator": op.value, "tau": tau, "c12sq": c12sq, "threshold": threshold}
    if args.confirm:
        given = _given(delta=args.delta, restarts=args.restarts)
        check = workflows.visibility_check(op, tau, c12sq, seed=_seed(args), **given)
        pairs.update(
            below_value=check.below_value,
            below_violates=check.below_violates,
            above_value=check.above_value,
            above_violates=check.above_violates,
            confirmed=check.confirmed,
        )
    _emit(pairs, args.json)
    return EXIT_OK


def cmd_sweep(args) -> int:
    columns = tuple(args.columns.split(","))
    if "ns_opt" not in columns and "svet_opt" not in columns:
        _reject_given(args, ("--restarts", "--seed"), "columns without ns_opt or svet_opt")
    spec = workflows.SweepSpec(
        family=Family(args.family),
        param=args.param,
        start=getattr(args, "from"),
        stop=args.to,
        steps=args.steps,
        columns=columns,
        c12sq=args.c12sq,
        k=args.k,
        seed=_seed(args),
        **_given(restarts=args.restarts),
    )
    header, rows = workflows.run_sweep(spec)
    text = workflows.sweep_csv(header, rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_tables(args) -> int:
    given = _given(tol=args.tol, restarts=args.restarts)
    rows = workflows.compute_table(args.which, seed=_seed(args), **given)
    print(workflows.format_table(rows, fmt=args.format))
    return EXIT_OK


def cmd_membership(args) -> int:
    if args.behavior:
        ignored = ("--state", *FAMILY_OPTIONS, "--alpha", "--angles", "--optimize-scenario",
                   "--behavior-out", "--restarts", "--seed")
        _reject_given(args, ignored, "--behavior FILE")
        behavior = polytope.load_behavior(args.behavior)
    else:
        rho = _state_from_args(args)
        if args.angles is not None:
            _reject_given(args, ("--optimize-scenario", "--restarts", "--seed"), "--angles")
            scenario = MeasurementScenario.from_flat(np.array(args.angles))
        elif args.optimize_scenario:
            op = BellKind(args.optimize_scenario)
            opts = OptimizeOptions(seed=_seed(args), **_given(restarts=args.restarts))
            report = optimize_operator(rho, op, opts)
            scenario = report.scenario
        else:
            raise ValueError("membership needs --angles (12 values) or --optimize-scenario OP")
        behavior = polytope.quantum_behavior(rho, scenario)
        if args.behavior_out:
            polytope.save_behavior(behavior, args.behavior_out)
    result = polytope.membership(behavior, polytope.HybridKind(args.model))
    pairs = {
        "model": result.kind.value,
        "inside": result.inside,
        "phase1_objective": result.phase1_objective,
        "iterations": result.iterations,
    }
    if result.inside:
        pairs["residual"] = result.residual
        pairs["support_size"] = int(np.sum(result.weights > 1e-12))
    _emit(pairs, args.json)
    return EXIT_OK


def cmd_channel(args) -> int:
    if args.closed_form:
        if args.family != Family.GGHZ.value or args.eta is None:
            raise ValueError("--closed-form applies to --family gghz with --eta")
        if args.alpha is not None:
            raise ValueError("--alpha would mix only the Kraus input; drop it or --closed-form")
    rho = _state_from_args(args)
    spec = channels.ChannelSpec(channels.ChannelKind(args.kind), tuple(args.strengths))
    opts = OptimizeOptions(seed=_seed(args), **_given(restarts=args.restarts))
    eta = args.eta if args.closed_form else None
    pairs = {"kind": spec.kind.value, "strengths": list(spec.strengths)}
    for v in workflows.channel_verdicts(rho, spec, opts, closed_form_eta=eta):
        pairs.update({
            f"{v.model}_ns99": v.ns99_value,
            f"{v.model}_ns99_violated": v.ns99_violated,
            f"{v.model}_svetlichny": v.svetlichny_value,
            f"{v.model}_svetlichny_violated": v.svetlichny_violated,
        })
    _emit(pairs, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tribell",
        description="Three-qubit Bell nonlocality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="closed-form operator bound")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--operator", required=True, choices=[k.value for k in BellKind])
    p.add_argument("--tau", type=float)
    p.add_argument("--c12sq", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("optimize", help="maximize an operator over measurement angles")
    _add_state_options(p)
    p.add_argument("--operator", required=True, choices=THREE_PARTY)
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("threshold", help="bisect a mixed-family violation threshold")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in states.MIXED_FAMILIES])
    p.add_argument("--operator", required=True, choices=THREE_PARTY)
    p.add_argument("--k", type=int)
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--tol", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("visibility", help="white-noise visibility threshold")
    p.add_argument("--family", choices=[f.value for f in states.SUBCLASS_S])
    p.add_argument("--operator", required=True, choices=THREE_PARTY)
    p.add_argument("--tau", type=float)
    p.add_argument("--c12sq", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--no-confirm", dest="confirm", action="store_false",
                   help="skip the numeric confirmation at threshold -/+ delta")
    p.add_argument("--delta", type=float, help="distance of the checks from the threshold")
    _add_common(p)
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser("sweep", help="parameter sweep emitting CSV data")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--param", required=True, choices=["eta", "tau", "p"])
    p.add_argument("--from", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--columns", required=True,
                   help="comma-separated subset of " + ",".join(workflows.SWEEP_COLUMNS))
    p.add_argument("--c12sq", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--output", help="write CSV here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tables", help="recompute a published threshold table")
    p.add_argument("--which", type=int, required=True, choices=[1, 2])
    p.add_argument("--tol", type=float)
    p.add_argument("--format", choices=["md", "csv"], default="md")
    _add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("membership", help="LP membership in a hybrid local model")
    p.add_argument("--behavior", help="behavior table file (x y z a b c p rows)")
    _add_state_options(p)
    p.add_argument("--angles", type=float, nargs=12,
                   help="12 measurement angles (theta,phi pairs, radians)")
    p.add_argument("--optimize-scenario", choices=THREE_PARTY,
                   help="use the scenario found by maximizing this operator")
    p.add_argument("--model", required=True, choices=[k.value for k in polytope.HybridKind])
    p.add_argument("--behavior-out", help="also export the generated behavior table")
    _add_common(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("channel", help="apply a noise channel, then optimize both operators")
    p.add_argument("--kind", required=True, choices=[k.value for k in channels.ChannelKind])
    p.add_argument("--strengths", type=float, nargs=3, required=True,
                   metavar=("S1", "S2", "S3"))
    _add_state_options(p)
    p.add_argument("--closed-form", action="store_true",
                   help="also evaluate the published closed-form matrix (gghz only)")
    _add_common(p)
    p.set_defaults(func=cmd_channel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except polytope.LPNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
