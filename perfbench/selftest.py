"""Self-test of the benchmark harness; exits non-zero if any check fails.

    python3 perfbench/selftest.py

1. Deliberately wrong results (an operator value off by 1e-2, a flipped LP
   verdict, a threshold off its reference by 1e-2) go through the harness's
   own loop and must be counted as failed ops, by check name.
2. A traced op must give spans that nest (no span's self time is negative),
   op spans that cover the latency the harness timed with its own clock,
   and a layer time that agrees with the same calls timed directly,
   untraced. Each workload must touch only its layers.
"""

from __future__ import annotations

import math
import sys
import time

import run  # sets the BLAS thread limit before numpy is imported

run.import_tribell()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tribell import polytope  # noqa: E402
from tribell.bell import optimize as bopt  # noqa: E402
from tribell.workflows import ThresholdResult  # noqa: E402

SPAN_SLACK_S = 1e-3  # per op: the op span may exceed the timed latency by this
DIRECT_TOL = 0.3  # traced layer time vs direct timing, relative; the host is noisy


class OneOp:
    """A one-op round over a workload's first input, with the output altered."""

    round_size = 1

    def __init__(self, workload, alter, run_op=None):
        self.workload = workload
        self.alter = alter
        self.run_op = run_op or workload.run

    def input(self, index):
        return self.workload.input(0)

    def run(self, inp):
        out = self.run_op(inp)
        self.alter(out)
        return out

    def check(self, inp, out):
        return self.workload.check(inp, out)


def off_by_1e2(out):
    out["ns99"].value += 1e-2


def flip_verdict(out):
    """Flip the first outside verdict to inside, else the s2 verdict to outside."""
    for model in workloads.MODELS:
        verdict = out[model.value]
        if not verdict.inside:
            verdict.inside, verdict.weights = True, None
            return
    out["s2"].inside = False


def nothing(out):
    pass


def counted(name, workload, expected: tuple) -> bool:
    _, _, tally, _ = run.measure(workload, seconds=1e-9)
    ok = tally.attempted == 1 and tally.failed == 1 and any(e in tally.by_type for e in expected)
    print(f"{'PASS' if ok else 'FAIL'} wrong result counted: {name} -> "
          f"failed {tally.failed}/{tally.attempted}, by type {dict(tally.by_type)}")
    return ok


def clean(name, workload) -> bool:
    _, _, tally, _ = run.measure(workload, seconds=1e-9)
    ok = tally.attempted == 1 and tally.failed == 0
    print(f"{'PASS' if ok else 'FAIL'} unaltered result passes: {name} -> failed {tally.failed}/{tally.attempted}")
    return ok


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def scan_optimizations(workload, inp):
    """The op's three optimizations, as a callable that reruns them untraced."""
    out = workload.run(inp)
    opts = workloads.OptimizeOptions(restarts=workloads.RESTARTS, seed=inp["opt_seed"])
    calls = [(out["rho"], out["ns99"]), (out["rho"], out["svetlichny"]), (out["rho_ab"], out["chsh"])]
    return lambda: [bopt.optimize_operator(rho, rep.operator, opts) for rho, rep in calls]


def polytope_memberships(workload, inp):
    """The op's three membership solves, as a callable that reruns them untraced."""
    behavior = polytope.quantum_behavior(inp["rho"], inp["scenario"])
    return lambda: [polytope.membership(behavior, m) for m in workloads.MODELS]


def traced(name, workload, expect, direct, layer_keys) -> bool:
    """Trace one op and compare its spans with clocks outside the recorder.

    ``direct`` reruns the op's calls of one layer untraced; their time, taken
    before and after the traced op, must bracket the sum of ``layer_keys``
    within DIRECT_TOL.
    """
    before = timed(direct)
    recorder = tracing.Recorder()
    with recorder.installed():
        latencies, _, tally, _ = run.measure(workload, seconds=1e-9, recorder=recorder)
    after = timed(direct)
    summary = recorder.summary()
    nested = min(recorder.self_times()) >= -1e-12
    excess = summary["trace.wall_s"] - sum(latencies)
    covers = 0.0 <= excess <= SPAN_SLACK_S * len(latencies)
    layer_s = sum(summary[key] for key in layer_keys)
    agrees = (1 - DIRECT_TOL) * min(before, after) <= layer_s <= (1 + DIRECT_TOL) * max(before, after)
    counts_ok = all(summary[key] == value for key, value in expect.items())
    ok = nested and covers and agrees and counts_ok and tally.failed == 0
    print(f"{'PASS' if ok else 'FAIL'} traced {name}: spans nest {nested}; op spans exceed timed latency by "
          f"{excess * 1e6:.1f} us; {'+'.join(layer_keys)} {layer_s:.3f} s traced vs {before:.3f}/{after:.3f} s "
          f"direct; counts {({k: summary[k] for k in expect})}")
    return ok


def main() -> int:
    scan = workloads.Scan(seed=1)
    poly = workloads.Polytope(seed=1)
    thr = workloads.Threshold(seed=1)  # input 0 is rho8 ns99, which has a closed-form root

    def fake_threshold(query):
        p = thr.roots[query.family] + 1e-2
        return ThresholdResult(p_star=p, query=query, value_lo=math.nan, value_hi=math.nan, evaluations=0)

    results = [
        clean("scan", OneOp(scan, nothing)),
        counted("scan ns99 value + 1e-2", OneOp(scan, off_by_1e2), ("oracle",)),
        clean("polytope", OneOp(poly, nothing)),
        counted("polytope flipped verdict", OneOp(poly, flip_verdict), ("residual", "nesting")),
        counted("threshold p* = reference + 1e-2", OneOp(thr, nothing, fake_threshold), ("reference",)),
        traced("scan (gghz op)", OneOp(scan, nothing), {
            "optimize.calls": 3, "operators.fold.calls": 3, "monogamy.calls": 1,
            "discord.calls": 2, "threshold.calls": 0, "membership.s.s2": 0.0,
        }, scan_optimizations(scan, scan.input(0)), ("optimize.s",)),
        traced("polytope op", OneOp(poly, nothing), {
            "behavior.calls": 1, "vertices.calls": 3, "optimize.calls": 0, "monogamy.calls": 0,
        }, polytope_memberships(poly, poly.input(0)), tuple(f"membership.s.{m}" for m in tracing.MODELS)),
    ]
    print(f"selftest: {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
