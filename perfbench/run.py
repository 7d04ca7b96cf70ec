"""Closed-loop benchmark of tribell: one process, one caller, seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {threshold,scan,polytope} \\
        --seed N --seconds S --trace {0,1}

A run sets up (import, one untimed warm-up op per layer), then issues ops
in rounds until ``--seconds`` have passed, checking every result outside
the timed region. With ``--trace 0`` it reports the end-to-end metrics and
times fresh set-ups in child processes between ops; with ``--trace 1`` it
wraps each layer's public functions, records spans in memory and reports
per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Results and spans also go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the process is a single caller and must stay within the
# two CPUs of the reference machine. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 8
# Two per gap spreads the samples of `threshold`, whose ops last longer than
# a probe interval, over its four gaps; other workloads take at most one.
PROBES_PER_GAP = 2
READY = "setup-ready"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def import_tribell():
    """Import tribell from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import tribell

    if Path(tribell.__file__).resolve().parent != ROOT / "src" / "tribell":
        raise ImportError(f"tribell imported from {tribell.__file__}, not from {ROOT / 'src'}")
    return tribell


def set_up(workload_name: str, seed: int):
    """Import tribell and warm up every layer the workload uses."""
    import_tribell()
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed)
    workload.warm_up()
    return workload


def probe_setup(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh process to it being ready for its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if line != READY or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


class Tally:
    """Ops attempted and failed, with failures counted by check name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_type: Counter = Counter()

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.by_type.update(set(failures))


def measure(workload, seconds: float, recorder=None, probe=None, probes: int = 0):
    """Closed loop: whole rounds of ops until ``seconds`` of wall time have passed.

    Returns (per-op latencies, per-round throughputs, tally, probe samples).
    Only the op itself is timed; its check runs afterwards. An op that raises
    counts as failed, by type. ``probe`` is called ``probes`` times, spread
    over the run so that its samples see the host at different moments: the
    k-th is due once k/probes of ``seconds`` have passed, and at most
    PROBES_PER_GAP run between two ops. Probes still due when the last round
    ends run back to back. Probe time does not count towards ``seconds``.
    """
    from tribell.polytope import LPNumericalError

    latencies: list[float] = []
    round_rates: list[float] = []
    samples: list[float] = []
    tally = Tally()
    start = time.perf_counter()
    probing = 0.0

    def elapsed() -> float:
        return time.perf_counter() - start - probing

    index = 0
    while index == 0 or elapsed() < seconds:
        round_latencies = []
        for _ in range(workload.round_size):
            for _ in range(PROBES_PER_GAP):
                if len(samples) < probes and elapsed() >= len(samples) * seconds / probes:
                    t = time.perf_counter()
                    samples.append(probe())
                    probing += time.perf_counter() - t
            inp = workload.input(index)
            index += 1
            try:
                with recorder.op() if recorder else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    out = workload.run(inp)
                    t1 = time.perf_counter()
            except LPNumericalError:
                tally.add(["lp_error"])
                continue
            except Exception as exc:  # a failed op is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                tally.add([f"error:{type(exc).__name__}"])
                continue
            round_latencies.append(t1 - t0)
            tally.add(workload.check(inp, out))
        if round_latencies:
            latencies += round_latencies
            round_rates.append(len(round_latencies) / sum(round_latencies))
    samples += [probe() for _ in range(probes - len(samples))]
    return latencies, round_rates, tally, samples


def tail(latencies: list[float]):
    """(percentile, latency) at the highest listed percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return q, ordered[rank - 1]
    return None, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git repository."""
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


def run(args) -> dict:
    import tracing

    setup_start = time.perf_counter()
    workload = set_up(args.workload, args.seed)
    setups = [time.perf_counter() - setup_start]

    if args.trace:
        recorder = tracing.Recorder()
        with recorder.installed():
            latencies, round_rates, tally, _ = measure(workload, args.seconds, recorder)
    else:
        # Set-up time is an end-to-end metric, so it is measured untraced.
        recorder = None
        latencies, round_rates, tally, setups = measure(
            workload, args.seconds, probe=lambda: probe_setup(args.workload, args.seed), probes=SETUP_PROBES
        )
    if not latencies:
        raise RuntimeError("no op completed")

    # Rounds have a fixed composition, so each round's throughput is one
    # repeated measurement; the median resists the host's speed swings.
    ops_per_s = statistics.median(round_rates)
    q, tail_s = tail(latencies)
    values = {
        # Median of fresh set-ups spread over the run, so that one slow
        # phase of the host does not decide the figure.
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit in declared("end_to_end").items()}
    info = {
        "op_p50_s": statistics.median(latencies),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "failures_by_type": dict(tally.by_type),
        "op_tail_s": tail_s,
        "op_tail_percentile": q,
        "ops": len(latencies),
        "rounds": len(round_rates),
        "round_ops_per_s": round_rates,
        "setup_samples_s": setups,
        "latencies_s": latencies,
        "workload_info": workload.info,
    }
    if args.trace:
        layer = recorder.summary()
        layer.update(workload.quality)
        layer["trace.ops"] = len(latencies)
        layer["trace.ops_per_s"] = ops_per_s
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in declared("per_layer").items()}
    else:
        metrics = end_to_end

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder is not None:
        recorder.write(OUT_DIR / f"{stem}-spans.json")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "end_to_end": end_to_end,
        "metrics": metrics,
        "info": info,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print_summary(record)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def print_summary(record: dict) -> None:
    env = record["environment"]
    info = record["info"]
    print(f"# tribell benchmark: workload={record['workload']} seed={env['seed']} "
          f"trace={record['trace']} seconds={record['seconds']}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in record["end_to_end"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"op_p50_s {info['op_p50_s']:.6g} s")
    if info["op_tail_s"] is not None:
        print(f"op_tail_s {info['op_tail_s']:.6g} s (p{info['op_tail_percentile']:g} of {info['ops']} ops)")
    else:
        print(f"op_tail_s undefined ({info['ops']} ops, fewer than {TAIL_MIN_BEYOND} beyond any percentile)")
    print(f"fail_frac {info['fail_frac']:.6g} ratio ({info['failed']}/{info['attempted']} ops; "
          f"by type {info['failures_by_type'] or '{}'})")
    for item in info["workload_info"]:
        print("# " + " ".join(f"{k}={v}" for k, v in item.items()))
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"{name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("threshold", "scan", "polytope"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(READY, flush=True)
        return 0
    try:
        result = run(args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
