"""In-memory span recorder that times tribell's layers from outside.

Each traced function is replaced, for the duration of a traced run, by a
wrapper in the module namespace its caller looks it up in (for example
``tribell.workflows.optimize_operator``, which ``threshold_bisect`` calls).
Nothing in ``src/`` changes. A wrapper records a span only while a benchmark
op is open, so the untimed correctness checks between ops are not traced.

A span is ``[name, start, end, parent, attrs]`` with ``perf_counter`` times
and ``parent`` the index of the enclosing span (-1 for an op root). Layer
self time is a span's duration minus the durations of its direct children;
since the run is single-threaded, children nest inside their parent.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
from collections import defaultdict

MODELS = ("fully_local", "ns2", "s2")

# span name -> layer (module name; "bench" is the harness's own op code,
# which includes the states builders and qalg helpers the op calls).
LAYER_OF = {
    "op": "bench",
    "threshold": "workflows",
    "optimize": "bell.optimize",
    "operators.fold": "bell.operators",
    "operators.value": "bell.operators",
    "behavior": "polytope",
    "vertices": "polytope",
    "membership": "polytope",
    "monogamy": "entangle",
    "discord": "entangle",
    "channel": "channels",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

# (module, attribute, span name): each entry patches one caller's namespace.
PATCHES = (
    ("tribell.workflows", "threshold_bisect", "threshold"),
    ("tribell.workflows", "optimize_operator", "optimize"),
    ("tribell.bell.optimize", "optimize_operator", "optimize"),
    ("tribell.bell.optimize", "make_batched_value", "operators.fold"),
    ("tribell.polytope", "quantum_behavior", "behavior"),
    ("tribell.polytope", "enumerate_vertices", "vertices"),
    ("tribell.polytope", "membership", "membership"),
    ("tribell.entangle", "discord_monogamy_score", "monogamy"),
    ("tribell.entangle", "discord_numeric", "discord"),
    ("tribell.channels", "apply_channel_spec", "channel"),
)


def _enum_value(x) -> str:
    return getattr(x, "value", x)


class Recorder:
    """Collects spans for the ops of one traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def op(self):
        """Open the root span of one benchmark op."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = ["op", start, end, -1, {}]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(index)
            attrs: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, attrs]
            return self._annotate(name, attrs, args, result)

        return traced

    def _annotate(self, name, attrs, args, result):
        """Read counters off a finished call; may wrap the returned object."""
        if name == "operators.fold":
            return self.wrap("operators.value", result)
        if name == "operators.value":
            shape = getattr(args[0], "shape", None)
            attrs["points"] = math.prod(shape[:-1]) if shape else 1
        elif name == "optimize":
            top_two = sorted(result.restart_values)[-2:]
            attrs["converged"] = bool(result.converged)
            attrs["spread"] = float(top_two[-1] - top_two[0])
        elif name == "threshold":
            attrs["evaluations"] = int(result.evaluations)
        elif name == "vertices":
            attrs["model"] = _enum_value(args[0])
        elif name == "membership":
            attrs["model"] = _enum_value(args[1])
            attrs["inside"] = bool(result.inside)
            attrs["pivots"] = int(result.iterations)
        return result

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of PATCHES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, float]:
        """Per-layer counts, busy time and self time of the recorded spans."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_by_name: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        by_model: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        points = evaluations = lp_errors = converged = 0
        spread_max = 0.0
        for (name, start, end, _, attrs), self_s in zip(self.spans, own):
            calls[name] += 1
            busy[name] += end - start
            self_by_name[name] += self_s
            layer_self[LAYER_OF[name]] += self_s
            points += attrs.get("points", 0)
            evaluations += attrs.get("evaluations", 0)
            if name == "optimize" and "error" not in attrs:
                converged += attrs["converged"]
                spread_max = max(spread_max, attrs["spread"])
            if name in ("vertices", "membership") and "model" in attrs:
                stats = by_model[f"{name}.{attrs['model']}"]
                stats["calls"] += 1
                stats["s"] += end - start
                stats["inside"] += attrs.get("inside", False)
                stats["pivots"] += attrs.get("pivots", 0)
            if name == "membership" and attrs.get("error") == "LPNumericalError":
                lp_errors += 1

        def per_call(total, n):
            return total / n if n else 0.0

        n_opt = calls["optimize"]
        out = {
            "operators.fold.calls": calls["operators.fold"],
            "operators.fold.s": busy["operators.fold"],
            "operators.value.calls": calls["operators.value"],
            "operators.value.points": points,
            "operators.value.s": busy["operators.value"],
            "optimize.calls": n_opt,
            "optimize.s": busy["optimize"],
            "optimize.self_s": self_by_name["optimize"],
            "optimize.value_calls_per_call": per_call(calls["operators.value"], n_opt),
            "optimize.converged_frac": per_call(converged, n_opt),
            "optimize.spread_max": spread_max,
            "threshold.calls": calls["threshold"],
            "threshold.s": busy["threshold"],
            "threshold.self_s": self_by_name["threshold"],
            "threshold.optimizations": evaluations,
            "behavior.calls": calls["behavior"],
            "behavior.s": busy["behavior"],
            "vertices.calls": calls["vertices"],
            "membership.self_s": self_by_name["membership"],
            "membership.lp_errors": lp_errors,
            "monogamy.calls": calls["monogamy"],
            "monogamy.s": busy["monogamy"],
            "discord.calls": calls["discord"],
            "discord.s": busy["discord"],
            "channel.calls": calls["channel"],
            "channel.s": busy["channel"],
        }
        for model in MODELS:
            verts = by_model[f"vertices.{model}"]
            member = by_model[f"membership.{model}"]
            out[f"vertices.s.{model}"] = verts["s"]
            out[f"membership.s.{model}"] = member["s"]
            out[f"membership.pivots.{model}"] = per_call(member["pivots"], member["calls"])
            out[f"membership.inside_frac.{model}"] = per_call(member["inside"], member["calls"])
        for layer in LAYERS:
            out[f"self_s.{layer}"] = layer_self[layer]
        out["trace.wall_s"] = busy["op"]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Write the spans as one JSON document: names and [name, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, attrs] for n, start, end, parent, attrs in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "layer_of": LAYER_OF, "spans": rows}, fh, separators=(",", ":"))
