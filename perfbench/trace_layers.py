"""Fold a qfc::obs Chrome trace into per-layer metrics (stdlib only).

The traced benchmark run records one "bench.pass" span around each timed
pass and one "bench.probe" span around the single-layer probes, all on the
calling thread. Every other span is attributed to a layer by its name's
first dotted component, with the library's own span families mapped onto
the module that emits them (engine.* -> detect, pool.* -> parallel,
network.* -> core).

Self time of a span is its duration minus the time its direct children on
the same thread cover. layer.<L>.self_ms sums the self times of layer L's
spans over every thread during a pass, so pool workers count too: on the
sweeps layer.parallel.self_ms holds the pool task bodies that have no span
of their own (the scenario adapters, the tomography among them), plus the
calling thread's wait for its workers inside pool.run. These per-thread
sums can exceed the pass wall time.

On the pass thread alone the spans tile each pass: the benchmark wraps
every public call of a pass in a span named after the layer it calls
into, and the library's spans nest inside those. check() requires the pass
thread's layer self times to sum to within a tenth of the traced wall time.
That holds by construction; it fails only when the trace lost spans or the
fold missed a pass, which is what it guards. What the pass thread's spans
do not cover is layer.unattributed_ms (the benchmark's own glue).

    python3 perfbench/trace_layers.py TRACE.json   # prints the fold as JSON
"""

import bisect
import json
import statistics
import sys

ALIASES = {"engine": "detect", "pool": "parallel", "network": "core"}
PASS_LAYERS = ("sweep", "io", "parallel", "core", "linalg", "detect")
EPS_US = 0.002  # trace timestamps carry ns resolution in us


def layer_of(name):
    head = name.split(".", 1)[0]
    return ALIASES.get(head, head)


def load(path):
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    dropped = trace.get("otherData", {}).get("dropped_events", 0)
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    return events, dropped


def self_times(events):
    """Per-event self time (us), keyed by index into `events`."""
    by_tid = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e["tid"], []).append(i)
    self_us = {}
    for idx in by_tid.values():
        idx.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack = []  # indices of open ancestors
        for i in idx:
            e = events[i]
            while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] <= e["ts"] + EPS_US:
                stack.pop()
            self_us[i] = e["dur"]
            if stack:
                self_us[stack[-1]] -= e["dur"]
            stack.append(i)
    return self_us


def fold(path):
    events, dropped = load(path)
    self_us = self_times(events)
    passes = sorted((e for e in events if e["name"] == "bench.pass"), key=lambda e: e["ts"])
    probes = [e for e in events if e["name"] == "bench.probe"]
    starts = [p["ts"] for p in passes]
    pass_tid = passes[0]["tid"] if passes else None

    n = len(passes)
    span_ms = [dict() for _ in range(n)]  # per pass: span name -> total ms (all threads)
    layer_ms = [dict() for _ in range(n)]  # per pass: layer -> self ms (all threads)
    attributed = [0.0] * n  # per pass: self ms of layer spans on the pass thread
    probe_ms = {}
    instance_ms = []
    four_photon_ms = 0.0
    for i, e in enumerate(events):
        name = e["name"]
        if name in ("bench.pass", "bench.probe"):
            continue
        k = bisect.bisect_right(starts, e["ts"]) - 1
        if 0 <= k < n and e["ts"] <= passes[k]["ts"] + passes[k]["dur"] + EPS_US:
            span_ms[k][name] = span_ms[k].get(name, 0.0) + e["dur"] / 1e3
            layer = layer_of(name)
            if layer in PASS_LAYERS:
                layer_ms[k][layer] = layer_ms[k].get(layer, 0.0) + self_us[i] / 1e3
                if e["tid"] == pass_tid:
                    attributed[k] += self_us[i] / 1e3
            continue
        if any(p["ts"] <= e["ts"] <= p["ts"] + p["dur"] + EPS_US for p in probes):
            probe_ms[name] = probe_ms.get(name, 0.0) + e["dur"] / 1e3
            if name == "sweep.instance":
                instance_ms.append(e["dur"] / 1e3)
                if e.get("args", {}).get("scenario") == "four_photon":
                    four_photon_ms += e["dur"] / 1e3

    def per_pass(*names):
        if n == 0:
            return 0.0
        return statistics.median(sum(p.get(x, 0.0) for x in names) for p in span_ms)

    def probe(*names):
        return sum(probe_ms.get(x, 0.0) for x in names)

    m = {
        "sweep.expand_ms": per_pass("sweep.expand"),
        "sweep.run_ms": per_pass("sweep.run"),
        "io.parse_ms": per_pass("io.parse"),
        "io.dump_ms": per_pass("io.dump"),
        "core.device_build_ms": probe("core.device_build"),
        "core.four_photon.run_ms": four_photon_ms,
        "core.heralded.matrix_ms": per_pass("core.heralded.matrix"),
        "core.heralded.table_ms": per_pass("core.heralded.table"),
        "core.heralded.coherence_ms": per_pass("core.heralded.coherence"),
        "core.network.run_ms": per_pass("core.network.run"),
        "tomo.simulate_counts_ms": probe("tomo.simulate_counts"),
        "tomo.linear_inversion_ms": probe("tomo.linear_inversion"),
        "tomo.mle_ms": probe("tomo.mle"),
        "tomo.mle_pair_ms": probe("tomo.mle_pair"),
        # Batch: EventEngine::run, then the analyses. Streaming: each
        # EventStreamer::next, then each accumulator push (QkdNetwork::run
        # calls finish() without a span of its own, so it is in core).
        "detect.generate_ms": per_pass("engine.run", "engine.stream.window"),
        "detect.analysis_ms": per_pass("engine.car_matrix", "engine.correlate_all",
                                       "engine.count_matrix", "engine.stream.car_push"),
    }
    if instance_ms:
        ordered = sorted(instance_ms)
        rank = lambda q: ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]
        m["sweep.instance_ms.p50"] = rank(50)
        m["sweep.instance_ms.p99"] = rank(99)
        m["sweep.instance_ms.max"] = ordered[-1]
        m["sweep.critical_path_frac"] = ordered[-1] / sum(ordered)
    else:
        for key in ("sweep.instance_ms.p50", "sweep.instance_ms.p99",
                    "sweep.instance_ms.max", "sweep.critical_path_frac"):
            m[key] = 0.0

    pass_wall_ms = [p["dur"] / 1e3 for p in passes]
    for layer in PASS_LAYERS:
        m[f"layer.{layer}.self_ms"] = (
            statistics.median(l.get(layer, 0.0) for l in layer_ms) if n else 0.0)
    m["layer.unattributed_ms"] = (
        statistics.median(w - a for w, a in zip(pass_wall_ms, attributed)) if n else 0.0)
    return {"metrics": m, "passes": n, "dropped_events": dropped,
            "attributed_ms": attributed, "pass_wall_ms": pass_wall_ms}


def check(folded, traced_wall_s, probe_layers):
    """The fold's own checks, as (ok, description) pairs."""
    attributed = sum(folded["attributed_ms"]) / 1e3
    wall = sum(traced_wall_s)
    checks = [
        (folded["passes"] == len(traced_wall_s),
         "the trace holds every traced pass"),
        (abs(attributed - wall) <= 0.1 * wall,
         "pass-thread layer self times sum to within a tenth of the traced wall time"),
        (folded["dropped_events"] == 0, "the trace dropped no events"),
    ]
    if "tomo.mle_iterations" in probe_layers:
        checks.append((probe_layers["tomo.mle_iterations"]
                       == probe_layers["tomo.facade_iterations_four"],
                       "the tomography replica iterates as often as the facade"))
    return checks


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: trace_layers.py TRACE.json")
    print(json.dumps(fold(sys.argv[1]), indent=2))
