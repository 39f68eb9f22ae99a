#!/usr/bin/env python3
"""Repository benchmark: builds qfc_perfbench from source, runs one workload
and prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; inputs, per-run result files and
traces go next to it. With --trace 0 the last line holds the end-to-end
metrics, with --trace 1 the per-layer metrics of the separate traced run.
The line before it records the host. Workloads, metrics and known defects
are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import trace_layers  # noqa: E402

WORKLOADS = ("sweep_smoke", "network", "heralded", "sweep_fanout")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Scenario adapters without a "seed" parameter (src/qfc/sweep/scenarios.cpp).
UNSEEDED = {"qudit_source"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def derive_seed(seed, *path):
    """Instance seed from the benchmark seed and a label path (stable)."""
    key = "/".join(str(p) for p in (seed,) + path).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little") & 0x7FFFFFFF


def smoke_config(seed):
    """The committed smoke sweep with every instance seed derived from `seed`."""
    with open(HERE / "configs" / "sweep_smoke.json", encoding="utf-8") as f:
        cfg = json.load(f)
    for i, sweep in enumerate(cfg["sweeps"]):
        seed_axes = [a for a in sweep.get("axes", []) if a["param"] == "seed"]
        for axis in seed_axes:
            axis["values"] = [derive_seed(seed, "smoke", i, j)
                              for j in range(len(axis["values"]))]
        if not seed_axes and sweep["scenario"] not in UNSEEDED:
            sweep.setdefault("base", {})["seed"] = derive_seed(seed, "smoke", i)
    return cfg


def fanout_config(seed):
    """9500 cheap analytic instances. Integer axes (seed, dimension) list
    their values: a linspace over an integer parameter fails every instance
    (README.md, known defects)."""
    seeds = lambda label, n: [derive_seed(seed, "fanout", label, j) for j in range(n)]
    return {"sweeps": [
        {"scenario": "qkd_link_budget",
         "base": {"num_channel_pairs": 3, "seed": derive_seed(seed, "fanout", "link")},
         "axes": [
             {"param": "distance_km", "linspace": {"start": 0.0, "stop": 99.0, "count": 100}},
             {"param": "detection_efficiency_scale", "values": [1.0, 0.9, 0.8, 0.7, 0.6]},
             {"param": "dark_rate_hz", "values": [100.0, 300.0, 1000.0, 3000.0, 10000.0]}]},
        {"scenario": "qudit_source",
         "axes": [
             {"param": "dimension", "values": list(range(2, 18))},
             {"param": "pump_power_w", "linspace": {"start": 0.005, "stop": 0.03, "count": 125}}]},
        {"scenario": "stability_comparison",
         "base": {"observation_days": 0.5, "sample_interval_s": 600.0},
         "axes": [{"param": "seed", "values": seeds("stability", 2500)}]},
        {"scenario": "timebin_chsh",
         "base": {"channel": 1, "fringe_points": 12, "num_channel_pairs": 2},
         "axes": [{"param": "seed", "values": seeds("chsh", 2500)}]},
    ]}


def build(build_dir):
    """Configure once per checkout, then an incremental build."""
    build_dir = build_dir / "cmake"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(build_dir)  # a build tree of another checkout
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "qfc_perfbench"


def end_to_end(raw, spec):
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(raw["wall_s"]),
        "cpu_s": statistics.median(raw["cpu_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ops_ok_frac": 1.0 - raw["failed"] / raw["attempted"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(raw, folded, spec):
    """Every per-layer metric; a layer the workload does not reach reads 0.
    Per-pass counts are medians over the traced passes; the probe and the
    trace fold give the rest."""
    passes = raw["pass_layers"]
    probe = raw["probe_layers"]
    values = dict(folded["metrics"])
    values["obs.trace_overhead_frac"] = raw["obs.trace_overhead_frac"]
    for name in {k for p in passes for k in p}:
        values[name] = statistics.median(p.get(name, 0) for p in passes)
    values.update(probe)
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qfc").is_dir():
        log("run.py: no library sources under src/qfc; run from a full checkout")
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)  # metric names and units
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build_dir.resolve().is_relative_to(ROOT.resolve()):
        log("run.py: the build directory must lie inside the checkout")
        return 2
    exe = build(build_dir)

    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    out = work / f"{tag}.result.json"
    cmd = [str(exe), "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if args.workload.startswith("sweep_"):
        make = smoke_config if args.workload == "sweep_smoke" else fanout_config
        config = work / f"{args.workload}.config.json"
        config.write_text(json.dumps(make(args.seed), indent=1), encoding="utf-8")
        cmd += ["--config", str(config)]
    else:
        cmd += ["--seed", str(derive_seed(args.seed, args.workload))]
    trace = work / f"{tag}.trace.json"
    if args.trace:
        cmd += ["--trace-out", str(trace)]

    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    with open(out, encoding="utf-8") as f:
        raw = json.load(f)

    attempted, failed, failures = raw["attempted"], raw["failed"], list(raw["failures"])
    if args.trace:
        folded = trace_layers.fold(trace)
        for ok, what in trace_layers.check(folded, raw["wall_s"], raw["probe_layers"]):
            attempted += 1
            if not ok:
                failed += 1
                failures.append(what)
        metrics = per_layer(raw, folded, spec)
    else:
        metrics = end_to_end(raw, spec)
    for f in failures:
        log("check failed:", f)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": raw["host"],
                      "result_file": str(out.relative_to(ROOT))}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            KeyError, ValueError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
