#pragma once

/// \file sweep.hpp
/// Config-driven scenario-sweep runner: parses a sweep config (one or more
/// scenario sweeps, each with a base parameter object and axis specs),
/// expands the axes into concrete scenario instances, fans the instances
/// out over a qfc::parallel::WorkerPool, and merges the per-instance
/// results into one report in config order.
///
/// Determinism contract: instances are expanded in config order (cartesian
/// product per sweep, last axis fastest), each instance runs a registry
/// adapter that is a pure function of its parameter object, every worker
/// writes its result into a pre-sized disjoint slot, and the merge walks
/// the slots in index order — so the serialized report is bitwise
/// identical at every worker count, and identical to calling the façades
/// serially. Scenario failures are isolated: a throwing instance becomes
/// an error entry in the report (same slot, same order) and the other
/// instances still run.
///
/// Config schema (all unknown keys are path-qualified errors):
///
///     {
///       "workers": 1,                 // optional; callers may override
///       "sweeps": [
///         {
///           "scenario": "qkd_link_budget",
///           "base":  { "dark_rate_hz": 500.0 },      // optional
///           "axes": [                                // optional
///             { "param": "distance_km", "values": [0, 10, 20] },
///             { "param": "seed",
///               "linspace": { "start": 0, "stop": 30, "count": 4 } }
///           ]
///         }
///       ]
///     }
///
/// Each axis contributes either an explicit scalar list ("values") or an
/// evenly spaced numeric grid ("linspace", count points from start to
/// stop inclusive). Over a parameter the scenario declares "integer" (as
/// "seed" above) the grid must be whole numbers and expands to integers;
/// any other grid is an expansion error naming the axis. A sweep with no
/// axes is a single instance of "base".

#include <cstddef>
#include <string>
#include <vector>

#include "qfc/io/json.hpp"

namespace qfc::sweep {

/// One fully expanded scenario instance.
struct ScenarioInstance {
  std::string scenario;  ///< registry name (validated by the parser)
  io::Json params;       ///< base merged with this instance's axis values
  std::string path;      ///< originating config path, e.g. "$.sweeps[1]"
};

/// Parsed + expanded sweep config, in config order.
struct SweepPlan {
  int workers = 1;  ///< config's "workers" (1 when absent)
  std::vector<ScenarioInstance> instances;
};

/// Parses and validates a sweep config against the scenario registry and
/// expands every axis. Throws io::JsonError naming the exact JSON path of
/// the first problem (unknown scenario, unknown key, bad type, empty
/// axis). The expansion is capped at 10000 instances.
SweepPlan expand_sweep_config(const io::Json& config);

struct SweepReport {
  io::Json json;  ///< the full merged report (see sweep.cpp for layout)
  std::size_t num_scenarios = 0;
  std::size_t num_failed = 0;
};

/// Runs every instance of the plan on `workers` threads (clamped to
/// >= 1; the calling thread participates) and merges the results in plan
/// order. The serialized report is bitwise identical for every value of
/// `workers`.
SweepReport run_sweep(const SweepPlan& plan, int workers);

}  // namespace qfc::sweep
