// qfc_perfbench: the benchmark program. Runs one workload as a closed loop
// (one caller issuing passes back to back through the public entry points)
// and writes one result JSON. perfbench/run.py builds this program,
// generates the workload inputs from the benchmark seed, and folds the
// traced run's Chrome trace into per-layer metrics (see README.md).
//
//   qfc_perfbench --workload sweep_smoke|sweep_fanout --config PATH
//   qfc_perfbench --workload network|heralded --seed N
//       [--seconds S] [--trace 0|1] [--trace-out PATH] --out PATH
//
// --trace 0 measures the end-to-end metrics with qfc::obs off. --trace 1 is
// the separate traced run: after a warm-up pass, untraced passes (the
// overhead baseline) alternate with passes run with tracing and metrics on;
// then one "bench.probe" span of single-layer probes made through public
// calls. Every pass runs inside a "bench.pass" span (inert when tracing is
// off). The program's own spans are named "<layer>.<thing>" so the trace
// fold can attribute them; library spans (engine.*, pool.*, linalg.*,
// network.*) come on top.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/io/json.hpp"
#include "qfc/linalg/backend.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/sweep/scenario.hpp"
#include "qfc/sweep/sweep.hpp"
#include "qfc/timebin/multiphoton.hpp"
#include "qfc/timebin/timebin_state.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using qfc::io::Json;
using qfc::io::JsonView;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every sweep instance and every output check of a pass is one attempted
/// operation; a failed instance or a failed check is one failed operation.
/// A façade stage that throws ends the run without a result.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few, for the result file

  void check(bool ok, std::string_view what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.emplace_back(what);
  }
};

/// Counters the traced passes read as per-pass deltas.
std::uint64_t counter_value(const std::string& name) {
  return qfc::obs::counter(name).value();
}

std::uint64_t worker_busy_ns() {
  // The pools name their per-worker counters by index; a pass can touch
  // several pools (sweep, linalg, engine), which share the index names.
  std::uint64_t total = 0;
  for (unsigned i = 0; i < 256; ++i)
    total += counter_value("parallel.worker_busy_ns." + std::to_string(i));
  return total;
}

std::uint64_t linalg_counter(const char* kernel_field) {
  return counter_value(std::string("linalg.blocked.") + kernel_field) +
         counter_value(std::string("linalg.reference.") + kernel_field);
}

struct CounterSnapshot {
  std::vector<std::pair<const char*, std::uint64_t>> values;

  static CounterSnapshot take() {
    CounterSnapshot s;
    s.values = {
        {"parallel.rounds", counter_value("parallel.rounds")},
        {"parallel.tasks", counter_value("parallel.tasks")},
        {"parallel.busy_ns", worker_busy_ns()},
        {"linalg.gemm.calls", linalg_counter("gemm.calls")},
        {"linalg.gemm.flops", linalg_counter("gemm.flops")},
        {"linalg.eig.calls", linalg_counter("eig.calls")},
        {"linalg.eig.rotations", linalg_counter("eig.rotations")},
        {"engine.events_generated", counter_value("engine.events_generated")},
        {"engine.clicks_kept", counter_value("engine.clicks_kept")},
        {"detect.darks_injected", counter_value("detect.darks_injected")},
        // The detect layer's click, window and boundary counts, under the
        // benchmark's names: clicks are the clicks kept (what a caller
        // receives), windows and violations the streamer's own counters.
        {"detect.clicks", counter_value("engine.clicks_kept")},
        {"detect.windows", counter_value("engine.stream.windows")},
        {"detect.boundary_violations", counter_value("engine.stream.boundary_violations")},
    };
    return s;
  }
};

// ------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// One timed pass through the public entry points.
  virtual void run_pass() = 0;
  /// Frees the previous pass's outputs before the next pass starts, so
  /// peak RSS counts one pass's outputs, as a user's run would.
  virtual void discard_outputs() {}
  /// Output checks of the last pass (untimed).
  virtual void check_pass(Tally& t) = 0;
  /// Single-layer probes of the traced run, through public calls. Adds
  /// count metrics to `layers`; times come from the probe's spans.
  virtual void probe(Json& layers, Tally& t) = 0;
  /// Threads the workload asks for (parallel.utilization denominator).
  virtual unsigned threads() const = 0;
  /// Per-pass count metrics only this workload knows.
  virtual void pass_metrics(Json&) const {}
};

using qfc::core::PumpConfiguration;
using qfc::core::QuantumFrequencyComb;

/// Device construction, timed by the probe's "core.device_build" span.
void build_device(PumpConfiguration c) {
  QFC_OBS_SPAN("core.device_build");
  const auto comb = QuantumFrequencyComb::for_configuration(c);
  (void)comb;
}

// ---- tomography replica: FourPhotonExperiment::run's RNG stream and
//      tomography calls, made one by one through public functions.

struct TomoReplica {
  int mle_iterations = 0;
  bool mle_converged = false;
  std::size_t terms = 0;
  std::size_t dim = 0;
  double four_photon_fidelity = 0;
};

TomoReplica replicate_four_photon_tomography(const JsonView& p) {
  namespace core = qfc::core;
  core::FourPhotonConfig cfg;
  const auto get_int = [&](const char* key, int fallback) {
    return p.has(key) ? static_cast<int>(p.at(key).as_int()) : fallback;
  };
  const auto get_num = [&](const char* key, double fallback) {
    return p.has(key) ? p.at(key).as_number() : fallback;
  };
  cfg.pair_a = get_int("pair_a", cfg.pair_a);
  cfg.pair_b = get_int("pair_b", cfg.pair_b);
  cfg.fringe_points = get_int("fringe_points", cfg.fringe_points);
  cfg.fourfold_events_per_point =
      get_num("fourfold_events_per_point", cfg.fourfold_events_per_point);
  cfg.tomo_shots_per_setting = get_num("tomo_shots_per_setting", cfg.tomo_shots_per_setting);
  if (p.has("seed")) cfg.seed = static_cast<std::uint64_t>(p.at("seed").as_int());

  const auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulseFourMode);
  core::TimebinConfig tcfg;
  tcfg.pump = core::TimebinConfig::make_default_pump(comb.device());
  const core::TimebinExperiment timebin = comb.timebin(tcfg);

  qfc::rng::Xoshiro256 g(cfg.seed);
  const double phase = timebin.config().pump.pump_phase_rad;
  const auto ma = timebin.noise_model(cfg.pair_a);
  const auto mb = timebin.noise_model(cfg.pair_b);
  const auto rho_a = qfc::timebin::noisy_pair_state(ma, phase);
  const auto rho_b = qfc::timebin::noisy_pair_state(mb, phase);
  const auto rho4 = rho_a.tensor(rho_b);
  const double v_state = qfc::timebin::state_visibility(ma);
  const double mean_level =
      cfg.fourfold_events_per_point * (1.0 + v_state * v_state / 2.0) / 16.0;
  // The fringe draws come first in the façade's RNG stream.
  (void)qfc::timebin::simulate_fourfold_fringe(
      rho4, cfg.fourfold_events_per_point, cfg.fourfold_accidental_fraction * mean_level,
      cfg.fringe_points, g);

  const auto counts = [&](const qfc::quantum::DensityMatrix& rho) {
    QFC_OBS_SPAN("tomo.simulate_counts");
    return qfc::tomo::simulate_counts(rho, cfg.tomo_shots_per_setting, cfg.tomo_noise, g);
  };
  const auto pair_fit = [](const std::vector<qfc::tomo::SettingCounts>& data) {
    QFC_OBS_SPAN("tomo.mle_pair");
    return qfc::tomo::maximum_likelihood(data);
  };
  const auto counts_a = counts(rho_a);
  (void)pair_fit(counts_a);
  const auto counts_b = counts(rho_b);
  (void)pair_fit(counts_b);
  const auto counts4 = counts(rho4);
  {
    QFC_OBS_SPAN("tomo.linear_inversion");
    (void)qfc::tomo::linear_inversion(counts4);
  }
  const qfc::tomo::MleResult mle4 = [&] {
    QFC_OBS_SPAN("tomo.mle");
    return qfc::tomo::maximum_likelihood(counts4);
  }();

  TomoReplica r;
  r.mle_iterations = mle4.iterations;
  r.mle_converged = mle4.converged;
  r.dim = mle4.rho.dim();
  for (const auto& sc : counts4)
    for (const auto c : sc.counts) r.terms += c > 0 ? 1 : 0;
  const auto bell = qfc::quantum::bell_phi(phase);
  r.four_photon_fidelity = qfc::quantum::fidelity(mle4.rho, bell.tensor(bell));
  return r;
}

/// parse → expand → run_sweep → dump, the qfc_sweep CLI path.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::string config_text, int workers)
      : text_(std::move(config_text)),
        workers_(workers),
        plan_(qfc::sweep::expand_sweep_config(Json::parse(text_))) {}

  void run_pass() override {
    Json config;
    {
      QFC_OBS_SPAN("io.parse");
      config = Json::parse(text_);
    }
    qfc::sweep::SweepPlan plan;
    {
      QFC_OBS_SPAN("sweep.expand");
      plan = qfc::sweep::expand_sweep_config(config);
    }
    {
      QFC_OBS_SPAN("sweep.run");
      report_ = qfc::sweep::run_sweep(plan, workers_);
    }
    QFC_OBS_SPAN("io.dump");
    bytes_ = report_.json.dump(2);
  }

  void check_pass(Tally& t) override {
    const Json* results = report_.json.find("results");
    const bool shaped = results != nullptr && results->is_array() &&
                        results->array_items().size() == plan_.instances.size();
    t.check(shaped, "report does not list every instance");
    if (!shaped) return;
    for (const Json& entry : results->array_items()) {
      const bool ok = entry.find("ok")->bool_value();
      t.check(ok, ok ? "" : entry.find("error")->string_value());
      if (ok && entry.find("scenario")->string_value() == "four_photon")
        check_four_photon(*entry.find("result"), t);
    }
    const std::size_t hash = std::hash<std::string>{}(bytes_);
    if (!first_hash_) first_hash_ = hash;
    t.check(hash == *first_hash_, "report bytes differ between passes");
  }

  void discard_outputs() override {
    report_ = {};
    bytes_ = {};
  }

  void probe(Json& layers, Tally& t) override {
    const auto& registry = qfc::sweep::ScenarioRegistry::instance();
    const Json& results = *report_.json.find("results");
    bool devices_built[4] = {};
    for (std::size_t i = 0; i < plan_.instances.size(); ++i) {
      const auto& instance = plan_.instances[i];
      const qfc::sweep::Scenario* s = registry.find(instance.scenario);
      Json out;
      {
        QFC_OBS_SPAN("sweep.instance", {{"scenario", s->name}, {"index", i}});
        out = s->run(JsonView(instance.params, instance.path + ".params"));
      }
      const Json* in_report = results.array_items()[i].find("result");
      t.check(in_report != nullptr && *in_report == out,
              "a probed instance differs from its sweep result");
      const auto c = static_cast<int>(pump_configuration_of(instance.scenario));
      if (!devices_built[c]) {
        devices_built[c] = true;
        build_device(static_cast<PumpConfiguration>(c));
      }
    }

    for (std::size_t i = 0; i < plan_.instances.size(); ++i) {
      const auto& instance = plan_.instances[i];
      if (instance.scenario != "four_photon") continue;
      const TomoReplica r =
          replicate_four_photon_tomography(JsonView(instance.params, instance.path));
      const Json& facade = *results.array_items()[i].find("result");
      const auto facade_iterations = facade.find("tomo_iterations_four")->int_value();
      // Computed, not measured: cost of one RρR iteration
      // (tomo::rrr_reconstruct) over T rank-dim projector terms. Per term:
      // Tr(ρΠ) (8·dim² flop), copy + complex scale (6·dim²), accumulate
      // into R (2·dim²); then R·ρ·R (two dim³ complex GEMMs, 16·dim³) and
      // normalize + update norm (~4·dim²). Bytes: per term Π is read
      // twice, the scaled copy written, rescaled in place and read, R read
      // and written (8 transfers of 16·dim² bytes, ρ cache-resident); the
      // two GEMMs move 6 matrices.
      const double d2 = static_cast<double>(r.dim * r.dim);
      const double terms = static_cast<double>(r.terms);
      layers.set("tomo.mle_iterations", r.mle_iterations);
      layers.set("tomo.mle_converged", r.mle_converged ? 1 : 0);
      layers.set("tomo.terms", r.terms);
      layers.set("tomo.flops_per_iter",
                 terms * 16.0 * d2 + 16.0 * d2 * static_cast<double>(r.dim) + 4.0 * d2);
      layers.set("tomo.bytes_per_iter", (8.0 * terms + 6.0) * 16.0 * d2);
      layers.set("tomo.facade_iterations_four", facade_iterations);
      t.check(r.mle_iterations == facade_iterations,
              "tomography replica iterations differ from the façade");
      t.check(r.four_photon_fidelity == facade.find("four_photon_fidelity")->number_value(),
              "tomography replica fidelity differs from the façade");
      break;
    }
  }

  void pass_metrics(Json& layers) const override {
    layers.set("sweep.instances", report_.num_scenarios);
    layers.set("sweep.failed", report_.num_failed);
    layers.set("io.report_bytes", bytes_.size());
  }

  unsigned threads() const override {
    return static_cast<unsigned>(std::max(1, workers_));
  }

 private:
  static void check_four_photon(const Json& r, Tally& t) {
    const double f4 = r.find("four_photon_fidelity")->number_value();
    t.check(f4 > 0.5 && f4 < 0.85, "four-photon fidelity outside (0.5, 0.85)");
    // Bell fidelity above 0.5 certifies entanglement. The tests' stricter
    // 0.75 holds at their seed only: over seeds half the pair fits fall
    // below it, down to about 0.55 (see README.md, known defects).
    for (const char* key : {"bell_fidelity_a", "bell_fidelity_b"})
      t.check(r.find(key)->number_value() > 0.5, "Bell fidelity not above 0.5");
  }

  /// The pump configuration each scenario adapter builds its device for
  /// (src/qfc/sweep/scenarios.cpp).
  static PumpConfiguration pump_configuration_of(const std::string& scenario) {
    if (scenario == "type2_car") return PumpConfiguration::CrossPolarized;
    if (scenario == "four_photon") return PumpConfiguration::DoublePulseFourMode;
    if (scenario == "timebin_chsh" || scenario == "qkd_link_budget" ||
        scenario == "qkd_network")
      return PumpConfiguration::DoublePulse;
    return PumpConfiguration::SelfLockedCw;
  }

  std::string text_;
  int workers_;
  qfc::sweep::SweepPlan plan_;
  qfc::sweep::SweepReport report_;
  std::string bytes_;
  std::optional<std::size_t> first_hash_;
};

/// One QkdNetwork::run: 256 users at up to 50 km, 0.1 s in 0.01 s windows,
/// default (auto) analysis threads — the bounded-memory streaming path.
class NetworkWorkload final : public Workload {
 public:
  static constexpr std::size_t kUsers = 256;
  static constexpr double kDurationS = 0.1;
  static constexpr double kWindowS = 0.01;
  static constexpr std::size_t kWindows = 10;  // kDurationS / kWindowS

  explicit NetworkWorkload(std::uint64_t seed) {
    const auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
    experiment_ = std::make_unique<qfc::core::TimebinExperiment>(comb.timebin_default());
    auto cfg = qfc::core::QkdNetworkConfig::uniform(kUsers, 50.0);
    cfg.stream_window_s = kWindowS;
    cfg.seed = seed;
    network_ = std::make_unique<qfc::core::QkdNetwork>(*experiment_, cfg);
  }

  void run_pass() override {
    {
      QFC_OBS_SPAN("core.network.run");
      report_ = network_->run(kDurationS);
    }
    QFC_OBS_SPAN("io.dump");
    bytes_ = report_.to_json().dump(2);
  }

  void check_pass(Tally& t) override {
    t.check(report_.users.size() == kUsers, "network report lists the wrong user count");
    t.check(report_.stream_windows == kWindows,
            "network run emitted the wrong window count");
    const std::size_t hash = std::hash<std::string>{}(bytes_);
    if (!first_hash_) first_hash_ = hash;
    t.check(hash == *first_hash_, "network report bytes differ between passes");
  }

  void discard_outputs() override {
    report_ = {};
    bytes_ = {};
  }

  void probe(Json&, Tally&) override { build_device(PumpConfiguration::DoublePulse); }

  void pass_metrics(Json& layers) const override {
    // The stream accumulates one CAR cell per (signal, idler) channel pair
    // of engine_specs(); each user's report reads its own diagonal cell.
    const double channels = static_cast<double>(network_->engine_specs().size());
    layers.set("detect.car_cells_used_frac",
               static_cast<double>(report_.users.size()) / (channels * channels));
    layers.set("io.report_bytes", bytes_.size());
  }

  unsigned threads() const override { return qfc::detect::analysis_threads(); }

 private:
  std::unique_ptr<qfc::core::TimebinExperiment> experiment_;
  std::unique_ptr<qfc::core::QkdNetwork> network_;
  qfc::core::QkdNetworkReport report_;
  std::string bytes_;
  std::optional<std::size_t> first_hash_;
};

/// Sec. II at the paper defaults: 5 channel pairs at 60 s for the
/// coincidence matrix and the channel table, then a 120 s coherence
/// measurement on pair 1 — the batch, all-in-memory engine path.
class HeraldedWorkload final : public Workload {
 public:
  explicit HeraldedWorkload(std::uint64_t seed) {
    qfc::core::HeraldedConfig cfg;
    cfg.seed = seed;
    const auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
    experiment_ = std::make_unique<qfc::core::HeraldedPhotonExperiment>(comb.heralded(cfg));
  }

  void run_pass() override {
    {
      QFC_OBS_SPAN("core.heralded.matrix");
      matrix_ = experiment_->run_coincidence_matrix();
    }
    {
      QFC_OBS_SPAN("core.heralded.table");
      table_ = experiment_->run_channel_table();
    }
    QFC_OBS_SPAN("core.heralded.coherence");
    coherence_ = experiment_->run_coherence_measurement(1, 120.0);
  }

  void check_pass(Tally& t) override {
    const std::size_t pairs =
        static_cast<std::size_t>(experiment_->config().num_channel_pairs);
    t.check(matrix_.size() == pairs * pairs, "coincidence matrix has the wrong size");
    for (const auto& cell : matrix_) {
      const double car = cell.car.car;
      if (cell.signal_k == cell.idler_k)
        t.check(car > 5.0 && car < 80.0, "diagonal CAR outside (5, 80)");
      else
        t.check(car < 2.5, "off-diagonal CAR not below 2.5");
    }
    t.check(table_.size() == pairs, "channel table has the wrong size");
    for (const auto& row : table_)
      t.check(row.car > 5.0 && row.car < 80.0, "channel-table CAR outside (5, 80)");
    const double lw = coherence_.measured_linewidth_hz;
    t.check(lw > 70e6 && lw < 160e6, "measured linewidth outside (70, 160) MHz");
  }

  void discard_outputs() override {
    matrix_ = {};
    table_ = {};
    coherence_ = {};
  }

  void probe(Json&, Tally&) override { build_device(PumpConfiguration::SelfLockedCw); }

  unsigned threads() const override { return nproc(); }

 private:
  std::unique_ptr<qfc::core::HeraldedPhotonExperiment> experiment_;
  std::vector<qfc::core::MatrixCell> matrix_;
  std::vector<qfc::core::ChannelResult> table_;
  qfc::core::CoherenceResult coherence_;
};

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::string config;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qfc_perfbench: %s\n"
               "usage: qfc_perfbench --workload NAME [--config PATH] [--seed N]\n"
               "       [--seconds S] [--trace 0|1] [--trace-out PATH]\n"
               "       --out PATH\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--config") a.config = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--trace-out") a.trace_out = value;
    else if (flag == "--out") a.out = value;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload.empty() || a.out.empty()) usage("--workload and --out are required");
  if (a.trace == 1 && a.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return a;
}

/// Sweep workers: 4, never more than the host's cores.
int sweep_workers() { return static_cast<int>(std::min(4u, nproc())); }

std::function<std::unique_ptr<Workload>()> workload_factory(const Args& a) {
  if (a.workload == "sweep_smoke" || a.workload == "sweep_fanout") {
    if (a.config.empty()) usage("sweep workloads need --config");
    const std::string path = a.config;
    return [path] {
      return std::make_unique<SweepWorkload>(read_file(path), sweep_workers());
    };
  }
  const std::uint64_t seed = a.seed;
  if (a.workload == "network")
    return [seed] { return std::make_unique<NetworkWorkload>(seed); };
  if (a.workload == "heralded")
    return [seed] { return std::make_unique<HeraldedWorkload>(seed); };
  usage(("unknown workload " + a.workload).c_str());
}

struct PassTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;

  /// Times one pass (wall and process CPU), then checks its outputs.
  void run(Workload& w, Tally& t) {
    w.discard_outputs();
    const double c0 = cpu_seconds();
    const auto p0 = Clock::now();
    {
      QFC_OBS_SPAN("bench.pass");
      w.run_pass();
    }
    wall_s.push_back(seconds_since(p0));
    cpu_s.push_back(cpu_seconds() - c0);
    w.check_pass(t);
  }
};

Json host_json() {
  Json h = Json::make_object();
  h.set("nproc", nproc());
  h.set("cpu_model", cpu_model());
  h.set("compiler", QFC_BENCH_COMPILER);
  h.set("build_type", QFC_BENCH_BUILD_TYPE);
  h.set("linalg_simd", qfc::linalg::simd_enabled() ? "avx2" : "scalar");
  h.set("analysis_threads", qfc::detect::analysis_threads());
  h.set("sweep_workers", sweep_workers());
  return h;
}

Json array_of(const std::vector<double>& v) {
  Json a = Json::make_array();
  for (const double x : v) a.push_back(x);
  return a;
}

constexpr std::size_t kMaxTracedPasses = 6;

int run(const Args& a) {
  const auto make = workload_factory(a);
  Tally tally;

  // A set-up is the whole path from inputs to a ready workload (config
  // read/parse/expand, device and façade construction). It is timed once
  // to build the workload and then, with --trace 0, once more before every
  // pass, so its median samples the host over the whole run as wall_s
  // does; a set-up of microseconds timed only at process start would
  // sample one instant.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    auto fresh = make();
    setup_s.push_back(seconds_since(t0));
    return fresh;
  };
  const std::unique_ptr<Workload> w = timed_setup();

  Json result = Json::make_object();
  result.set("workload", a.workload);
  result.set("trace", a.trace);
  result.set("host", host_json());

  if (a.trace == 0) {
    PassTimes times;
    const auto t0 = Clock::now();
    while (times.wall_s.size() < 3 || seconds_since(t0) < a.seconds) {
      (void)timed_setup();
      times.run(*w, tally);
    }
    result.set("wall_s", array_of(times.wall_s));
    result.set("cpu_s", array_of(times.cpu_s));
  } else {
    // A warm-up pass, then untraced and traced passes in turn, so drift
    // hits both alike (the untraced ones are the overhead baseline); then
    // the probes. At most kMaxTracedPasses keep every thread's span buffer
    // far below its cap even on the 10k-instance sweep; untraced passes
    // fill the rest of the run.
    PassTimes warmup, untraced, traced;
    warmup.run(*w, tally);
    std::vector<Json> pass_layers;
    const auto t0 = Clock::now();
    while (traced.wall_s.size() < 2 || seconds_since(t0) < 0.8 * a.seconds) {
      untraced.run(*w, tally);
      if (traced.wall_s.size() == kMaxTracedPasses) continue;
      qfc::obs::enable();
      const CounterSnapshot before = CounterSnapshot::take();
      traced.run(*w, tally);
      const CounterSnapshot after = CounterSnapshot::take();
      qfc::obs::disable();
      Json layers = Json::make_object();
      for (std::size_t i = 0; i < after.values.size(); ++i)
        layers.set(after.values[i].first, after.values[i].second - before.values[i].second);
      layers.set("parallel.utilization",
                 layers.find("parallel.busy_ns")->number_value() /
                     (1e9 * w->threads() * traced.wall_s.back()));
      w->pass_metrics(layers);
      tally.check(layers.find("detect.boundary_violations")->int_value() == 0,
                  "stream boundary violations");
      pass_layers.push_back(std::move(layers));
    }

    qfc::obs::enable();
    Json probe_layers = Json::make_object();
    {
      QFC_OBS_SPAN("bench.probe");
      w->probe(probe_layers, tally);
    }
    qfc::obs::disable();
    if (!qfc::obs::write_trace(a.trace_out)) return 1;

    result.set("untraced_wall_s", array_of(untraced.wall_s));
    result.set("wall_s", array_of(traced.wall_s));
    result.set("cpu_s", array_of(traced.cpu_s));
    Json passes = Json::make_array();
    for (Json& l : pass_layers) passes.push_back(std::move(l));
    result.set("pass_layers", std::move(passes));
    result.set("probe_layers", std::move(probe_layers));
    result.set("obs.trace_overhead_frac",
               median(traced.wall_s) / median(untraced.wall_s) - 1.0);
  }

  result.set("setup_s", array_of(setup_s));
  result.set("peak_rss_mb", peak_rss_mb());
  result.set("attempted", tally.attempted);
  result.set("failed", tally.failed);
  Json failures = Json::make_array();
  for (const auto& f : tally.failures) failures.push_back(f);
  result.set("failures", std::move(failures));

  std::ofstream out(a.out, std::ios::binary);
  out << result.dump(2) << "\n";
  if (!out) {
    std::fprintf(stderr, "qfc_perfbench: cannot write %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qfc_perfbench: %s\n", e.what());
    return 1;
  }
}
