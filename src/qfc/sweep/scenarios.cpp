/// \file scenarios.cpp
/// The registry entries: one adapter per core façade. Each adapter maps a
/// flat JSON parameter object onto the façade's Config struct (same field
/// names, same defaults), runs the experiment, and returns the result's
/// to_json(). Seeds are ordinary parameters, so a scenario instance is a
/// pure function of its parameter object.

#include "qfc/sweep/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/qudit/freq_bin_source.hpp"

namespace qfc::sweep {

namespace {

// ---- optional-parameter getters: fall back to the façade default when the
//      key is absent, path-qualified JsonError on a type mismatch.

bool flag(const io::JsonView& p, const char* key, bool fallback) {
  return p.has(key) ? p.at(key).as_bool() : fallback;
}

double num(const io::JsonView& p, const char* key, double fallback) {
  return p.has(key) ? p.at(key).as_number() : fallback;
}

int int_in(const io::JsonView& p, const char* key, int fallback, int lo, int hi) {
  return p.has(key) ? static_cast<int>(p.at(key).as_int_in(lo, hi)) : fallback;
}

std::uint64_t seed_param(const io::JsonView& p, std::uint64_t fallback) {
  return p.has("seed")
             ? static_cast<std::uint64_t>(p.at("seed").as_int_in(
                   0, std::numeric_limits<std::int64_t>::max()))
             : fallback;
}

// ---- shared parameter blocks

core::UserEndpointParams endpoint_from(const io::JsonView& p) {
  core::UserEndpointParams ep;
  ep.coincidence_window_s = num(p, "coincidence_window_s", ep.coincidence_window_s);
  ep.dark_rate_hz = num(p, "dark_rate_hz", ep.dark_rate_hz);
  ep.sifting_factor = num(p, "sifting_factor", ep.sifting_factor);
  ep.detection_efficiency_scale =
      num(p, "detection_efficiency_scale", ep.detection_efficiency_scale);
  return ep;
}

core::TimebinConfig timebin_config_from(const io::JsonView& p,
                                        const photonics::MicroringResonator& device) {
  core::TimebinConfig cfg;
  cfg.pump = core::TimebinConfig::make_default_pump(
      device, num(p, "average_power_w", 250e-3));
  cfg.num_channel_pairs = int_in(p, "num_channel_pairs", cfg.num_channel_pairs, 1, 64);
  cfg.integration_s_per_point =
      num(p, "integration_s_per_point", cfg.integration_s_per_point);
  cfg.fringe_points = int_in(p, "fringe_points", cfg.fringe_points, 4, 100000);
  cfg.interferometer_phase_noise_rms_rad = num(
      p, "interferometer_phase_noise_rms_rad", cfg.interferometer_phase_noise_rms_rad);
  cfg.accidental_fraction = num(p, "accidental_fraction", cfg.accidental_fraction);
  cfg.detection_efficiency_per_arm =
      num(p, "detection_efficiency_per_arm", cfg.detection_efficiency_per_arm);
  cfg.seed = seed_param(p, cfg.seed);
  return cfg;
}

const std::vector<ParamSpec> kTimebinParams = {
    {"average_power_w", "number", "average double-pulse pump power [W]"},
    {"num_channel_pairs", "integer", "symmetric comb channel pairs"},
    {"integration_s_per_point", "number", "integration time per fringe point [s]"},
    {"fringe_points", "integer", "points per interference fringe"},
    {"interferometer_phase_noise_rms_rad", "number", "analyzer phase noise RMS [rad]"},
    {"accidental_fraction", "number", "accidental fraction of coincidences"},
    {"detection_efficiency_per_arm", "number", "per-arm detection probability"},
    {"seed", "integer", "experiment RNG seed"},
};

const std::vector<ParamSpec> kEndpointParams = {
    {"coincidence_window_s", "number", "Alice-Bob pairing window [s]"},
    {"dark_rate_hz", "number", "per-detector dark rate [Hz]"},
    {"sifting_factor", "number", "basis-sifting factor"},
    {"detection_efficiency_scale", "number", "endpoint efficiency multiplier"},
};

std::vector<ParamSpec> concat(std::vector<ParamSpec> a,
                              const std::vector<ParamSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry registry;
  return registry;
}

const Scenario* ScenarioRegistry::find(std::string_view name) const noexcept {
  for (const Scenario& s : scenarios_)
    if (name == s.name) return &s;
  return nullptr;
}

void ScenarioRegistry::add(const char* name, const char* description,
                           std::vector<ParamSpec> params,
                           std::function<io::Json(const io::JsonView&)> run) {
  Scenario s;
  s.name = name;
  s.description = description;
  s.params = std::move(params);
  // Wrap with the unknown-key guard so every adapter is strict for free
  // and the ParamSpec list stays the single source of truth.
  s.run = [spec = s.params, inner = std::move(run)](const io::JsonView& p) {
    if (!p.value().is_object()) p.fail("expected a parameter object");
    for (const auto& member : p.value().object_members()) {
      const bool known = std::any_of(spec.begin(), spec.end(), [&](const ParamSpec& ps) {
        return member.first == ps.name;
      });
      if (!known) {
        std::string allowed;
        for (const ParamSpec& ps : spec) {
          if (!allowed.empty()) allowed += ", ";
          allowed += ps.name;
        }
        p.fail("unknown key '" + member.first + "' (expected one of: " + allowed + ")");
      }
    }
    return inner(p);
  };
  scenarios_.push_back(std::move(s));
}

ScenarioRegistry::ScenarioRegistry() {
  using core::PumpConfiguration;
  using core::QuantumFrequencyComb;

  // ---- Sec. II: heralded single photons (self-locked CW pump)
  add("heralded_channel_table",
      "Per-channel CAR / pair-rate table of the CW-pumped heralded source",
      {
          {"pump_power_w", "number", "CW pump power at the ring [W]"},
          {"num_channel_pairs", "integer", "symmetric comb channel pairs"},
          {"duration_s", "number", "integration time [s]"},
          {"coincidence_window_s", "number", "coincidence window [s]"},
          {"side_window_spacing_s", "number", "accidental side-window spacing [s]"},
          {"seed", "integer", "experiment RNG seed"},
      },
      [](const io::JsonView& p) {
        core::HeraldedConfig cfg;
        cfg.pump_power_w = num(p, "pump_power_w", cfg.pump_power_w);
        cfg.num_channel_pairs = int_in(p, "num_channel_pairs", cfg.num_channel_pairs, 1, 64);
        cfg.duration_s = num(p, "duration_s", cfg.duration_s);
        cfg.coincidence_window_s =
            num(p, "coincidence_window_s", cfg.coincidence_window_s);
        cfg.side_window_spacing_s =
            num(p, "side_window_spacing_s", cfg.side_window_spacing_s);
        cfg.seed = seed_param(p, cfg.seed);
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
        auto exp = comb.heralded(cfg);
        io::Json channels = io::Json::make_array();
        for (const auto& r : exp.run_channel_table()) channels.push_back(r.to_json());
        io::Json out = io::Json::make_object();
        out.set("channels", std::move(channels));
        return out;
      });

  // ---- Sec. III: type-II pairs (cross-polarized bichromatic pump)
  add("type2_car",
      "Cross-polarized coincidence measurement and OPO threshold of the "
      "type-II source",
      {
          {"pump_power_total_w", "number", "total bichromatic pump power [W]"},
          {"num_channel_pairs", "integer", "symmetric comb channel pairs"},
          {"duration_s", "number", "integration time [s]"},
          {"seed", "integer", "experiment RNG seed"},
      },
      [](const io::JsonView& p) {
        core::Type2Config cfg;
        cfg.pump_power_total_w = num(p, "pump_power_total_w", cfg.pump_power_total_w);
        cfg.num_channel_pairs = int_in(p, "num_channel_pairs", cfg.num_channel_pairs, 1, 64);
        cfg.duration_s = num(p, "duration_s", cfg.duration_s);
        cfg.seed = seed_param(p, cfg.seed);
        auto comb =
            QuantumFrequencyComb::for_configuration(PumpConfiguration::CrossPolarized);
        auto exp = comb.type2(cfg);
        io::Json out = io::Json::make_object();
        out.set("car", exp.run_car_measurement().to_json());
        out.set("opo_threshold_w", exp.opo_threshold_w());
        out.set("stimulated_suppression_db", exp.stimulated_suppression_db());
        return out;
      });

  // ---- Sec. IV: time-bin entanglement (double-pulse pump)
  add("timebin_chsh",
      "Quantum-interference fringe and CHSH test on one or all comb "
      "channel pairs",
      concat({{"channel", "integer", "channel pair to run (0 = all pairs)"}},
             kTimebinParams),
      [](const io::JsonView& p) {
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
        auto exp = comb.timebin(timebin_config_from(p, comb.device()));
        const int channel =
            int_in(p, "channel", 0, 0, exp.config().num_channel_pairs);
        io::Json channels = io::Json::make_array();
        if (channel == 0) {
          for (auto& r : exp.run_all_channels()) channels.push_back(r.to_json());
        } else {
          channels.push_back(exp.run_channel(channel).to_json());
        }
        io::Json out = io::Json::make_object();
        out.set("channels", std::move(channels));
        return out;
      });

  // ---- Sec. V: four-photon states (double-pulse pump, four modes)
  add("four_photon",
      "Four-photon interference fringe and tomographic fidelities",
      {
          {"pair_a", "integer", "first channel pair of the four-photon state"},
          {"pair_b", "integer", "second channel pair of the four-photon state"},
          {"fringe_points", "integer", "points per four-fold fringe"},
          {"fourfold_events_per_point", "number", "four-fold events per fringe point"},
          {"tomo_shots_per_setting", "number", "tomography shots per setting"},
          {"seed", "integer", "experiment RNG seed"},
      },
      [](const io::JsonView& p) {
        core::FourPhotonConfig cfg;
        cfg.pair_a = int_in(p, "pair_a", cfg.pair_a, 1, 64);
        cfg.pair_b = int_in(p, "pair_b", cfg.pair_b, 1, 64);
        cfg.fringe_points = int_in(p, "fringe_points", cfg.fringe_points, 4, 100000);
        cfg.fourfold_events_per_point =
            num(p, "fourfold_events_per_point", cfg.fourfold_events_per_point);
        cfg.tomo_shots_per_setting =
            num(p, "tomo_shots_per_setting", cfg.tomo_shots_per_setting);
        cfg.seed = seed_param(p, cfg.seed);
        auto comb = QuantumFrequencyComb::for_configuration(
            PumpConfiguration::DoublePulseFourMode);
        return comb.four_photon(cfg).run().to_json();
      });

  // ---- Sec. II stability claim
  add("stability_comparison",
      "Self-locked vs externally pumped long-term pair-rate stability",
      {
          {"observation_days", "number", "observation window [days]"},
          {"sample_interval_s", "number", "sampling interval [s]"},
          {"temperature_rms_K", "number", "ambient temperature drift RMS [K]"},
          {"temperature_tau_s", "number", "temperature correlation time [s]"},
          {"seed", "integer", "drift RNG seed"},
          {"include_series", "bool", "embed the full time series in the result"},
      },
      [](const io::JsonView& p) {
        core::StabilityConfig cfg;
        cfg.observation_days = num(p, "observation_days", cfg.observation_days);
        cfg.sample_interval_s = num(p, "sample_interval_s", cfg.sample_interval_s);
        cfg.temperature_rms_K = num(p, "temperature_rms_K", cfg.temperature_rms_K);
        cfg.temperature_tau_s = num(p, "temperature_tau_s", cfg.temperature_tau_s);
        cfg.seed = seed_param(p, cfg.seed);
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
        return comb.stability(cfg).run().to_json(flag(p, "include_series", false));
      });

  // ---- QKD application: analytic multiplexed link budget
  add("qkd_link_budget",
      "Analytic BBM92 link budget over every comb channel pair at one "
      "Alice-Bob distance",
      concat(concat({{"distance_km", "number", "total Alice-Bob separation [km]"}},
                    kEndpointParams),
             kTimebinParams),
      [](const io::JsonView& p) {
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
        auto exp = comb.timebin(timebin_config_from(p, comb.device()));
        const core::MultiplexedQkdLink link(exp, endpoint_from(p));
        const double distance_km = num(p, "distance_km", 0.0);
        io::Json channels = io::Json::make_array();
        for (const auto& ch : link.all_channels(distance_km))
          channels.push_back(ch.to_json());
        io::Json out = io::Json::make_object();
        out.set("distance_km", distance_km);
        out.set("channels", std::move(channels));
        out.set("aggregate_key_rate_bps", link.aggregate_key_rate_bps(distance_km));
        return out;
      });

  // ---- QKD application: many-user shared-engine network run
  add("qkd_network",
      "Monte-Carlo many-user QKD network from one shared streaming engine run",
      concat({{"num_users", "integer", "subscribers on the comb"},
              {"max_distance_km", "number", "links spread over [0, max] [km]"},
              {"duration_s", "number", "shared run duration [s]"},
              {"stream_window_s", "number", "streaming window (memory knob) [s]"},
              {"histogram_bin_km", "number", "distance histogram bin [km]"},
              {"seed", "integer", "engine seed"}},
             kEndpointParams),
      [](const io::JsonView& p) {
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
        auto exp = comb.timebin_default();
        core::QkdNetworkConfig cfg = core::QkdNetworkConfig::uniform(
            static_cast<std::size_t>(p.at("num_users").as_int_in(1, 100000)),
            num(p, "max_distance_km", 50.0), endpoint_from(p));
        cfg.stream_window_s = num(p, "stream_window_s", cfg.stream_window_s);
        cfg.histogram_bin_km = num(p, "histogram_bin_km", cfg.histogram_bin_km);
        cfg.seed = seed_param(p, cfg.seed);
        const core::QkdNetwork network(exp, cfg);
        return network.run(num(p, "duration_s", 1.0)).to_json();
      });

  // ---- qudit application: frequency-bin entangled pairs
  add("qudit_source",
      "Frequency-bin qudit pairs from the CW comb: entanglement measures "
      "and procrustean flattening cost",
      {
          {"dimension", "integer", "qudit dimension d (comb pairs 1..d)"},
          {"pump_power_w", "number", "CW pump power at the ring [W]"},
      },
      [](const io::JsonView& p) {
        const auto dimension =
            static_cast<std::size_t>(p.at("dimension").as_int_in(2, 64));
        core::HeraldedConfig cfg;
        cfg.pump_power_w = num(p, "pump_power_w", cfg.pump_power_w);
        cfg.num_channel_pairs = static_cast<int>(dimension);
        auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
        auto exp = comb.heralded(cfg);
        const auto source = qudit::FreqBinSource::from_cw_source(exp.source(), dimension);
        io::Json probabilities = io::Json::make_array();
        for (const auto& amplitude : source.bin_amplitudes())
          probabilities.push_back(std::norm(amplitude));
        io::Json out = io::Json::make_object();
        out.set("dimension", dimension);
        out.set("bin_probabilities", std::move(probabilities));
        out.set("schmidt_number", source.schmidt_number());
        out.set("entanglement_entropy_bits", source.entanglement_entropy_bits());
        out.set("flattening_efficiency",
                source.shaping_efficiency(source.flattening_mask()));
        return out;
      });
}

}  // namespace qfc::sweep
