// Tests for the config/serialization layer (qfc::io JSON) and the
// scenario-sweep runner (qfc::sweep): round-trips, literal writer bytes,
// the parse nesting cap, path-qualified config errors, axis expansion,
// worker-count bitwise parity, failure isolation, and adapter-vs-façade
// parity for every registered experiment.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/io/json.hpp"
#include "qfc/qudit/freq_bin_source.hpp"
#include "qfc/sweep/scenario.hpp"
#include "qfc/sweep/sweep.hpp"

#include "threads_guard.hpp"

namespace {

using namespace qfc;
using io::Json;
using io::JsonError;
using io::JsonView;

// --------------------------------------------------------------- io::Json

TEST(Json, ParseDumpRoundTripPreservesValuesAndOrder) {
  const std::string text =
      R"({"b":true,"a":null,"i":-42,"d":0.1,"s":"héllo \"x\"","arr":[1,2.5,"three",false],"o":{"nested":[{"k":1}]}})";
  const Json v = Json::parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(Json::parse(v.dump()), v);
  // Member order is insertion (= author) order, not sorted.
  EXPECT_EQ(v.object_members()[0].first, "b");
  EXPECT_EQ(v.object_members()[1].first, "a");
  // Integer literals stay integers, decimals stay doubles.
  EXPECT_TRUE(v.find("i")->is_int());
  EXPECT_FALSE(v.find("d")->is_int());
  EXPECT_TRUE(v.find("d")->is_number());
}

TEST(Json, NumbersRoundTripBitExactly) {
  for (double d : {0.1, 1.0 / 3.0, 1e-308, 1.7976931348623157e308, -0.0,
                   123456789.123456789, 6.62607015e-34}) {
    const Json parsed = Json::parse(Json(d).dump());
    ASSERT_TRUE(parsed.is_number());
    EXPECT_EQ(parsed.number_value(), d) << Json(d).dump();
  }
  // Integer-valued doubles keep a ".0" marker so they re-parse as Double.
  EXPECT_EQ(Json(3.0).dump(), "3.0");
  EXPECT_FALSE(Json::parse("3.0").is_int());
  EXPECT_TRUE(Json::parse("3").is_int());
  EXPECT_EQ(Json::parse("9223372036854775807").int_value(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Json, IntAndDoubleAreDistinctValues) {
  EXPECT_NE(Json(3), Json(3.0));
  EXPECT_EQ(Json(3), Json(3));
  EXPECT_EQ(Json(3.0), Json(3.0));
}

TEST(Json, SignedZerosAreDistinctValuesLikeTheirBytes) {
  EXPECT_NE(Json(-0.0).dump(), Json(0.0).dump());
  EXPECT_NE(Json(-0.0), Json(0.0));
  EXPECT_EQ(Json(-0.0), Json::parse("-0.0"));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Json(nan), Json(nan));
  EXPECT_NE(Json(nan), Json(0.0));
}

TEST(Json, WriterRejectsNonFiniteAndNumberOrStringSanitizes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Json(nan).dump(), JsonError);
  EXPECT_EQ(io::number_or_string(nan).dump(), "\"nan\"");
  EXPECT_EQ(io::number_or_string(inf).dump(), "\"inf\"");
  EXPECT_EQ(io::number_or_string(-inf).dump(), "\"-inf\"");
  EXPECT_EQ(io::number_or_string(2.5).dump(), "2.5");
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(Json::parse("[1, 2,]"), JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), JsonError);
  EXPECT_THROW(Json::parse("1e999"), JsonError);
}

TEST(Json, LargeObjectKeepsOrderAndReportsALateDuplicateAtItsPosition) {
  // One key per line: line 1 is '{', key i sits on line i + 2. A parse that
  // rescans earlier keys per key would take minutes here.
  const std::size_t n = 200000;
  const auto key = [](std::size_t i) { return std::string("k").append(std::to_string(i)); };
  std::string text = "{\n";
  for (std::size_t i = 0; i < n; ++i)
    text.append("\"").append(key(i)).append("\": ").append(std::to_string(i)).append(",\n");
  const std::string unique = text.substr(0, text.size() - 2).append("\n}");
  const Json object = Json::parse(unique);
  const Json::Object& members = object.object_members();
  ASSERT_EQ(members.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(members[i].first, key(i));
    ASSERT_EQ(members[i].second.int_value(), static_cast<std::int64_t>(i));
  }

  // The duplicate of k7 on line n + 2 is reported just past its key.
  try {
    Json::parse(text.append("\"k7\": 0\n}"));
    FAIL() << "duplicate key accepted";
  } catch (const JsonError& e) {
    const std::string expected = std::string("line ")
                                     .append(std::to_string(n + 2))
                                     .append(", column 5: duplicate object key 'k7'");
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
}

TEST(Json, ParseRejectsNestingPastTheCapWithPosition) {
  // 100,000 levels would overflow a parser without the cap.
  const std::size_t deep = 100000;
  const std::string arrays = std::string(deep, '[') + std::string(deep, ']');
  std::string objects;
  for (std::size_t i = 0; i < deep; ++i) objects += "{\"a\":";
  objects += "0" + std::string(deep, '}');
  for (const std::string& text : {arrays, objects}) {
    try {
      Json::parse(text);
      FAIL() << "nesting past the cap accepted";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 1, column"), std::string::npos) << e.what();
    }
  }
  // The cap itself parses; one level more does not.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(Json::parse(nested(Json::kMaxDepth)).dump(), nested(Json::kMaxDepth));
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), JsonError);
  // Depth is nesting, not a count of containers: siblings do not add up.
  std::string siblings = "[";
  for (int i = 0; i < 2 * Json::kMaxDepth; ++i) siblings += i == 0 ? "[]" : ",{}";
  siblings += "]";
  EXPECT_EQ(Json::parse(siblings).array_items().size(), 2u * Json::kMaxDepth);
}

TEST(Json, WriterEscapesByteForByte) {
  EXPECT_EQ(Json("\"\\\b\f\n\r\t").dump(), R"("\"\\\b\f\n\r\t")");
  EXPECT_EQ(Json(std::string("\x01 \x1f", 3)).dump(), R"("\u0001 \u001f")");
  EXPECT_EQ(Json(std::string("a\0b", 3)).dump(), R"("a\u0000b")");
  // DEL and multi-byte UTF-8 pass through unescaped.
  EXPECT_EQ(Json("\x7f h\xc3\xa9llo \xe2\x82\xac").dump(), "\"\x7f h\xc3\xa9llo \xe2\x82\xac\"");
  // Unescaped runs around escapes, and keys escape like values.
  Json object = Json::make_object();
  object.set("k\"ey", "ab\ncd\\");
  EXPECT_EQ(object.dump(), R"({"k\"ey":"ab\ncd\\"})");
  EXPECT_EQ(Json("").dump(), R"("")");
}

TEST(Json, WriterPrintsInt64Extremes) {
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(), "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::max()).dump(), "9223372036854775807");
  EXPECT_EQ(Json(0).dump(), "0");
  EXPECT_EQ(Json(-7).dump(), "-7");
}

TEST(Json, PrettyDumpOfNestedContainers) {
  const Json v = Json::parse(R"({"a":[],"b":{},"c":[1,[true,{}]],"d":{"e":[null]}})");
  EXPECT_EQ(v.dump(2),
            "{\n"
            "  \"a\": [],\n"
            "  \"b\": {},\n"
            "  \"c\": [\n"
            "    1,\n"
            "    [\n"
            "      true,\n"
            "      {}\n"
            "    ]\n"
            "  ],\n"
            "  \"d\": {\n"
            "    \"e\": [\n"
            "      null\n"
            "    ]\n"
            "  }\n"
            "}");
  EXPECT_EQ(Json::make_array().dump(2), "[]");
  EXPECT_EQ(Json::make_object().dump(2), "{}");
}

TEST(Json, UncheckedReadersReturnZeroOrEmptyOnOtherTypes) {
  const Json s("text");
  EXPECT_FALSE(s.bool_value());
  EXPECT_EQ(s.int_value(), 0);
  EXPECT_EQ(s.number_value(), 0.0);
  EXPECT_TRUE(s.array_items().empty());
  EXPECT_TRUE(s.object_members().empty());
  EXPECT_EQ(s.find("text"), nullptr);
  EXPECT_TRUE(Json(1.5).string_value().empty());
  EXPECT_EQ(Json(1.5).int_value(), 0);
  EXPECT_EQ(Json(4).number_value(), 4.0);
  EXPECT_TRUE(Json().string_value().empty());
}

TEST(JsonView, ErrorsNameTheExactPath) {
  const Json v = Json::parse(R"({"sweeps":[{"axes":[{"param":7}]}]})");
  const JsonView root(v);
  try {
    root.at("sweeps").at(0).at("axes").at(0).at("param").as_string();
    FAIL() << "type mismatch accepted";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.sweeps[0].axes[0].param"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("string"), std::string::npos);
  }
  // as_int is strict: a Double is a type error even when integer-valued.
  const Json d = Json::parse(R"({"count":3.0})");
  EXPECT_THROW(JsonView(d).at("count").as_int(), JsonError);
  EXPECT_THROW(JsonView(d).at("missing"), JsonError);
  const Json r = Json::parse(R"({"count":99})");
  EXPECT_THROW(JsonView(r).at("count").as_int_in(1, 64), JsonError);
  EXPECT_EQ(JsonView(r).at("count").as_int_in(1, 100), 99);
}

// ------------------------------------------------------- sweep expansion

Json parse_config(const std::string& text) { return Json::parse(text); }

TEST(SweepExpansion, CartesianProductLastAxisFastest) {
  const auto plan = sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{
      "scenario": "qkd_link_budget",
      "base": { "dark_rate_hz": 100.0 },
      "axes": [
        { "param": "distance_km", "values": [0.0, 10.0] },
        { "param": "detection_efficiency_scale", "linspace": {"start": 0.5, "stop": 1.0, "count": 3} }
      ]
    }]
  })"));
  ASSERT_EQ(plan.instances.size(), 6u);
  const auto value = [&](std::size_t i, const char* key) {
    return plan.instances[i].params.find(key)->number_value();
  };
  // Last axis fastest: scale cycles within each distance.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(value(i, "distance_km"), i < 3 ? 0.0 : 10.0);
    EXPECT_EQ(value(i, "dark_rate_hz"), 100.0);
  }
  EXPECT_EQ(value(0, "detection_efficiency_scale"), 0.5);
  EXPECT_EQ(value(1, "detection_efficiency_scale"), 0.75);
  EXPECT_EQ(value(2, "detection_efficiency_scale"), 1.0);  // endpoint exact
  EXPECT_EQ(value(3, "detection_efficiency_scale"), 0.5);

  // The sweep.hpp doc example: a linspace over an integer parameter
  // expands to integers, which the scenario's integer getter accepts.
  const auto doc = sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{
      "scenario": "qkd_link_budget",
      "base": { "dark_rate_hz": 500.0 },
      "axes": [
        { "param": "distance_km", "values": [0, 10, 20] },
        { "param": "seed", "linspace": { "start": 0, "stop": 30, "count": 4 } }
      ]
    }]
  })"));
  ASSERT_EQ(doc.instances.size(), 12u);
  for (std::size_t i = 0; i < doc.instances.size(); ++i) {
    const Json* seed = doc.instances[i].params.find("seed");
    ASSERT_NE(seed, nullptr);
    ASSERT_TRUE(seed->is_int()) << "instance " << i;
    EXPECT_EQ(seed->int_value(), 10 * static_cast<std::int64_t>(i % 4));
    EXPECT_EQ(JsonView(doc.instances[i].params).at("seed").as_int(),
              seed->int_value());
  }
}

TEST(SweepExpansion, ConfigErrorsNameThePath) {
  // Unknown scenario: names the path and lists what is registered.
  try {
    sweep::expand_sweep_config(
        parse_config(R"({"sweeps":[{"scenario":"nope"}]})"));
    FAIL() << "unknown scenario accepted";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("$.sweeps[0].scenario"), std::string::npos) << what;
    EXPECT_NE(what.find("qkd_link_budget"), std::string::npos) << what;
  }
  // Unknown top-level / sweep-level keys.
  EXPECT_THROW(sweep::expand_sweep_config(parse_config(R"({"sweps":[]})")),
               JsonError);
  EXPECT_THROW(sweep::expand_sweep_config(parse_config(
                   R"({"sweeps":[{"scenario":"qudit_source","bass":{}}]})")),
               JsonError);
  // Axis must have exactly one of values / linspace, and values non-empty.
  EXPECT_THROW(
      sweep::expand_sweep_config(parse_config(
          R"({"sweeps":[{"scenario":"qudit_source","axes":[{"param":"dimension"}]}]})")),
      JsonError);
  EXPECT_THROW(
      sweep::expand_sweep_config(parse_config(
          R"({"sweeps":[{"scenario":"qudit_source","axes":[{"param":"dimension","values":[]}]}]})")),
      JsonError);
  // A linspace over an integer parameter must be a grid of whole numbers.
  try {
    sweep::expand_sweep_config(parse_config(
        R"({"sweeps":[{"scenario":"qudit_source","axes":[{"param":"dimension","linspace":{"start":2,"stop":10,"count":4}}]}]})"));
    FAIL() << "non-integral grid over an integer parameter accepted";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("$.sweeps[0].axes[0].linspace"), std::string::npos) << what;
  }
  // Instance cap: 101 x 101 > 10000 fails at expansion time.
  EXPECT_THROW(sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{"scenario": "qudit_source", "axes": [
      {"param": "a", "linspace": {"start": 0.0, "stop": 1.0, "count": 101}},
      {"param": "b", "linspace": {"start": 0.0, "stop": 1.0, "count": 101}}
    ]}]})")),
               JsonError);
}

TEST(SweepExpansion, UnknownParamKeyFailsTheInstanceWithItsPath) {
  const auto plan = sweep::expand_sweep_config(parse_config(
      R"({"sweeps":[{"scenario":"qudit_source","base":{"dimension":3,"pump_powr_w":0.01}}]})"));
  const auto report = sweep::run_sweep(plan, 1);
  EXPECT_EQ(report.num_failed, 1u);
  const std::string dumped = report.json.dump();
  EXPECT_NE(dumped.find("unknown key 'pump_powr_w'"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("$.sweeps[0].params"), std::string::npos) << dumped;
}

// ------------------------------------------------------------ sweep runs

const char* kParitySweep = R"({
  "sweeps": [
    {
      "scenario": "qkd_link_budget",
      "base": { "num_channel_pairs": 2 },
      "axes": [{ "param": "distance_km", "values": [0.0, 20.0, 40.0] }]
    },
    {
      "scenario": "qudit_source",
      "axes": [{ "param": "dimension", "values": [2, 4] }]
    },
    {
      "scenario": "stability_comparison",
      "base": { "observation_days": 0.25, "sample_interval_s": 900.0 }
    }
  ]
})";

TEST(SweepRun, ReportBytesIdenticalAcrossWorkerCounts) {
  const auto plan = sweep::expand_sweep_config(parse_config(kParitySweep));
  ASSERT_EQ(plan.instances.size(), 6u);
  const auto at1 = sweep::run_sweep(plan, 1);
  EXPECT_EQ(at1.num_failed, 0u);
  const std::string bytes1 = at1.json.dump(2);
  for (int workers : {2, 4}) {
    const std::string bytes = sweep::run_sweep(plan, workers).json.dump(2);
    EXPECT_EQ(bytes, bytes1) << "diverged at " << workers << " workers";
  }
}

TEST(SweepRun, ReportMatchesSerialAdapterInvocation) {
  // The merged report's result entries are exactly what calling each
  // registered adapter serially produces — fan-out adds nothing.
  const auto plan = sweep::expand_sweep_config(parse_config(kParitySweep));
  const auto report = sweep::run_sweep(plan, 4);
  const auto& entries = report.json.find("results")->array_items();
  ASSERT_EQ(entries.size(), plan.instances.size());
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    const auto* scenario =
        sweep::ScenarioRegistry::instance().find(plan.instances[i].scenario);
    ASSERT_NE(scenario, nullptr);
    const Json direct = scenario->run(JsonView(plan.instances[i].params));
    EXPECT_EQ(*entries[i].find("result"), direct) << plan.instances[i].scenario;
  }
}

TEST(SweepRun, FailingInstanceIsIsolated) {
  // dark_rate_hz < 0 fails UserEndpointParams::validate inside the second
  // instance; its neighbors still run and the report keeps config order.
  const auto plan = sweep::expand_sweep_config(parse_config(R"({
    "sweeps": [{
      "scenario": "qkd_link_budget",
      "axes": [{ "param": "dark_rate_hz", "values": [100.0, -5.0, 300.0] }]
    }]
  })"));
  const auto report = sweep::run_sweep(plan, 2);
  EXPECT_EQ(report.num_scenarios, 3u);
  EXPECT_EQ(report.num_failed, 1u);
  const auto& entries = report.json.find("results")->array_items();
  EXPECT_TRUE(entries[0].find("ok")->bool_value());
  EXPECT_FALSE(entries[1].find("ok")->bool_value());
  EXPECT_TRUE(entries[2].find("ok")->bool_value());
  EXPECT_NE(entries[1].find("error")->string_value().find("dark rate"),
            std::string::npos);
  EXPECT_EQ(entries[1].find("result"), nullptr);
}

TEST(SweepRun, QuditDimensionAtTheRegisterCap) {
  // dimension 64 is a 64 x 64 pair, d² = 4096 amplitudes: exactly the
  // quantum register cap (its density matrix peaks at ~260 MB). 65 is past
  // the adapter's range and fails only its own instance.
  const auto plan = sweep::expand_sweep_config(parse_config(
      R"({"sweeps":[{"scenario":"qudit_source","axes":[{"param":"dimension","values":[64,65]}]}]})"));
  const auto report = sweep::run_sweep(plan, 1);
  EXPECT_EQ(report.num_failed, 1u);
  const auto& entries = report.json.find("results")->array_items();
  ASSERT_EQ(entries.size(), 2u);
  ASSERT_TRUE(entries[0].find("ok")->bool_value());
  EXPECT_DOUBLE_EQ(entries[0].find("result")->find("schmidt_number")->number_value(),
                   13.35341327634091);
  EXPECT_FALSE(entries[1].find("ok")->bool_value());
  EXPECT_NE(entries[1].find("error")->string_value().find("dimension"), std::string::npos);
}

// --------------------------------------------- adapter-vs-façade parity

using core::PumpConfiguration;
using core::QuantumFrequencyComb;

/// Runs the adapter as a sweep worker does: two copies of the instance on
/// two workers, so each runs in a task of a threaded round and every nested
/// detect / linalg round inside it runs inline. Both copies must agree.
Json run_adapter(const char* name, const std::string& params_text) {
  EXPECT_NE(sweep::ScenarioRegistry::instance().find(name), nullptr) << name;
  const sweep::ScenarioInstance instance{name, Json::parse(params_text), "$"};
  sweep::SweepPlan plan;
  plan.instances = {instance, instance};
  const auto report = sweep::run_sweep(plan, /*workers=*/2);
  const auto& entries = report.json.find("results")->array_items();
  for (const Json& entry : entries)
    if (!entry.find("ok")->bool_value()) {
      ADD_FAILURE() << name << ": " << entry.find("error")->string_value();
      return Json();
    }
  EXPECT_EQ(*entries[0].find("result"), *entries[1].find("result")) << name;
  return *entries[0].find("result");
}

/// The direct façade call the adapter is compared against, on a threaded
/// shared pool.
template <class Fn>
auto threaded(Fn&& fn) {
  return test::at_threads(4, std::forward<Fn>(fn));
}

TEST(ScenarioParity, HeraldedChannelTable) {
  const Json via_sweep = run_adapter(
      "heralded_channel_table",
      R"({"duration_s": 0.05, "num_channel_pairs": 2, "seed": 7})");
  core::HeraldedConfig cfg;
  cfg.duration_s = 0.05;
  cfg.num_channel_pairs = 2;
  cfg.seed = 7;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  auto exp = comb.heralded(cfg);
  Json direct = Json::make_object();
  Json channels = Json::make_array();
  for (const auto& r : threaded([&] { return exp.run_channel_table(); }))
    channels.push_back(r.to_json());
  direct.set("channels", std::move(channels));
  EXPECT_EQ(via_sweep, direct);
}

TEST(ScenarioParity, QkdLinkBudget) {
  const Json via_sweep =
      run_adapter("qkd_link_budget", R"({"distance_km": 25.0, "dark_rate_hz": 700.0})");
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  core::UserEndpointParams endpoint;
  endpoint.dark_rate_hz = 700.0;
  const core::MultiplexedQkdLink link(exp, endpoint);
  const auto& channels_json = via_sweep.find("channels")->array_items();
  const auto direct = link.all_channels(25.0);
  ASSERT_EQ(channels_json.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(channels_json[i], direct[i].to_json());
  EXPECT_EQ(via_sweep.find("aggregate_key_rate_bps")->number_value(),
            link.aggregate_key_rate_bps(25.0));
}

TEST(ScenarioParity, TimebinChsh) {
  const Json via_sweep = run_adapter(
      "timebin_chsh",
      R"({"channel": 1, "num_channel_pairs": 2, "fringe_points": 12, "seed": 3})");
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
  core::TimebinConfig cfg;
  cfg.pump = core::TimebinConfig::make_default_pump(comb.device());
  cfg.num_channel_pairs = 2;
  cfg.fringe_points = 12;
  cfg.seed = 3;
  auto exp = comb.timebin(cfg);
  EXPECT_EQ(via_sweep.find("channels")->array_items()[0],
            exp.run_channel(1).to_json());
}

TEST(ScenarioParity, Type2Car) {
  const Json via_sweep = run_adapter("type2_car", R"({"duration_s": 0.2})");
  core::Type2Config cfg;
  cfg.duration_s = 0.2;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::CrossPolarized);
  auto exp = comb.type2(cfg);
  EXPECT_EQ(*via_sweep.find("car"), exp.run_car_measurement().to_json());
  EXPECT_EQ(via_sweep.find("opo_threshold_w")->number_value(), exp.opo_threshold_w());
}

TEST(ScenarioParity, StabilityComparison) {
  const Json via_sweep = run_adapter(
      "stability_comparison", R"({"observation_days": 0.25, "sample_interval_s": 900.0})");
  core::StabilityConfig cfg;
  cfg.observation_days = 0.25;
  cfg.sample_interval_s = 900.0;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  EXPECT_EQ(via_sweep, comb.stability(cfg).run().to_json());
}

TEST(ScenarioParity, FourPhoton) {
  const std::string params =
      R"({"fringe_points": 6, "fourfold_events_per_point": 30.0, "tomo_shots_per_setting": 40.0})";
  const Json via_sweep = run_adapter("four_photon", params);
  core::FourPhotonConfig cfg;
  cfg.fringe_points = 6;
  cfg.fourfold_events_per_point = 30.0;
  cfg.tomo_shots_per_setting = 40.0;
  auto comb =
      QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulseFourMode);
  EXPECT_EQ(via_sweep, comb.four_photon(cfg).run().to_json());
}

TEST(ScenarioParity, QkdNetwork) {
  const Json via_sweep = run_adapter(
      "qkd_network",
      R"({"num_users": 4, "max_distance_km": 20.0, "duration_s": 0.05, "stream_window_s": 0.025})");
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::DoublePulse);
  auto exp = comb.timebin_default();
  auto cfg = core::QkdNetworkConfig::uniform(4, 20.0);
  cfg.stream_window_s = 0.025;
  const core::QkdNetwork network(exp, cfg);
  EXPECT_EQ(via_sweep, threaded([&] { return network.run(0.05); }).to_json());
}

TEST(ScenarioParity, QuditSource) {
  const Json via_sweep = run_adapter("qudit_source", R"({"dimension": 4})");
  core::HeraldedConfig cfg;
  cfg.num_channel_pairs = 4;
  auto comb = QuantumFrequencyComb::for_configuration(PumpConfiguration::SelfLockedCw);
  auto exp = comb.heralded(cfg);
  const auto source = qudit::FreqBinSource::from_cw_source(exp.source(), 4);
  EXPECT_EQ(via_sweep.find("schmidt_number")->number_value(), source.schmidt_number());
  EXPECT_EQ(via_sweep.find("flattening_efficiency")->number_value(),
            source.shaping_efficiency(source.flattening_mask()));
}

// --------------------------------------------- façade config validation

TEST(FacadeConfigs, ValidateNamesTheOffendingField) {
  core::HeraldedConfig heralded;
  heralded.duration_s = -1;
  try {
    heralded.validate();
    FAIL() << "invalid config accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("HeraldedConfig.duration_s"),
              std::string::npos)
        << e.what();
  }
  core::Type2Config type2;
  type2.pump_power_total_w = 0;
  EXPECT_THROW(type2.validate(), std::invalid_argument);
  core::FourPhotonConfig four;
  four.pair_b = four.pair_a;
  EXPECT_THROW(four.validate(), std::invalid_argument);
  core::StabilityConfig stability;
  stability.sample_interval_s = 0;
  EXPECT_THROW(stability.validate(), std::invalid_argument);
  qudit::FreqBinConfig qudit_cfg;
  qudit_cfg.dimension = 1;
  EXPECT_THROW(qudit_cfg.validate(), std::invalid_argument);
}

}  // namespace
