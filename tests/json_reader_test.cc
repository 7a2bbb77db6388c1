// The one JSON reader (core/json_util.h): one number grammar, one checked
// integer read and one end-of-document rule, held over every decoder that
// uses them — both spec grammars, the shard manifest, a metrics-shard line
// and a registry snapshot — plus the round trip of everything the writer
// emits.
#include "core/json_util.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "cell/cell_run.h"
#include "core/shard.h"
#include "obs/metrics.h"
#include "svc/run_spec.h"

namespace qoed {
namespace {

namespace fs = std::filesystem;
using core::JsonLiteParser;

// A document every decoder must reject, and the key its error names
// (empty: the decoder reports no key).
struct Bad {
  std::string text;
  std::string key;
};

// `doc` with "@" replaced by each of `values`, all naming `key`.
void add(std::vector<Bad>* out, const std::string& doc, const std::string& key,
         std::initializer_list<const char*> values) {
  const std::size_t at = doc.find('@');
  for (const char* v : values) {
    out->push_back({doc.substr(0, at) + v + doc.substr(at + 1), key});
  }
}

// Not JSON numbers at all, whatever the target.
constexpr auto kNotNumbers = {"0x10", "+1", ".5", "1.", "01", "1e", "--1",
                              "\"1\""};
// JSON numbers that are not an unsigned integer.
constexpr auto kNotCounts = {"-1", "1.5", "1e300", "1e2", "nan", "inf",
                             "18446744073709551616"};

// A missing comma, a cut and trailing text after a document whose last
// member is `key`.
void add_structure(std::vector<Bad>* out, const std::string& head,
                   const std::string& member, const std::string& key) {
  out->push_back({head + member + " \"x\":1}", key});  // missing comma
  out->push_back({head + member, key});                // cut short
  out->push_back({head + member + "} x", key});        // trailing text
  out->push_back({head + member + "}}", key});
}

void add_all(std::vector<Bad>* out, const std::string& doc,
             const std::string& key) {
  add(out, doc, key, kNotNumbers);
  add(out, doc, key, kNotCounts);
}

TEST(JsonReader, ScenarioSpecRejectsEveryMalformedFormNamingTheKey) {
  std::vector<Bad> bad;
  const std::string head = "{\"scenario\":\"pageload\",";
  for (const char* key : {"pages", "think", "reps", "videos", "throttle",
                          "seed", "fault_seed"}) {
    add_all(&bad, head + "\"" + key + "\":@}", key);
  }
  add(&bad, head + "\"arrival\":@}", "arrival", kNotNumbers);
  add(&bad, head + "\"arrival\":@}", "arrival",
      {"-1", "nan", "-nan", "inf", "-inf", "1e400"});
  add_structure(&bad, head, "\"pages\":9", "pages");
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.text);
    svc::ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(svc::ScenarioSpec::parse_json(b.text, &spec, &error));
    EXPECT_NE(error.find("\"" + b.key + "\""), std::string::npos) << error;
  }
}

TEST(JsonReader, CellSpecRejectsEveryMalformedFormNamingTheKey) {
  std::vector<Bad> bad;
  const std::string head = "{\"devices\":[{\"app\":\"browser\"}],";
  for (const char* key : {"seed", "throttle", "grants", "promo_ms"}) {
    add_all(&bad, head + "\"" + key + "\":@}", key);
  }
  add(&bad, head + "\"grants\":@}", "grants", {"2147483648"});
  add(&bad, head + "\"capacity_kbps\":@}", "capacity_kbps", kNotNumbers);
  add(&bad, head + "\"capacity_kbps\":@}", "capacity_kbps",
      {"-5", "nan", "inf"});
  for (const char* key : {"actions", "think"}) {
    add_all(&bad,
            std::string("{\"devices\":[{\"app\":\"video\",\"") + key +
                "\":@}]}",
            key);
  }
  add(&bad, "{\"devices\":[{\"arrival\":@}]}", "arrival", kNotNumbers);
  add(&bad, "{\"devices\":[{\"arrival\":@}]}", "arrival", {"-1", "nan"});
  add_structure(&bad, head, "\"grants\":2", "grants");
  add(&bad, "{\"devices\":[{\"app\":\"browser\" @}]}", "devices",
      {"\"actions\":1"});
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.text);
    cell::CellScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(cell::CellScenarioSpec::parse_json(b.text, &spec, &error));
    EXPECT_NE(error.find("\"" + b.key + "\""), std::string::npos) << error;
  }
}

// A shard directory holding `manifest` and one metrics shard `line`.
std::string shard_dir(const std::string& name, const std::string& manifest,
                      const std::string& line) {
  const std::string dir = ::testing::TempDir() + "qoed_json_reader_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir + "/MANIFEST.json", std::ios::binary) << manifest;
  std::ofstream(dir + "/metrics-000000.jsonl", std::ios::binary)
      << line << '\n';
  return dir;
}

const std::string kManifest =
    "{\"campaign\":\"c\",\"master_seed\":7,\"runs\":1,\"complete\":true,"
    "\"shards\":[{\"index\":0,\"run_begin\":0,\"run_end\":1}]}";
const std::string kRegistry =
    "{\"counters\":{\"c\":1},\"gauges\":{\"g\":2},\"histograms\":{\"h\":"
    "{\"bounds\":[1,2],\"counts\":[0,1,0],\"count\":1,\"sum\":-3}}}";
const std::string kMetricsLine =
    "{\"run\":0,\"attempts\":1,\"resched\":0,\"seed\":5,\"ok\":true,"
    "\"error\":\"\",\"virtual_s\":1.5,\"samples\":{\"latency_s\":[1.5,nan]},"
    "\"registry\":" + kRegistry + "}";

// `doc` with the first `member` value replaced by "@".
std::string hole(const std::string& doc, const std::string& member) {
  const std::size_t at = doc.find(member);
  const std::size_t from = at + member.size();
  const std::size_t to = doc.find_first_of(",}]", from);
  return doc.substr(0, from) + "@" + doc.substr(to);
}

TEST(JsonReader, ManifestRejectsEveryMalformedForm) {
  {
    const std::string dir = shard_dir("manifest_ok", kManifest, kMetricsLine);
    core::ShardManifest manifest;
    std::string error;
    ASSERT_TRUE(core::read_shard_manifest(dir, &manifest, &error)) << error;
    EXPECT_EQ(manifest.master_seed, 7u);
    EXPECT_EQ(manifest.committed(), 1u);
  }
  std::vector<Bad> bad;
  for (const char* member : {"\"master_seed\":", "\"runs\":", "\"index\":",
                             "\"run_end\":"}) {
    add_all(&bad, hole(kManifest, member), "");
  }
  add_structure(&bad, kManifest.substr(0, kManifest.size() - 1), "", "");
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.text);
    const std::string dir = shard_dir("manifest", b.text, kMetricsLine);
    core::ShardManifest manifest;
    EXPECT_FALSE(core::read_shard_manifest(dir, &manifest));
  }
}

TEST(JsonReader, MetricsLineRejectsEveryMalformedForm) {
  {
    const std::string dir = shard_dir("line_ok", kManifest, kMetricsLine);
    std::map<std::string, core::RunOutcomeCounts> outcomes;
    std::string error;
    ASSERT_TRUE(core::read_run_outcomes(dir, &outcomes, &error)) << error;
  }
  std::vector<Bad> bad;
  for (const char* member : {"\"run\":", "\"attempts\":", "\"resched\":",
                             "\"seed\":", "\"count\":"}) {
    add_all(&bad, hole(kMetricsLine, member), "");
  }
  add(&bad, hole(kMetricsLine, "\"virtual_s\":"), "", kNotNumbers);
  // A run index outside the runs its shard lists.
  add(&bad, hole(kMetricsLine, "\"run\":"), "", {"1", "18446744073709551615"});
  add_structure(&bad, kMetricsLine.substr(0, kMetricsLine.size() - 1), "",
                "");
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.text);
    const std::string dir = shard_dir("line", kManifest, b.text);
    std::map<std::string, core::RunOutcomeCounts> outcomes;
    EXPECT_FALSE(core::read_run_outcomes(dir, &outcomes));
  }
}

TEST(JsonReader, RegistrySnapshotRejectsEveryMalformedForm) {
  {
    obs::MetricsRegistry reg;
    std::string error;
    ASSERT_TRUE(reg.merge_from_json(kRegistry, &error)) << error;
    // Integers are read exactly: a histogram sum past 2^53 keeps its units.
    obs::MetricsRegistry exact;
    const std::string big = "{\"histograms\":{\"h\":{\"bounds\":[1],"
                            "\"counts\":[0,1],\"count\":1,"
                            "\"sum\":9007199254740993}}}";
    ASSERT_TRUE(exact.merge_from_json(big, &error)) << error;
    EXPECT_EQ(exact.find_histogram("h")->sum, 9007199254740993);
  }
  std::vector<Bad> bad;
  for (const char* member : {"\"counts\":[0,", "\"count\":"}) {
    add_all(&bad, hole(kRegistry, member), "");
  }
  for (const char* member : {"\"bounds\":[", "\"sum\":"}) {
    add(&bad, hole(kRegistry, member), "", kNotNumbers);
    add(&bad, hole(kRegistry, member), "", {"1.5", "1e300", "nan"});
  }
  add(&bad, hole(kRegistry, "\"c\":"), "", kNotNumbers);
  add_structure(&bad, kRegistry.substr(0, kRegistry.size() - 1), "", "");
  for (const Bad& b : bad) {
    SCOPED_TRACE(b.text);
    obs::MetricsRegistry reg;
    EXPECT_FALSE(reg.merge_from_json(b.text));
  }
}

// Every double the writer emits reads back bit-identical, the non-finite
// spellings included, and a number read consumes nothing on a mismatch.
TEST(JsonReader, EveryWrittenDoubleReadsBackBitIdentical) {
  using L = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, L::denorm_min(), -L::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x000fffffffffffff}),  // max subnormal
      L::min(), L::max(), -L::max(), L::epsilon(),
      // %g switches between fixed and exponent form at 1e-4 and 1e17.
      9.9999999999999991e-05, 1e-4, 99999999999999984.0, 1e17, 1e16, 1e-5,
      12345678901234567.0,
      0.1, 1.0 / 3, 86399.999999, L::quiet_NaN(), -L::quiet_NaN(),
      L::infinity(), -L::infinity()};
  std::mt19937_64 gen(20);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::bit_cast<double>(gen());
    if (!std::isnan(v)) values.push_back(v);
  }
  for (const double v : values) {
    std::string text;
    core::append_json_number(text, v);
    SCOPED_TRACE(text);
    JsonLiteParser p(text);
    double back = 0;
    ASSERT_TRUE(p.read_number(&back));
    EXPECT_TRUE(p.at_end());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v));
  }

  JsonLiteParser p("[\"x\",1.5,-2,true]");
  ASSERT_TRUE(p.enter_array());
  double d = 0;
  std::int64_t n = 0;
  std::string s;
  ASSERT_TRUE(p.array_next());
  EXPECT_FALSE(p.read_number(&d));
  EXPECT_FALSE(p.read_number(&n));
  ASSERT_TRUE(p.read_string(&s));
  ASSERT_TRUE(p.array_next());
  EXPECT_FALSE(p.read_number(&n));
  ASSERT_TRUE(p.read_number(&d));
  EXPECT_EQ(d, 1.5);
  ASSERT_TRUE(p.array_next());
  std::uint64_t u = 0;
  EXPECT_FALSE(p.read_number(&u));
  ASSERT_TRUE(p.read_number(&n));
  EXPECT_EQ(n, -2);
  ASSERT_TRUE(p.array_next());
  EXPECT_TRUE(p.skip_value());
  EXPECT_FALSE(p.array_next());
  EXPECT_TRUE(p.at_end());
}

// A flag's number is exactly one JSON number.
TEST(JsonReader, FlagNumbersAreWrittenTheWayJsonWritesThem) {
  std::uint64_t u = 0;
  EXPECT_TRUE(core::parse_json_number("0", &u));
  EXPECT_TRUE(core::parse_json_number("18446744073709551615", &u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  for (const char* text : {"", " 1", "1 ", "007", "+1", ".5", "1.", "0x10",
                           "1e3", "-1", "-0", "18446744073709551616", "4MiB"}) {
    EXPECT_FALSE(core::parse_json_number(text, &u)) << text;
  }
  double d = 0;
  for (const char* text : {"2.5", "1e3", "-0.5", "0"}) {
    EXPECT_TRUE(core::parse_json_number(text, &d)) << text;
  }
  for (const char* text : {"", ".5", "1.", "nan", "inf", "1e400", "2.5x"}) {
    EXPECT_FALSE(core::parse_json_number(text, &d)) << text;
  }
}

// Seeded random specs of both kinds parse back to themselves, field for
// field, with 64-bit seeds at both ends and arrivals from 0 through the
// subnormals.
TEST(JsonReader, SpecsRoundTripFieldForField) {
  std::mt19937_64 gen(7);
  const auto pick = [&gen](std::initializer_list<const char*> of) {
    return std::string(of.begin()[gen() % of.size()]);
  };
  const auto count = [&gen] {
    const long top[] = {0, 1, std::numeric_limits<long>::max()};
    return gen() % 4 == 0 ? top[gen() % 3]
                          : static_cast<long>(gen() % 100000);
  };
  const auto seed = [&gen] {
    const std::uint64_t ends[] = {0, 1, ~std::uint64_t{0}};
    return gen() % 4 == 0 ? ends[gen() % 3] : gen();
  };
  const auto arrival = [&gen] {
    using L = std::numeric_limits<double>;
    const double special[] = {0.0, -0.0, L::denorm_min(),
                              std::bit_cast<double>(
                                  std::uint64_t{0x000fffffffffffff}),
                              L::min(), L::max()};
    return gen() % 3 == 0 ? special[gen() % 6]
                          : std::ldexp(static_cast<double>(gen() >> 11),
                                       -static_cast<int>(gen() % 80));
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int i = 0; i < 500; ++i) {
    svc::ScenarioSpec s;
    s.scenario = pick({"pageload", "post", "video"});
    s.network = pick({"wifi", "3g", "3g-simplified", "lte"});
    s.seed = seed();
    s.pages = count();
    s.think_s = count();
    s.kind = pick({"status", "checkin", "photos"});
    s.reps = count();
    s.videos = count();
    s.throttle_kbps = count();
    s.mechanism = pick({"shaping", "policing"});
    s.arrival_s = arrival();
    s.fault_plan = pick({"", "packet:drop=0.02"});
    s.fault_seed = seed();
    s.policy = pick({"", "on window.latency_s>4: extend 10s"});
    svc::ScenarioSpec back;
    std::string error;
    ASSERT_TRUE(svc::ScenarioSpec::parse_json(s.to_json(), &back, &error))
        << s.to_json() << ": " << error;
    SCOPED_TRACE(s.to_json());
    EXPECT_EQ(back.scenario, s.scenario);
    EXPECT_EQ(back.network, s.network);
    EXPECT_EQ(back.seed, s.seed);
    EXPECT_EQ(back.pages, s.pages);
    EXPECT_EQ(back.think_s, s.think_s);
    EXPECT_EQ(back.kind, s.kind);
    EXPECT_EQ(back.reps, s.reps);
    EXPECT_EQ(back.videos, s.videos);
    EXPECT_EQ(back.throttle_kbps, s.throttle_kbps);
    EXPECT_EQ(back.mechanism, s.mechanism);
    EXPECT_EQ(bits(back.arrival_s), bits(s.arrival_s));
    EXPECT_EQ(back.fault_plan, s.fault_plan);
    EXPECT_EQ(back.fault_seed, s.fault_seed);
    EXPECT_EQ(back.policy, s.policy);

    cell::CellScenarioSpec c;
    c.network = pick({"3g", "3g-simplified", "lte"});
    c.seed = seed();
    c.use_cell = gen() % 2 == 0;
    c.capacity_kbps = arrival();
    c.throttle_kbps = count();
    c.mechanism = pick({"shaping", "policing"});
    c.max_active_grants = gen() % 4 == 0 ? std::numeric_limits<int>::max()
                                         : static_cast<int>(gen() % 64);
    c.promotion_penalty_ms = count();
    c.devices.resize(1 + gen() % 4);
    for (cell::CellDeviceSpec& d : c.devices) {
      d.app = pick({"browser", "social", "video"});
      d.arrival_s = arrival();
      d.actions = count();
      d.think_s = count();
    }
    cell::CellScenarioSpec cback;
    ASSERT_TRUE(cell::CellScenarioSpec::parse_json(c.to_json(), &cback, &error))
        << c.to_json() << ": " << error;
    EXPECT_EQ(cback.network, c.network);
    EXPECT_EQ(cback.seed, c.seed);
    EXPECT_EQ(cback.use_cell, c.use_cell);
    EXPECT_EQ(bits(cback.capacity_kbps), bits(c.capacity_kbps));
    EXPECT_EQ(cback.throttle_kbps, c.throttle_kbps);
    EXPECT_EQ(cback.mechanism, c.mechanism);
    EXPECT_EQ(cback.max_active_grants, c.max_active_grants);
    EXPECT_EQ(cback.promotion_penalty_ms, c.promotion_penalty_ms);
    ASSERT_EQ(cback.devices.size(), c.devices.size());
    for (std::size_t k = 0; k < c.devices.size(); ++k) {
      EXPECT_EQ(cback.devices[k].app, c.devices[k].app);
      EXPECT_EQ(bits(cback.devices[k].arrival_s), bits(c.devices[k].arrival_s));
      EXPECT_EQ(cback.devices[k].actions, c.devices[k].actions);
      EXPECT_EQ(cback.devices[k].think_s, c.devices[k].think_s);
    }
  }
}

}  // namespace
}  // namespace qoed
