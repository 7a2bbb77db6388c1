// Tests of core::merge_timelines and core::merge_sorted_timeline_streams:
// the (t, device, seq) interleaving order, the device stamp, the key each
// line is read by (the canonical-prefix read held to the substring scan),
// the input-order determinism guarantee, and both merges held to a
// reference global stable sort.
#include "core/timeline_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <tuple>
#include <vector>

#include "apps/social_server.h"
#include "core/export_sink.h"
#include "core/json_util.h"
#include "core/qoe_doctor.h"
#include "sim/rng.h"

namespace qoed::core {
namespace {

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(TimelineMergeTest, InterleavesByTimestampAndStampsDevice) {
  const DeviceTimeline a{
      "phone-a",
      "{\"t\":1,\"seq\":0,\"layer\":\"ui\"}\n"
      "{\"t\":3,\"seq\":1,\"layer\":\"packet\"}\n"};
  const DeviceTimeline b{"phone-b", "{\"t\":2,\"seq\":0,\"layer\":\"radio\"}\n"};
  const auto merged = lines_of(merge_timelines({a, b}));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0],
            "{\"device\":\"phone-a\",\"t\":1,\"seq\":0,\"layer\":\"ui\"}");
  EXPECT_EQ(merged[1],
            "{\"device\":\"phone-b\",\"t\":2,\"seq\":0,\"layer\":\"radio\"}");
  EXPECT_EQ(merged[2],
            "{\"device\":\"phone-a\",\"t\":3,\"seq\":1,\"layer\":\"packet\"}");
}

TEST(TimelineMergeTest, TimestampTiesBreakByDeviceThenSeq) {
  // Both devices log at t=5; within a device, seq keeps capture order even
  // though the records tie on time.
  const DeviceTimeline b{"b", "{\"t\":5,\"seq\":0,\"k\":\"b0\"}\n"};
  const DeviceTimeline a{
      "a",
      "{\"t\":5,\"seq\":2,\"k\":\"a2\"}\n"
      "{\"t\":5,\"seq\":10,\"k\":\"a10\"}\n"};
  const auto merged = lines_of(merge_timelines({b, a}));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_NE(merged[0].find("\"k\":\"a2\""), std::string::npos);
  EXPECT_NE(merged[1].find("\"k\":\"a10\""), std::string::npos);
  EXPECT_NE(merged[2].find("\"k\":\"b0\""), std::string::npos);
}

TEST(TimelineMergeTest, EmptyAndBlankInputsAreDropped) {
  const DeviceTimeline empty{"empty", ""};
  const DeviceTimeline blanks{"blanks", "\n\nnot-json\n"};
  const DeviceTimeline real{"real", "{\"t\":1,\"seq\":0}\n"};
  const auto merged = lines_of(merge_timelines({empty, blanks, real}));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], "{\"device\":\"real\",\"t\":1,\"seq\":0}");
  EXPECT_TRUE(merge_timelines({}).empty());
}

TEST(TimelineMergeTest, MergeIsAPureFunctionOfTheInputSet) {
  // Distinct device labels make (t, device, seq) a total order, so feeding
  // the same timelines in any order yields byte-identical output.
  const DeviceTimeline a{
      "a",
      "{\"t\":0.5,\"seq\":0}\n{\"t\":2,\"seq\":1}\n{\"t\":2,\"seq\":2}\n"};
  const DeviceTimeline b{"b", "{\"t\":0.5,\"seq\":0}\n{\"t\":1.75,\"seq\":1}\n"};
  const DeviceTimeline c{"c", "{\"t\":2,\"seq\":0}\n"};
  const std::string abc = merge_timelines({a, b, c});
  EXPECT_EQ(abc, merge_timelines({c, b, a}));
  EXPECT_EQ(abc, merge_timelines({b, a, c}));
}

// End-to-end: merge two real spine exports and check the result is globally
// time-ordered with every line stamped.
TEST(TimelineMergeTest, MergesRealSpineExports) {
  auto capture = [](std::uint64_t seed) {
    Testbed bed(seed);
    apps::SocialServer server(bed.network(), bed.next_server_ip());
    auto dev = bed.make_device("phone");
    dev->attach_cellular(radio::CellularConfig::umts());
    apps::SocialApp app(*dev);
    app.launch();
    QoeDoctor doctor(*dev, app);
    FacebookDriver driver(doctor.controller(), app);
    app.login("dana");
    bed.advance(sim::sec(10));
    driver.upload_post(apps::PostKind::kStatus, [](const BehaviorRecord&) {});
    bed.advance(sim::sec(20));
    return TimelineJsonlSink(doctor.collector()).to_string();
  };
  const DeviceTimeline d1{"phone-1", capture(3)};
  const DeviceTimeline d2{"phone-2", capture(4)};
  const auto merged = lines_of(merge_timelines({d1, d2}));
  ASSERT_EQ(merged.size(),
            lines_of(d1.jsonl).size() + lines_of(d2.jsonl).size());

  double last_t = -1;
  std::size_t stamped = 0;
  for (const std::string& line : merged) {
    ASSERT_EQ(line.rfind("{\"device\":\"phone-", 0), 0u);
    ++stamped;
    const auto tpos = line.find("\"t\":");
    ASSERT_NE(tpos, std::string::npos);
    const double t = std::strtod(line.c_str() + tpos + 4, nullptr);
    EXPECT_GE(t, last_t);
    last_t = t;
  }
  EXPECT_EQ(stamped, merged.size());
}

// --- corrupted-input robustness (merge_timelines_checked) ---

TEST(TimelineMergeCheckedTest, QuarantinesCorruptedLinesWithCounts) {
  // A fixture shaped like a crash-truncated + bit-flipped export: a good
  // line, a line cut mid-object, garbage, a line with no usable timestamp,
  // and a non-finite timestamp.
  const DeviceTimeline bad{
      "bad",
      "{\"t\":1,\"seq\":0,\"layer\":\"ui\"}\n"
      "{\"t\":2,\"seq\":1,\"lay\n"
      "####binary@@@garbage\n"
      "{\"seq\":3,\"layer\":\"packet\"}\n"
      "{\"t\":nan,\"seq\":4}\n"
      "{\"t\":5,\"seq\":5,\"layer\":\"radio\"}\n"};
  const DeviceTimeline good{"good", "{\"t\":3,\"seq\":0}\n"};

  const TimelineMergeResult result = merge_timelines_checked({bad, good});
  ASSERT_EQ(result.inputs.size(), 2u);
  EXPECT_EQ(result.inputs[0].device, "bad");
  EXPECT_EQ(result.inputs[0].lines, 6u);
  EXPECT_EQ(result.inputs[0].malformed, 4u);
  EXPECT_EQ(result.inputs[1].malformed, 0u);
  EXPECT_EQ(result.total_malformed(), 4u);

  // Only the well-formed lines survive, still globally ordered.
  const auto merged = lines_of(result.jsonl);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_NE(merged[0].find("\"t\":1"), std::string::npos);
  EXPECT_NE(merged[1].find("\"device\":\"good\""), std::string::npos);
  EXPECT_NE(merged[2].find("\"t\":5"), std::string::npos);
}

TEST(TimelineMergeCheckedTest, CountsOutOfOrderTimestampsButStillMerges) {
  const DeviceTimeline shuffled{
      "shuffled",
      "{\"t\":2,\"seq\":0}\n"
      "{\"t\":1,\"seq\":1}\n"   // behind the previous good line
      "{\"t\":3,\"seq\":2}\n"
      "{\"t\":0.5,\"seq\":3}\n"};
  const TimelineMergeResult result = merge_timelines_checked({shuffled});
  ASSERT_EQ(result.inputs.size(), 1u);
  EXPECT_EQ(result.inputs[0].malformed, 0u);
  EXPECT_EQ(result.inputs[0].out_of_order, 2u);
  // All four lines merge — the sort repairs the order.
  const auto merged = lines_of(result.jsonl);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_NE(merged[0].find("\"t\":0.5"), std::string::npos);
  EXPECT_NE(merged[3].find("\"t\":3"), std::string::npos);
}

TEST(TimelineMergeCheckedTest, BlankLinesAreNotCountedAsCorruption) {
  const TimelineMergeResult result =
      merge_timelines_checked({{"d", "\n\n{\"t\":1,\"seq\":0}\n\n"}});
  EXPECT_EQ(result.inputs[0].lines, 1u);
  EXPECT_EQ(result.inputs[0].malformed, 0u);
  EXPECT_EQ(lines_of(result.jsonl).size(), 1u);
}

TEST(TimelineMergeCheckedTest, PlainWrapperMatchesCheckedJsonl) {
  const DeviceTimeline a{"a", "{\"t\":1,\"seq\":0}\nnot-json\n"};
  const DeviceTimeline b{"b", "{\"t\":0.5,\"seq\":0}\n"};
  EXPECT_EQ(merge_timelines({a, b}), merge_timelines_checked({a, b}).jsonl);
}

TEST(TimelineMergeCheckedTest, NegativeOrHugeSeqOrdersAsZero) {
  // seq is read as an unsigned 64-bit integer; anything else (negative,
  // exponent form, missing) orders as 0, ties then keep input order.
  const DeviceTimeline d{
      "d",
      "{\"t\":1,\"seq\":3,\"k\":\"a\"}\n"
      "{\"t\":1,\"seq\":-1,\"k\":\"b\"}\n"
      "{\"t\":1,\"seq\":1e300,\"k\":\"c\"}\n"
      "{\"t\":1,\"k\":\"d\"}\n"
      "{\"t\":1,\"seq\":2,\"k\":\"e\"}\n"};
  const TimelineMergeResult result = merge_timelines_checked({d});
  EXPECT_EQ(result.inputs[0].malformed, 0u);
  const auto merged = lines_of(result.jsonl);
  ASSERT_EQ(merged.size(), 5u);
  const char* order[] = {"b", "c", "d", "e", "a"};
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_NE(merged[i].find(std::string("\"k\":\"") + order[i] + '"'),
              std::string::npos)
        << i << ": " << merged[i];
  }
}

TEST(TimelineMergeCheckedTest, TimestampMustBeACompleteJsonNumber) {
  // strtod would read "+1" as 1, "0x10" as 16 and "2.5x" as 2.5; none is a
  // JSON number, so each line is quarantined.
  const DeviceTimeline d{
      "d",
      "{\"t\":+1,\"seq\":0}\n"
      "{\"t\":0x10,\"seq\":1}\n"
      "{\"t\":2.5x,\"seq\":2}\n"
      "{\"t\":3,\"seq\":3}\n"
      "{\"t\": 4e0 ,\"seq\":4}\n"};
  const TimelineMergeResult result = merge_timelines_checked({d});
  EXPECT_EQ(result.inputs[0].malformed, 3u);
  EXPECT_EQ(result.jsonl,
            "{\"device\":\"d\",\"t\":3,\"seq\":3}\n"
            "{\"device\":\"d\",\"t\": 4e0 ,\"seq\":4}\n");
}

// --- external k-way merge (merge_sorted_timeline_streams) ---

std::string stream_merge(const std::vector<std::string>& streams,
                         std::size_t* written = nullptr) {
  std::vector<std::istringstream> ins;
  ins.reserve(streams.size());
  std::vector<std::istream*> ptrs;
  for (const std::string& s : streams) {
    ins.emplace_back(s);
    ptrs.push_back(&ins.back());
  }
  std::ostringstream out;
  const std::size_t n = merge_sorted_timeline_streams(ptrs, out);
  if (written != nullptr) *written = n;
  return out.str();
}

TEST(TimelineStreamMergeTest, KWayMergeOfStampedShardsEqualsOneGlobalMerge) {
  // Twelve runs with timestamp ties inside and across runs, so "run-10"
  // sorting before "run-2" and seq both decide places. Each shard is the
  // stamped merge of a contiguous run range, as the shard close writes it.
  std::vector<DeviceTimeline> runs;
  for (int r = 0; r < 12; ++r) {
    std::ostringstream os;
    for (int seq = 0; seq < 9; ++seq) {
      os << "{\"t\":" << (seq / 3) * 0.5 + (r % 4) * 0.25 << ",\"seq\":" << seq
         << ",\"layer\":\"packet\",\"len\":" << 40 + r * 9 + seq << "}\n";
    }
    runs.push_back({"run-" + std::to_string(r), os.str()});
  }
  std::vector<std::string> shards;
  for (std::size_t begin = 0; begin < runs.size(); begin += 5) {
    const std::size_t end = std::min(begin + 5, runs.size());
    shards.push_back(merge_timelines(
        std::vector<DeviceTimeline>(runs.begin() + begin, runs.begin() + end)));
  }
  std::size_t written = 0;
  const std::string merged = stream_merge(shards, &written);
  EXPECT_EQ(merged, merge_timelines(runs));
  EXPECT_EQ(written, 12u * 9u);
}

TEST(TimelineStreamMergeTest, FullKeyTiesBreakByInputOrder) {
  const std::string first = "{\"device\":\"d\",\"t\":1,\"seq\":0,\"k\":1}\n";
  const std::string second = "{\"device\":\"d\",\"t\":1,\"seq\":0,\"k\":2}\n";
  EXPECT_EQ(stream_merge({first, second}), first + second);
  EXPECT_EQ(stream_merge({second, first}), second + first);
}

TEST(TimelineStreamMergeTest, LinesWithoutFiniteTOrDeviceStringAreDropped) {
  const std::string in =
      "{\"device\":\"d\",\"t\":1,\"seq\":0}\n"
      "{\"device\":\"d\",\"seq\":1}\n"
      "{\"device\":\"d\",\"t\":nan,\"seq\":2}\n"
      "{\"device\":\"d\",\"t\":1e999,\"seq\":3}\n"
      "{\"device\":\"d\",\"t\":\"2\",\"seq\":4}\n"
      "{\"t\":2,\"seq\":5}\n"
      "{\"device\":7,\"t\":2,\"seq\":6}\n"
      "{\"t\":2,\"seq\":7,\"device\":\"unterminated}\n"
      "not json\n"
      "\n"
      "{\"device\":\"d\",\"t\":3,\"seq\":8}\n";
  std::size_t written = 0;
  EXPECT_EQ(stream_merge({in}, &written),
            "{\"device\":\"d\",\"t\":1,\"seq\":0}\n"
            "{\"device\":\"d\",\"t\":3,\"seq\":8}\n");
  EXPECT_EQ(written, 2u);
}

TEST(TimelineStreamMergeTest, EscapedDeviceLabelSortsByDecodedValue) {
  // Decoded, dev"1 sorts before dev# ('"' < '#'); the raw text dev\"1 would
  // sort after it ('\\' > '#'). The line itself passes through unchanged.
  const std::string quoted =
      "{\"device\":\"dev\\\"1\",\"t\":1,\"seq\":0}\n";
  const std::string hash = "{\"device\":\"dev#\",\"t\":1,\"seq\":0}\n";
  EXPECT_EQ(stream_merge({hash, quoted}), quoted + hash);
  // The same order as the in-memory merge, which stamps the escaped label.
  EXPECT_EQ(stream_merge({hash, quoted}),
            merge_timelines({{"dev#", "{\"t\":1,\"seq\":0}\n"},
                             {"dev\"1", "{\"t\":1,\"seq\":0}\n"}}));
}

TEST(TimelineStreamMergeTest, CellLineWithTwoDeviceMembersIsKeyedOnTheFirst) {
  // A cell campaign's shard lines carry the run stamp and then the cell
  // member's own label; the run stamp decides, so run-0 leads although its
  // member label dev-0009 sorts after dev-0000.
  const std::string run1 =
      "{\"device\":\"run-1\",\"device\":\"dev-0000\",\"t\":1,\"seq\":0}\n";
  const std::string run0 =
      "{\"device\":\"run-0\",\"device\":\"dev-0009\",\"t\":1,\"seq\":7}\n";
  EXPECT_EQ(stream_merge({run1, run0}), run0 + run1);
}

TEST(TimelineStreamMergeTest, NegativeOrHugeSeqOrdersAsZero) {
  const std::string in_a =
      "{\"device\":\"d\",\"t\":1,\"seq\":3,\"k\":\"a\"}\n";
  const std::string in_b =
      "{\"device\":\"d\",\"t\":1,\"seq\":-1,\"k\":\"b\"}\n";
  const std::string in_c =
      "{\"device\":\"d\",\"t\":1,\"seq\":1e300,\"k\":\"c\"}\n";
  EXPECT_EQ(stream_merge({in_a, in_b, in_c}), in_b + in_c + in_a);
}

TEST(TimelineStreamMergeTest, TimestampMustBeACompleteJsonNumber) {
  const std::string in =
      "{\"device\":\"d\",\"t\":+1,\"seq\":0}\n"
      "{\"device\":\"d\",\"t\":0x10,\"seq\":1}\n"
      "{\"device\":\"d\",\"t\":2,\"seq\":2}\n";
  EXPECT_EQ(stream_merge({in}), "{\"device\":\"d\",\"t\":2,\"seq\":2}\n");
}

// --- the merge key: canonical prefix against the substring scan ---

// Both reads of one line agree: the same verdict and, for a usable line,
// bit-identical t, the same seq and the same device.
void expect_same_key(const std::string& line, bool with_device) {
  std::string scan_decoded, read_decoded;
  TimelineKey scan, read;
  const bool scan_ok =
      scan_timeline_key(line, with_device, &scan_decoded, &scan);
  const bool read_ok =
      read_timeline_key(line, with_device, &read_decoded, &read);
  ASSERT_EQ(scan_ok, read_ok) << line;
  if (!scan_ok) return;
  EXPECT_EQ(std::memcmp(&scan.t, &read.t, sizeof(double)), 0) << line;
  EXPECT_EQ(scan.seq, read.seq) << line;
  EXPECT_EQ(scan.device, read.device) << line;
}

// A label the prefix read takes: no '"' and no '\'.
std::string plain_label(sim::Rng& rng) {
  static constexpr std::string_view kChars = "abt:seqdvice-_ ,{}0123456789";
  std::string label;
  const auto n = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    label += kChars[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kChars.size()) - 1))];
  }
  return label;
}

// A line in the writers' shape: `{`, 0-2 "device" members, "t", "seq",
// then payload members.
std::string canonical_line(sim::Rng& rng, int devices) {
  std::string line = "{";
  for (int d = 0; d < devices; ++d) {
    line += "\"device\":\"" + plain_label(rng) + "\",";
  }
  line += "\"t\":";
  switch (rng.uniform_int(0, 3)) {
    case 0:
      line += std::to_string(rng.uniform_int(0, 1000));
      break;
    case 1:
      append_json_number(line, rng.uniform(-5, 500));
      break;
    case 2: {
      const auto exp = static_cast<int>(rng.uniform_int(-60, 60));
      append_json_number(line, std::ldexp(rng.uniform(), exp));
      break;
    }
    default:
      line += "1.5e" + std::to_string(rng.uniform_int(-300, 300));
  }
  line += ",\"seq\":";
  line += std::to_string(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))
                         << rng.uniform_int(0, 33));
  line += ",\"layer\":\"packet\",\"len\":" +
          std::to_string(rng.uniform_int(40, 1500)) + "}";
  return line;
}

TEST(TimelineKeyTest, PrefixReadEqualsTheScanOnCanonicalLines) {
  sim::Rng rng(2014);
  for (int i = 0; i < 3000; ++i) {
    const int devices = static_cast<int>(rng.uniform_int(0, 2));
    const std::string line = canonical_line(rng, devices);
    TimelineKey key;
    // The shape is what the prefix read takes: every canonical line is
    // keyed without the scan (with_device also needs a "device" member).
    EXPECT_TRUE(prefix_timeline_key(line, false, &key)) << line;
    EXPECT_EQ(prefix_timeline_key(line, true, &key), devices > 0) << line;
    expect_same_key(line, false);
    expect_same_key(line, true);
  }
}

TEST(TimelineKeyTest, PrefixReadEqualsTheScanOnAdversarialLines) {
  const std::vector<std::string> lines = {
      // Escaped labels: decoded by the scan, never read as a prefix.
      R"({"device":"a\"b","t":1,"seq":2})",
      R"({"device":"a\\","t":1,"seq":2})",
      R"({"device":"run-1","device":"dev\u0001","t":1,"seq":2})",
      // "t": inside an earlier key or string value.
      R"({"x\"t\":9":1,"t":2,"seq":3})",
      R"({"note":"\"t\":7","t":2,"seq":3})",
      R"({"device":"\"t\":5","t":2,"seq":3})",
      R"({"tt":5,"t":2,"seq":3})",
      R"({"device":"t","t":2,"seq":3})",
      R"({"device":"seq","t":2,"seq":3})",
      // Whitespace before or after a colon, or after the brace.
      R"({"t" :1,"seq":2})",
      R"({"t": 1,"seq":2})",
      R"({ "t":1,"seq":2})",
      R"({"device" :"d","t":1,"seq":2})",
      R"({"t":1 ,"seq":2})",
      // A nested object or another member first.
      R"({"obj":{"t":5,"seq":6},"t":1,"seq":2})",
      R"({"layer":"ui","t":1,"seq":2})",
      // A second "device" member; the first decides.
      R"({"device":"run-2","device":"dev-0009","t":1,"seq":7})",
      R"({"device":"b","t":1,"seq":2,"device":"a"})",
      R"({"t":1,"seq":2,"device":"late"})",
      // Missing, negative, fractional, huge or quoted seq.
      R"({"t":1})",
      R"({"t":1,"layer":"ui"})",
      R"({"t":1,"seq":-1})",
      R"({"t":1,"seq":1.5})",
      R"({"t":1,"seq":1e3})",
      R"({"t":1,"seq":18446744073709551616})",
      R"({"t":1,"seq":"4"})",
      R"({"t":1,"seq":})",
      R"({"t":1,"seq":2,"seq":3})",
      // t that is not a complete JSON number, or out of range.
      R"({"t":+1,"seq":2})",
      R"({"t":01,"seq":2})",
      R"({"t":1e400,"seq":2})",
      R"({"t":-1e400,"seq":2})",
      R"({"t":1e-400,"seq":2})",
      R"({"t":nan,"seq":2})",
      R"({"t":.5,"seq":2})",
      R"({"t":1.,"seq":2})",
      R"({"t":0x10,"seq":2})",
      R"({"t":"1","seq":2})",
      R"({"t":1,"t":2,"seq":3})",
      R"({"t":-0,"seq":0})",
      R"({"t":1})",
      // Cut short, or not an object.
      R"({"device":"d)",
      R"({"device":"d",)",
      R"({"device":"d","t":)",
      R"({"device":"d","t":1,"seq":)",
      R"({"t":1,"seq":2)",
      R"("t":1,"seq":2})",
      R"([{"t":1,"seq":2}])",
      "",
      "{",
  };
  std::size_t prefix_read = 0;
  for (const std::string& line : lines) {
    expect_same_key(line, false);
    expect_same_key(line, true);
    TimelineKey key;
    prefix_read += prefix_timeline_key(line, false, &key) ? 1 : 0;
  }
  // Both paths ran: some lines were keyed from their prefix, most not.
  EXPECT_GT(prefix_read, 5u);
  EXPECT_LT(prefix_read, lines.size() / 2);
}

TEST(TimelineKeyTest, PrefixReadEqualsTheScanOnMutatedLines) {
  // Seeded byte mutations of canonical lines: whatever the prefix read
  // takes, it must key as the scan does.
  static constexpr std::string_view kBytes = "\"\\{}:, -+.e0149tsqdv";
  sim::Rng rng(4242);
  for (int i = 0; i < 20000; ++i) {
    std::string line =
        canonical_line(rng, static_cast<int>(rng.uniform_int(0, 2)));
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits && !line.empty(); ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      const char c = kBytes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kBytes.size()) - 1))];
      switch (rng.uniform_int(0, 2)) {
        case 0: line[at] = c; break;
        case 1: line.insert(at, 1, c); break;
        default: line.erase(at, 1);
      }
    }
    expect_same_key(line, false);
    expect_same_key(line, true);
  }
}

// --- merge_timelines_checked against a reference global stable sort ---

// Equal texts; on a mismatch reports the first differing line rather than
// both texts (gtest's line diff of megabyte strings does not fit memory).
void expect_same_text(const std::string& got, const std::string& want) {
  if (got == want) return;
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin(),
                                  want.end());
  const std::size_t at = static_cast<std::size_t>(diff.first - got.begin());
  const std::size_t line = got.rfind('\n', at == 0 ? 0 : at - 1);
  const std::size_t from = line == std::string::npos ? 0 : line + 1;
  ADD_FAILURE() << "sizes " << got.size() << " vs " << want.size()
                << ", first difference at byte " << at << ":\n  got  "
                << got.substr(from, 200) << "\n  want "
                << want.substr(from, 200);
}

// The checked merge by its definition: every usable line of every input,
// keyed by the scan, one global stable sort by (t, label, seq) over the
// lines in input order, each line stamped; stats per the quarantine rules.
TimelineMergeResult reference_checked_merge(
    const std::vector<DeviceTimeline>& inputs) {
  struct Line {
    double t;
    std::string_view label;
    std::uint64_t seq;
    std::size_t input;
    std::string_view body;
  };
  std::vector<Line> all;
  TimelineMergeResult result;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    TimelineMergeStats stats;
    stats.device = inputs[i].device;
    double prev_t = 0;
    bool have_prev = false;
    std::string_view rest = inputs[i].jsonl;
    while (!rest.empty()) {
      const auto nl = rest.find('\n');
      const std::string_view line = rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view{}
                                          : rest.substr(nl + 1);
      if (line.empty()) continue;
      ++stats.lines;
      TimelineKey key;
      if (line.front() != '{' || line.back() != '}' ||
          !scan_timeline_key(line, false, nullptr, &key)) {
        ++stats.malformed;
        continue;
      }
      if (have_prev && key.t < prev_t) ++stats.out_of_order;
      prev_t = std::max(prev_t, key.t);
      have_prev = true;
      all.push_back({key.t, inputs[i].device, key.seq, i, line.substr(1)});
    }
    result.inputs.push_back(stats);
  }
  std::stable_sort(all.begin(), all.end(), [](const Line& a, const Line& b) {
    return std::tie(a.t, a.label, a.seq) < std::tie(b.t, b.label, b.seq);
  });
  for (const Line& l : all) {
    result.jsonl += "{\"device\":";
    append_json_string(result.jsonl, inputs[l.input].device);
    if (l.body != "}") result.jsonl += ',';
    result.jsonl += l.body;
    result.jsonl += '\n';
  }
  return result;
}

void expect_same_merge(const std::vector<DeviceTimeline>& inputs) {
  const TimelineMergeResult want = reference_checked_merge(inputs);
  const TimelineMergeResult got = merge_timelines_checked(inputs);
  expect_same_text(got.jsonl, want.jsonl);
  ASSERT_EQ(got.inputs.size(), want.inputs.size());
  for (std::size_t i = 0; i < got.inputs.size(); ++i) {
    EXPECT_EQ(got.inputs[i].device, want.inputs[i].device) << i;
    EXPECT_EQ(got.inputs[i].lines, want.inputs[i].lines) << i;
    EXPECT_EQ(got.inputs[i].malformed, want.inputs[i].malformed) << i;
    EXPECT_EQ(got.inputs[i].out_of_order, want.inputs[i].out_of_order) << i;
  }
  // The streamed form writes the same bytes.
  std::ostringstream streamed;
  merge_timelines(inputs, streamed);
  expect_same_text(streamed.str(), want.jsonl);
}

// A run's timeline as the collector writes it: (t, seq) order, with ties
// in t and a few coarse timestamps.
std::string sorted_timeline(sim::Rng& rng, int lines) {
  std::string out;
  double t = rng.uniform(0, 0.5);
  for (int seq = 0; seq < lines; ++seq) {
    if (rng.bernoulli(0.6)) t += std::round(rng.uniform(0, 4)) * 0.125;
    out += "{\"t\":";
    append_json_number(out, t);
    out += ",\"seq\":" + std::to_string(seq) +
           ",\"layer\":\"packet\",\"len\":" +
           std::to_string(rng.uniform_int(40, 1500)) + "}\n";
  }
  return out;
}

TEST(TimelineMergeCheckedTest, EqualsAReferenceGlobalStableSort) {
  sim::Rng rng(77);
  // Sorted run timelines, as at a shard close.
  std::vector<DeviceTimeline> runs;
  for (int r = 0; r < 12; ++r) {
    runs.push_back({"run-" + std::to_string(r),
                    sorted_timeline(rng, static_cast<int>(
                                             rng.uniform_int(0, 400)))});
  }
  expect_same_merge(runs);
  // Cell-shaped inputs: a cell run's merged timeline interleaves its
  // members, so at equal t its member-local seq values go down.
  std::vector<DeviceTimeline> cells;
  for (int c = 0; c < 4; ++c) {
    std::vector<DeviceTimeline> members;
    for (int d = 0; d < 5; ++d) {
      members.push_back({"dev-000" + std::to_string(d),
                         sorted_timeline(rng, 150)});
    }
    cells.push_back({"run-" + std::to_string(c), merge_timelines(members)});
  }
  expect_same_merge(cells);
  // Duplicate labels, an empty input, no input, blank and malformed lines,
  // out-of-order timestamps and full-key ties across inputs.
  std::vector<DeviceTimeline> mixed = {
      {"dup", sorted_timeline(rng, 60)},
      {"empty", ""},
      {"dup", sorted_timeline(rng, 60)},
      {"bad",
       "\n{\"t\":3,\"seq\":1}\nnot-json\n{\"t\":1,\"seq\":0}\n"
       "{\"t\":1,\"seq\":0}\n{\"seq\":4}\n{\"t\":2,\"seq\":-1}\n{}\n"},
      {"a", "{\"t\":1,\"seq\":0}\n{\"t\":1,\"seq\":0}"},
      {"dup", "{\"t\":1,\"seq\":0,\"k\":\"last\"}\n"},
  };
  expect_same_merge(mixed);
  expect_same_merge({});
  expect_same_merge({{"only", ""}});
  // Over 1 MiB of output, so the stream form flushes several chunks.
  std::vector<DeviceTimeline> big;
  for (int r = 0; r < 3; ++r) {
    big.push_back({"run-" + std::to_string(r), sorted_timeline(rng, 9000)});
  }
  expect_same_merge(big);
}

// --- merge_sorted_timeline_streams: blocks, long lines, bad streams ---

// The stream merge by its definition: every line of every input with a
// usable key (scan, with the device), one global stable sort by
// (t, device, seq) over the lines in input order. Inputs are sorted, so
// that is the k-way merge.
std::string reference_stream_merge(const std::vector<std::string>& inputs) {
  struct Line {
    double t;
    std::string device;
    std::uint64_t seq;
    std::string text;
  };
  std::vector<Line> all;
  for (const std::string& input : inputs) {
    std::istringstream is(input);
    std::string line, decoded;
    while (std::getline(is, line)) {
      TimelineKey key;
      if (!line.empty() && scan_timeline_key(line, true, &decoded, &key)) {
        all.push_back({key.t, std::string(key.device), key.seq, line});
      }
    }
  }
  std::stable_sort(all.begin(), all.end(), [](const Line& a, const Line& b) {
    return std::tie(a.t, a.device, a.seq) < std::tie(b.t, b.device, b.seq);
  });
  std::string out;
  for (const Line& l : all) out += l.text + '\n';
  return out;
}

// Serves `text` in small pieces until `fail_at` bytes, then fails the read
// the way a disk error does: the stream goes bad().
class FailingBuf : public std::streambuf {
 public:
  FailingBuf(std::string text, std::size_t fail_at)
      : text_(std::move(text)), fail_at_(fail_at) {}

 protected:
  int_type underflow() override {
    if (pos_ >= fail_at_) throw std::runtime_error("read error");
    const std::size_t n = std::min<std::size_t>(4093, fail_at_ - pos_);
    char* const p = text_.data() + pos_;
    setg(p, p, p + n);
    pos_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  std::string text_;
  std::size_t fail_at_;
  std::size_t pos_ = 0;
};

// A stamped shard of `runs` run timelines, as the shard close writes it.
std::string stamped_shard(sim::Rng& rng, int first_run, int runs, int lines) {
  std::vector<DeviceTimeline> timelines;
  for (int r = first_run; r < first_run + runs; ++r) {
    timelines.push_back({"run-" + std::to_string(r),
                         sorted_timeline(rng, lines)});
  }
  return merge_timelines(timelines);
}

TEST(TimelineStreamMergeTest, BlockReadsEqualAReferenceGlobalStableSort) {
  sim::Rng rng(9);
  std::vector<std::string> shards;
  for (int s = 0; s < 5; ++s) {
    shards.push_back(stamped_shard(rng, 3 * s, 3, 2500));
  }
  // A line longer than the read block, between ordinary lines: a copy of
  // the line before it, padded, so the shard stays sorted.
  std::string& padded = shards[1];
  const std::size_t cut = padded.find('\n', padded.size() / 2) + 1;
  const std::size_t prev = padded.rfind('\n', cut - 2) + 1;
  padded.insert(cut, padded.substr(prev, cut - 2 - prev) + ",\"pad\":\"" +
                         std::string(700000, 'x') + "\"}\n");
  std::reverse(shards.begin(), shards.end());
  // A last line without '\n', blank lines and keyless lines.
  shards[2] += "\n\nnot json\n{\"device\":\"run-99\",\"seq\":1}\n"
               "{\"device\":\"run-99\",\"t\":1e6,\"seq\":2}";
  shards.push_back("");
  shards.push_back("\n\n");
  std::size_t written = 0;
  const std::string merged = stream_merge(shards, &written);
  const std::string want = reference_stream_merge(shards);
  expect_same_text(merged, want);
  EXPECT_EQ(written, static_cast<std::size_t>(
                         std::count(want.begin(), want.end(), '\n')));
  EXPECT_GT(merged.size(), std::size_t{2} << 20);
}

TEST(TimelineStreamMergeTest, InputThatGoesBadEndsAtACompleteLine) {
  sim::Rng rng(10);
  const std::string good = stamped_shard(rng, 0, 2, 3000);
  const std::string failing = stamped_shard(rng, 2, 2, 3000);
  const std::size_t fail_at = failing.size() * 2 / 3 + 17;
  ASSERT_NE(failing[fail_at - 1], '\n');
  FailingBuf buf(failing, fail_at);
  std::istream bad_in(&buf);
  std::istringstream good_in(good);
  std::ostringstream out;
  merge_sorted_timeline_streams({&good_in, &bad_in}, out);
  EXPECT_TRUE(bad_in.bad());
  EXPECT_FALSE(good_in.bad());
  // The failing input contributes the lines before some line end read
  // before the failure — never a torn line — and the good input all of
  // its lines, merged as ever.
  const std::string merged = out.str();
  std::size_t taken = 0;
  for (std::size_t at = merged.find("\"run-2\""); at != std::string::npos;
       at = merged.find("\"run-", at + 1)) {
    taken += merged.compare(at, 7, "\"run-2\"") == 0 ||
             merged.compare(at, 7, "\"run-3\"") == 0;
  }
  std::size_t end = 0;
  for (std::size_t i = 0; i < taken; ++i) end = failing.find('\n', end) + 1;
  EXPECT_LE(end, fail_at);
  expect_same_text(merged,
                   reference_stream_merge({good, failing.substr(0, end)}));
}

}  // namespace
}  // namespace qoed::core
