// Tests of core::merge_timelines and core::merge_sorted_timeline_streams:
// the (t, device, seq) interleaving order, the device stamp, the key each
// line is read by, and the input-order determinism guarantee.
#include "core/timeline_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/social_server.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"

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

}  // namespace
}  // namespace qoed::core
