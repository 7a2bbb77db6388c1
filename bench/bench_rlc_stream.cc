// Streaming long-jump mapper bench: mid-run RLC window queries against the
// per-window batch remap they replace.
//
// Before RlcChainTracker, answering "how many RLC retransmissions / mapped
// packets landed in this QoE window?" mid-run meant re-running
// RlcMapper::map over the logs-so-far and scanning the result — O(log) per
// query. The tracker folds the same records online and keeps cumulative
// checkpoints, so a window query is two binary searches. This bench feeds
// one synthetic (trace, PDU log) pair through both paths with checkpoints
// along the way, verifies every window answer and the final mapping are
// bit-identical, and enforces the >=5x speedup bar.
//
// The synthetic stream deliberately crosses the 12-bit AM sequence-number
// wrap (mod 4096, 3GPP TS 25.322) several times and loses a small fraction
// of PDU records, so the unwrap and resync paths are on the measured path.
//
//   bench_rlc_stream [--jobs N] [--runs N] [--seed S] [--json FILE]
//                    [--metrics FILE]
//
// Phase 2 replays the stream inside a small campaign honoring --jobs, so CI
// can diff the --json/--metrics exports across jobs=1 vs jobs=3.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "core/rlc_mapper.h"
#include "diag/rlc_chain_tracker.h"
#include "radio/qxdm_logger.h"

namespace qoed {
namespace {

constexpr std::size_t kPackets = 8000;
constexpr std::uint16_t kPduPayload = 500;
constexpr std::size_t kCheckpoints = 64;

struct Stream {
  std::vector<net::PacketRecord> packets;
  std::vector<radio::PduRecord> pdus;
  // Index of the last packet contributing bytes to pdus[i]; a PDU is
  // observable once that packet has been captured.
  std::vector<std::size_t> pdu_done_pkt;
};

// Uplink trace plus the RLC segmentation the radio layer would log for it:
// fixed-size PDUs walking the concatenated wire stream, LIs at packet ends,
// first_two from the deterministic wire bytes. ~0.3% of records are lost
// (exercising resync) and ~0.4% duplicated as retransmissions; sequence
// numbers start near the 12-bit wrap and cross it repeatedly.
Stream make_stream(std::uint64_t seed, std::size_t packet_count) {
  sim::Rng rng(seed);
  Stream s;
  const net::IpAddr device(10, 0, 0, 2);
  const net::IpAddr server(31, 13, 1, 7);
  sim::TimePoint now = sim::kTimeZero;
  for (std::size_t i = 0; i < packet_count; ++i) {
    now = now + sim::usec(rng.uniform_int(40, 400));
    net::PacketRecord r;
    r.uid = i + 1;
    r.timestamp = now;
    r.direction = net::Direction::kUplink;
    r.src_ip = device;
    r.src_port = 40000;
    r.dst_ip = server;
    r.dst_port = 443;
    r.payload_size = static_cast<std::uint32_t>(rng.uniform_int(160, 1360));
    r.flags.ack = true;
    s.packets.push_back(r);
  }

  const auto size_of = [&](std::size_t p) {
    return s.packets[p].total_size();
  };
  std::uint32_t seq = 4000;  // 96 PDUs from the mod-4096 wrap
  std::size_t p = 0;
  std::uint32_t o = 0;
  sim::TimePoint pdu_now = sim::kTimeZero;
  while (p < s.packets.size()) {
    radio::PduRecord rec;
    rec.dir = net::Direction::kUplink;
    rec.seq = seq;
    seq = (seq + 1) % core::RlcMapper::kSnModulus;
    pdu_now = std::max(pdu_now + sim::usec(5),
                       s.packets[p].timestamp + sim::usec(20));
    rec.at = pdu_now;
    rec.first_two[0] = net::wire_byte(s.packets[p].uid, o);
    if (o + 1 < size_of(p)) {
      rec.first_two[1] = net::wire_byte(s.packets[p].uid, o + 1);
    } else if (p + 1 < s.packets.size()) {
      rec.first_two[1] = net::wire_byte(s.packets[p + 1].uid, 0);
    }
    std::uint16_t remaining = kPduPayload;
    std::uint16_t cursor = 0;
    while (remaining > 0 && p < s.packets.size()) {
      const std::uint32_t take =
          std::min<std::uint32_t>(remaining, size_of(p) - o);
      o += take;
      cursor = static_cast<std::uint16_t>(cursor + take);
      remaining = static_cast<std::uint16_t>(remaining - take);
      if (o == size_of(p)) {
        rec.li_ends.push_back(cursor);
        ++p;
        o = 0;
      }
    }
    rec.payload_len = cursor;
    const std::size_t done = o == 0 ? p - 1 : p;
    if (rng.uniform() < 0.003) continue;  // lost from the log
    s.pdus.push_back(rec);
    s.pdu_done_pkt.push_back(done);
    if (rng.uniform() < 0.004) {
      rec.retransmission = true;
      s.pdus.push_back(rec);
      s.pdu_done_pkt.push_back(done);
    }
  }
  return s;
}

struct WindowAnswer {
  std::size_t packets = 0;
  std::size_t mapped = 0;
  std::uint64_t mapped_bytes = 0;
};

bool operator==(const WindowAnswer& a, const WindowAnswer& b) {
  return a.packets == b.packets && a.mapped == b.mapped &&
         a.mapped_bytes == b.mapped_bytes;
}

WindowAnswer scan_window(const core::MappingResult& result,
                         sim::TimePoint start, sim::TimePoint end) {
  WindowAnswer out;
  for (const core::PacketMapping& m : result.packets) {
    if (m.packet_ts < start || m.packet_ts > end) continue;
    ++out.packets;
    if (m.mapped) {
      ++out.mapped;
      out.mapped_bytes += m.packet_size;
    }
  }
  return out;
}

bool results_equal(const core::MappingResult& a,
                   const core::MappingResult& b) {
  if (a.packets.size() != b.packets.size() ||
      a.mapped_count != b.mapped_count || a.mapped_bytes != b.mapped_bytes ||
      a.retx_pdus != b.retx_pdus || a.corrupt_pdus != b.corrupt_pdus) {
    return false;
  }
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const core::PacketMapping& x = a.packets[i];
    const core::PacketMapping& y = b.packets[i];
    if (x.packet_uid != y.packet_uid || x.packet_ts != y.packet_ts ||
        x.packet_size != y.packet_size || x.mapped != y.mapped ||
        x.first_pdu_at != y.first_pdu_at || x.last_pdu_at != y.last_pdu_at ||
        x.pdu_seqs != y.pdu_seqs) {
      return false;
    }
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace
}  // namespace qoed

int main(int argc, char** argv) {
  using namespace qoed;
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  const std::uint64_t seed = opts.seed ? opts.seed : 47;

  bench::banner("streaming RLC window queries vs per-window batch remap",
                "long-jump mapping made streaming (IMC'14 QoE Doctor, "
                "§5.4.2; no paper figure)");

  const Stream stream = make_stream(seed, kPackets);
  std::printf("stream: %zu packets, %zu PDU records (SN wraps the 12-bit "
              "space %zu times)\n",
              stream.packets.size(), stream.pdus.size(),
              (4000 + stream.pdus.size()) / 4096);

  // Checkpoint boundaries: after every chunk of packets, query the window
  // spanning that chunk.
  const std::size_t chunk = (stream.packets.size() + kCheckpoints - 1) /
                            kCheckpoints;

  // --- streaming pass: incremental folds + two-binary-search queries ---
  std::vector<WindowAnswer> live_answers;
  std::vector<diag::RlcChainTracker::WindowStats> live_retx;
  std::vector<net::PacketRecord> grow;
  grow.reserve(stream.packets.size());
  radio::QxdmLogger log{sim::Rng(1)};
  diag::RlcChainTracker tracker(grow, log);
  std::size_t pdu_cursor = 0;
  const auto t_live = std::chrono::steady_clock::now();
  for (std::size_t start = 0; start < stream.packets.size(); start += chunk) {
    const std::size_t end = std::min(stream.packets.size(), start + chunk);
    for (std::size_t i = start; i < end; ++i) grow.push_back(stream.packets[i]);
    while (pdu_cursor < stream.pdus.size() &&
           stream.pdu_done_pkt[pdu_cursor] < end) {
      log.commit_pdu(stream.pdus[pdu_cursor]);
      ++pdu_cursor;
    }
    tracker.sync();
    const auto stats = tracker.window(net::Direction::kUplink,
                                      stream.packets[start].timestamp,
                                      stream.packets[end - 1].timestamp);
    live_answers.push_back({stats.packets, stats.mapped, stats.mapped_bytes});
    live_retx.push_back(stats);
  }
  const double live_s = seconds_since(t_live);

  // --- batch baseline: full remap per checkpoint + linear window scan ---
  std::vector<WindowAnswer> batch_answers;
  std::vector<net::PacketRecord> trace_prefix;
  trace_prefix.reserve(stream.packets.size());
  std::vector<radio::PduRecord> pdu_prefix;
  pdu_prefix.reserve(stream.pdus.size());
  std::size_t batch_pdu_cursor = 0;
  const auto t_batch = std::chrono::steady_clock::now();
  for (std::size_t start = 0; start < stream.packets.size(); start += chunk) {
    const std::size_t end = std::min(stream.packets.size(), start + chunk);
    for (std::size_t i = start; i < end; ++i) {
      trace_prefix.push_back(stream.packets[i]);
    }
    while (batch_pdu_cursor < stream.pdus.size() &&
           stream.pdu_done_pkt[batch_pdu_cursor] < end) {
      pdu_prefix.push_back(stream.pdus[batch_pdu_cursor]);
      ++batch_pdu_cursor;
    }
    const core::MappingResult remap = core::RlcMapper::map(
        trace_prefix, pdu_prefix, net::Direction::kUplink);
    batch_answers.push_back(scan_window(remap,
                                        stream.packets[start].timestamp,
                                        stream.packets[end - 1].timestamp));
  }
  const double batch_s = seconds_since(t_batch);

  if (live_answers.size() != batch_answers.size()) std::abort();
  for (std::size_t i = 0; i < live_answers.size(); ++i) {
    if (!(live_answers[i] == batch_answers[i])) {
      std::fprintf(stderr,
                   "FAIL: window %zu diverged (live %zu/%zu pkts mapped, "
                   "batch %zu/%zu)\n",
                   i, live_answers[i].mapped, live_answers[i].packets,
                   batch_answers[i].mapped, batch_answers[i].packets);
      return 1;
    }
  }

  // Whole-run bit-exactness: the tracker's final state must equal one batch
  // map over the complete logs — including across the SN wraps and the
  // resyncs after lost records.
  const core::MappingResult full = core::RlcMapper::map(
      stream.packets, stream.pdus, net::Direction::kUplink);
  if (!results_equal(tracker.result(net::Direction::kUplink), full)) {
    std::fprintf(stderr, "FAIL: final streaming mapping != batch mapping\n");
    return 1;
  }

  std::size_t retx_total = 0;
  for (const auto& w : live_retx) retx_total += w.retx;
  const double mapped_pct =
      tracker.mapped_ratio(net::Direction::kUplink) * 100;
  const double speedup = batch_s / live_s;
  std::printf("streaming: %7.2f ms for %zu checkpoints (fold + query)\n",
              live_s * 1e3, live_answers.size());
  std::printf("batch    : %7.2f ms (full remap per checkpoint)\n",
              batch_s * 1e3);
  std::printf("speedup: %.1fx, bit-identical answers; mapped %.2f%%, "
              "%zu retx PDUs, %llu refolds\n",
              speedup, mapped_pct, full.retx_pdus,
              static_cast<unsigned long long>(tracker.refolds()));
  (void)retx_total;

  bench::write_bench_json(
      "BENCH_rlc_stream.json", "rlc_stream",
      {{"packets", static_cast<double>(stream.packets.size())},
       {"pdus", static_cast<double>(stream.pdus.size())},
       {"checkpoints", static_cast<double>(live_answers.size())},
       {"streaming_ms", live_s * 1e3},
       {"batch_ms", batch_s * 1e3},
       {"speedup", speedup},
       {"mapped_ratio", tracker.mapped_ratio(net::Direction::kUplink)},
       {"retx_pdus", static_cast<double>(full.retx_pdus)}});
  std::printf("wrote BENCH_rlc_stream.json\n");

  // Phase 2: the same stream inside a campaign, for the jobs-invariance
  // contract — counters and registry exports must be byte-identical at any
  // --jobs. CI diffs the --json/--metrics artifacts across jobs=1 vs 3.
  const auto factory = [](std::uint64_t run_seed,
                          const core::RunSpec&) -> core::RunResult {
    core::RunResult out;
    const Stream s = make_stream(run_seed, kPackets / 4);
    radio::QxdmLogger run_log{sim::Rng(1)};
    diag::RlcChainTracker run_tracker(s.packets, run_log);
    for (const auto& pdu : s.pdus) run_log.commit_pdu(pdu);
    run_tracker.sync();
    run_tracker.export_metrics(out.registry);
    out.add_sample("rlc.mapped_ratio",
                   run_tracker.mapped_ratio(net::Direction::kUplink));
    out.virtual_seconds =
        sim::to_seconds(s.packets.back().timestamp - sim::kTimeZero);
    return out;
  };
  core::CampaignConfig cfg =
      bench::campaign_config(opts, "rlc-stream", 6, seed);
  core::Campaign campaign(cfg);
  const core::CampaignResult result = campaign.run(factory);
  bench::report_campaign(campaign, result, opts);

  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: speedup %.1fx below the 5x bar\n", speedup);
    return 1;
  }
  return 0;
}
