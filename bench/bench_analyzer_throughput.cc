// Analyzer-throughput micro-benchmark: repeated multi-layer analysis over a
// large packet trace, copying baseline vs the streaming FlowAnalyzer.
//
// Before the collection spine, every QoeDoctor::analyze() call copied the
// device trace into a fresh FlowAnalyzer and rebuilt all flow state; with
// the spine, one streaming FlowAnalyzer borrows the trace and analyze() is
// a cheap borrow. This bench measures both paths over the same synthetic
// trace (>=100k packets), checks the results agree bit-for-bit, and reports
// the speedup.
//
//   bench_analyzer_throughput [--runs N] [--seed S] [--json FILE]
//
//   --runs N   analyze() calls per path          [20]
//   --seed S   synthetic-trace seed              [97]
//   --json F   result JSON path                  [BENCH_analyzer.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

#include "bench_util.h"
#include "core/collector.h"
#include "core/cross_layer_analyzer.h"
#include "core/flow_analyzer.h"
#include "net/dns.h"
#include "obs/observability.h"

namespace qoed {
namespace {

constexpr std::size_t kTracePackets = 120'000;
constexpr std::size_t kFlows = 64;

// Synthesizes a plausible trace: per-flow DNS lookup + handshake, then data
// segments with cumulative ACKs and occasional retransmissions, round-robin
// across flows so flow state churns the way a real capture does.
std::vector<net::PacketRecord> make_trace(std::uint64_t seed) {
  sim::Rng rng(seed);
  const net::IpAddr device(10, 0, 0, 2);
  std::vector<net::PacketRecord> trace;
  trace.reserve(kTracePackets);

  struct FlowState {
    net::IpAddr server;
    net::Port sport;
    std::uint64_t next_seq = 0;
  };
  std::vector<FlowState> flows;
  std::uint64_t uid = 0;
  sim::TimePoint now = sim::kTimeZero;

  auto base = [&](net::Direction dir, const FlowState& f) {
    net::PacketRecord r;
    r.uid = ++uid;
    r.timestamp = now;
    r.direction = dir;
    if (dir == net::Direction::kUplink) {
      r.src_ip = device;
      r.src_port = f.sport;
      r.dst_ip = f.server;
      r.dst_port = 443;
    } else {
      r.src_ip = f.server;
      r.src_port = 443;
      r.dst_ip = device;
      r.dst_port = f.sport;
    }
    return r;
  };

  for (std::size_t i = 0; i < kFlows; ++i) {
    FlowState f;
    f.server = net::IpAddr(31, 13, static_cast<std::uint8_t>(i / 250),
                           static_cast<std::uint8_t>(i % 250 + 1));
    f.sport = static_cast<net::Port>(40000 + i);
    now = now + sim::usec(200);

    net::PacketRecord dns;  // response only — enough to fill the DNS table
    dns.uid = ++uid;
    dns.timestamp = now;
    dns.direction = net::Direction::kDownlink;
    dns.src_ip = net::IpAddr(8, 8, 8, 8);
    dns.src_port = net::kDnsPort;
    dns.dst_ip = device;
    dns.dst_port = 50000;
    dns.protocol = net::Protocol::kUdp;
    dns.payload_size = 60;
    auto msg = std::make_shared<net::DnsMessage>();
    msg->hostname = "cdn" + std::to_string(i) + ".example.sim";
    msg->resolved = f.server;
    msg->is_response = true;
    dns.dns = msg;
    trace.push_back(dns);

    auto syn = base(net::Direction::kUplink, f);
    syn.flags = {.syn = true};
    trace.push_back(syn);
    now = now + sim::usec(30'000);
    auto synack = base(net::Direction::kDownlink, f);
    synack.flags = {.syn = true, .ack = true};
    trace.push_back(synack);
    flows.push_back(f);
  }

  while (trace.size() < kTracePackets) {
    FlowState& f = flows[rng.uniform_int(0, static_cast<int>(kFlows) - 1)];
    now = now + sim::usec(rng.uniform_int(50, 2'000));
    const bool retx = rng.uniform() < 0.01 && f.next_seq > 0;
    auto data = base(net::Direction::kUplink, f);
    data.payload_size = 1400;
    data.seq = retx ? f.next_seq - 1400 : f.next_seq;
    data.flags.ack = true;
    trace.push_back(data);
    if (!retx) f.next_seq += 1400;
    now = now + sim::usec(rng.uniform_int(100, 80'000));
    auto ack = base(net::Direction::kDownlink, f);
    ack.ack = f.next_seq;
    ack.flags.ack = true;
    trace.push_back(ack);
  }
  return trace;
}

// The per-call analysis workload: a window split over the middle of the
// trace plus a bytes query, via a fresh CrossLayerAnalyzer (cheap — the
// FlowAnalyzer carries all the state).
double analysis_pass(const core::FlowAnalyzer& flows,
                     const core::BehaviorRecord& record) {
  const core::CrossLayerAnalyzer cross(flows);
  const core::DeviceNetworkSplit split = cross.device_network_split(record);
  const auto vol =
      flows.bytes_in_window(record.start, record.end, "cdn1.example.sim");
  return split.network_s + static_cast<double>(vol.total());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- hot-path memory layout: arena ingest + SoA window folds ---

// A spine-shaped event stream: mostly packets with radio envelopes
// interleaved, timestamps strictly increasing with jitter.
std::vector<core::Event> make_events(std::size_t count, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<core::Event> events;
  events.reserve(count);
  sim::TimePoint now = sim::kTimeZero;
  for (std::size_t i = 0; i < count; ++i) {
    now = now + sim::usec(rng.uniform_int(1, 40));
    core::Event e;
    e.at = now;
    if (i % 4 == 3) {
      e.layer = core::kLayerRadio;
      e.kind = core::EventKind::kPdu;
    }
    e.index = static_cast<std::uint32_t>(i);
    e.seq = i;
    events.push_back(e);
  }
  return events;
}

struct LayoutNumbers {
  double vector_ingest_ms = 0;  // doubling std::vector baseline
  double arena_ingest_ms = 0;   // paged EventArena bump append
  double linear_us_per_query = 0;  // stride over the interleaved timeline
  double soa_us_per_query = 0;     // two binary searches on LayerIndex
  double fold_speedup = 0;
};

LayoutNumbers measure_layout(const std::vector<core::Event>& events,
                             std::uint64_t seed) {
  constexpr int kTrials = 5;
  constexpr std::size_t kQueries = 128;
  LayoutNumbers out;

  double vec_best = std::numeric_limits<double>::infinity();
  double arena_best = vec_best;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<core::Event> v;
    auto t0 = std::chrono::steady_clock::now();
    for (const core::Event& e : events) v.push_back(e);
    vec_best = std::min(vec_best, seconds_since(t0));

    core::EventArena a;
    t0 = std::chrono::steady_clock::now();
    for (const core::Event& e : events) a.push_back(e);
    arena_best = std::min(arena_best, seconds_since(t0));
    if (a.size() != events.size()) std::abort();
  }
  out.vector_ingest_ms = vec_best * 1e3;
  out.arena_ingest_ms = arena_best * 1e3;

  core::EventArena arena;
  core::LayerIndex packets;
  for (const core::Event& e : events) {
    arena.push_back(e);
    if (e.layer == core::kLayerPacket) {
      packets.at.push_back(e.at);
      packets.kind.push_back(e.kind);
      packets.index.push_back(e.index);
    }
  }

  // Deterministic query windows spanning ~1/16 of the run each.
  sim::Rng rng(seed ^ 0x5157u);
  const sim::TimePoint last = events.back().at;
  const auto span = (last - sim::kTimeZero).count();
  std::vector<std::pair<sim::TimePoint, sim::TimePoint>> queries;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto lo = rng.uniform_int(0, static_cast<int>(span * 15 / 16));
    queries.emplace_back(sim::kTimeZero + sim::Duration{lo},
                         sim::kTimeZero + sim::Duration{lo + span / 16});
  }

  std::uint64_t linear_total = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (const auto& [start, end] : queries) {
    std::uint64_t n = 0;
    for (const core::Event& e : arena) {
      if (e.layer == core::kLayerPacket && e.at >= start && e.at <= end) ++n;
    }
    linear_total += n;
  }
  const double linear_s = seconds_since(t0);

  std::uint64_t soa_total = 0;
  t0 = std::chrono::steady_clock::now();
  for (const auto& [start, end] : queries) {
    const auto lo =
        std::lower_bound(packets.at.begin(), packets.at.end(), start);
    const auto hi = std::upper_bound(lo, packets.at.end(), end);
    soa_total += static_cast<std::uint64_t>(hi - lo);
  }
  const double soa_s = seconds_since(t0);

  if (linear_total != soa_total) {
    std::fprintf(stderr,
                 "FAIL: SoA window fold diverged from the linear scan "
                 "(%llu != %llu)\n",
                 static_cast<unsigned long long>(soa_total),
                 static_cast<unsigned long long>(linear_total));
    std::exit(1);
  }
  out.linear_us_per_query = linear_s * 1e6 / kQueries;
  out.soa_us_per_query = soa_s * 1e6 / kQueries;
  out.fold_speedup = soa_s > 0 ? linear_s / soa_s : 0;
  return out;
}

// Streaming-ingest wall time of one trial: appends the trace in chunks to a
// grown vector and syncs after each, the way the collection spine feeds the
// analyzer. With `obs` non-null the analyzer gets a wired obs::Context whose
// tracer is DISABLED — the compiled-in-but-off configuration whose cost
// contract bench enforces below.
double ingest_seconds(const std::vector<net::PacketRecord>& trace,
                      obs::Observability* obs) {
  constexpr std::size_t kChunk = 4096;
  std::vector<net::PacketRecord> grow;
  grow.reserve(trace.size());
  core::FlowAnalyzer analyzer(grow);
  if (obs != nullptr) {
    analyzer.set_observability(obs->context(obs->tracer.track("bench")));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < trace.size(); i += kChunk) {
    const auto end = std::min(trace.size(), i + kChunk);
    grow.insert(grow.end(),
                trace.begin() + static_cast<std::ptrdiff_t>(i),
                trace.begin() + static_cast<std::ptrdiff_t>(end));
    analyzer.sync();
  }
  return seconds_since(t0);
}

// Best bare and best wired ingest time over the same number of trials each.
// The trials interleave, alternating which configuration runs first, so a
// burst of host load slows both sides instead of one block of trials.
std::pair<double, double> best_ingest_seconds(
    const std::vector<net::PacketRecord>& trace, obs::Observability& obs) {
  constexpr int kTrials = 5;
  double bare = std::numeric_limits<double>::infinity();
  double wired = bare;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (const bool wired_turn : {trial % 2 == 1, trial % 2 == 0}) {
      if (wired_turn) {
        wired = std::min(wired, ingest_seconds(trace, &obs));
      } else {
        bare = std::min(bare, ingest_seconds(trace, nullptr));
      }
    }
  }
  return {bare, wired};
}

}  // namespace
}  // namespace qoed

int main(int argc, char** argv) {
  using namespace qoed;
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  const std::size_t runs = opts.runs ? opts.runs : 20;
  const std::uint64_t seed = opts.seed ? opts.seed : 97;
  const std::string json =
      opts.json_path.empty() ? "BENCH_analyzer.json" : opts.json_path;

  bench::banner("analyzer throughput: copying baseline vs streaming spine",
                "collection-spine refactor (no paper figure)");

  const std::vector<net::PacketRecord> trace = make_trace(seed);
  std::printf("trace: %zu packets, %zu flows\n", trace.size(), kFlows);

  // QoE window covering the middle half of the trace.
  core::BehaviorRecord record;
  record.action = "bench";
  record.trigger = trace[trace.size() / 4].timestamp;
  record.start = record.trigger;
  record.end = trace[(3 * trace.size()) / 4].timestamp;

  // Copying baseline: what analyze() cost before the spine — copy the trace,
  // rebuild every flow, then run the pass.
  double baseline_check = 0;
  const auto t_base = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < runs; ++i) {
    const std::vector<net::PacketRecord> copy = trace;
    const core::FlowAnalyzer rebuilt(copy);
    baseline_check += analysis_pass(rebuilt, record);
  }
  const double baseline_s = seconds_since(t_base);

  // Streaming path: one FlowAnalyzer borrows the trace; each analyze() is a
  // fresh CrossLayerAnalyzer over the same state.
  const core::FlowAnalyzer streaming(trace);
  double streaming_check = 0;
  const auto t_stream = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < runs; ++i) {
    streaming_check += analysis_pass(streaming, record);
  }
  const double streaming_s = seconds_since(t_stream);

  if (baseline_check != streaming_check) {
    std::fprintf(stderr,
                 "FAIL: streaming analysis diverged from baseline "
                 "(%.17g != %.17g)\n",
                 streaming_check, baseline_check);
    return 1;
  }

  const double speedup = baseline_s / streaming_s;
  const double per_call_base_ms = baseline_s * 1e3 / static_cast<double>(runs);
  const double per_call_stream_ms =
      streaming_s * 1e3 / static_cast<double>(runs);
  std::printf("baseline  (copy + rebuild): %8.2f ms/analyze\n",
              per_call_base_ms);
  std::printf("streaming (borrow)        : %8.4f ms/analyze\n",
              per_call_stream_ms);
  std::printf("speedup: %.1fx over %zu analyze() calls (bit-identical)\n",
              speedup, runs);

  // Observability cost contract: the tracing hooks stay compiled into the
  // ingest path, so a wired-but-disabled tracer must cost within 5% of no
  // tracer at all (per packet it is one branch).
  obs::Observability obs;  // tracer present, never enabled
  const auto [bare_s, wired_s] = best_ingest_seconds(trace, obs);
  const double overhead = wired_s / bare_s - 1.0;
  std::printf("ingest: %8.2f ms bare, %8.2f ms with disabled tracer "
              "(%+.1f%% overhead)\n",
              bare_s * 1e3, wired_s * 1e3, overhead * 100);

  // Spine memory layout: paged-arena envelope ingest and SoA window folds
  // (the Collector::window path) against their pre-refactor shapes.
  const std::vector<core::Event> events = make_events(512 * 1024, seed);
  const LayoutNumbers layout = measure_layout(events, seed);
  std::printf("envelope ingest (%zu events): %6.2f ms vector, %6.2f ms "
              "arena\n",
              events.size(), layout.vector_ingest_ms, layout.arena_ingest_ms);
  std::printf("window fold: %8.2f us linear scan, %8.4f us SoA "
              "(%.0fx, same counts)\n",
              layout.linear_us_per_query, layout.soa_us_per_query,
              layout.fold_speedup);

  bench::write_bench_json(
      json, "analyzer_throughput",
      {{"packets", static_cast<double>(trace.size())},
       {"runs", static_cast<double>(runs)},
       {"baseline_ms_per_call", per_call_base_ms},
       {"streaming_ms_per_call", per_call_stream_ms},
       {"speedup", speedup},
       {"disabled_tracing_overhead", overhead},
       {"arena_ingest_ms", layout.arena_ingest_ms},
       {"vector_ingest_ms", layout.vector_ingest_ms},
       {"window_linear_us_per_query", layout.linear_us_per_query},
       {"window_soa_us_per_query", layout.soa_us_per_query},
       {"window_fold_speedup", layout.fold_speedup}});
  std::printf("wrote %s\n", json.c_str());

  // The refactor's acceptance bar: repeated analysis must be at least 5x
  // cheaper than the copying baseline.
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: speedup %.1fx below the 5x bar\n", speedup);
    return 1;
  }
  if (overhead > 0.05) {
    std::fprintf(stderr,
                 "FAIL: disabled-tracing ingest overhead %.1f%% above the "
                 "5%% bar\n",
                 overhead * 100);
    return 1;
  }
  return 0;
}
