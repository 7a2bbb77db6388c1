// Transport-layer flow observability (DESIGN.md §5j): the FlowStatsTracker
// tap accounting, its window queries, the flow.* metric export, counter
// tracks in the tracer, transport evidence on findings, flow.* policy
// subjects, and the serve `stats` snapshot contract.
#include "obs/flow_stats.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/web_server.h"
#include "core/campaign.h"
#include "core/export_sink.h"
#include "core/qoe_doctor.h"
#include "core/shard.h"
#include "ctrl/policy_engine.h"
#include "diag/diagnosis_engine.h"
#include "diag/findings_sink.h"
#include "obs/metrics.h"
#include "obs/trace_report.h"
#include "obs/tracer.h"
#include "svc/run_spec.h"
#include "svc/serve.h"

namespace qoed {
namespace {

namespace fs = std::filesystem;

// ---- unit level: synthetic tap events ----

net::FlowKey flow_key(std::uint32_t src, std::uint32_t dst,
                      net::Port sport = 1000, net::Port dport = 80) {
  return net::FlowKey{net::IpAddr(src), sport, net::IpAddr(dst), dport};
}

TEST(FlowStatsTracker, FoldsTapEventsPerFlow) {
  obs::FlowStatsTracker t;  // unspecified ip: observes everything
  const net::FlowKey f = flow_key(0x0a000001, 0x0a000002);
  const auto at = [](std::int64_t s) { return sim::kTimeZero + sim::sec(s); };

  t.on_flow_open(f, at(1));
  t.on_segment_sent(f, at(1), 1000, false, 1000);
  t.on_segment_sent(f, at(2), 1000, true, 2000);  // a retransmission
  t.on_ack(f, at(3), 1000, 0.2, 0.05, 1000, 4000);
  t.on_dup_ack(f, at(4), 3);
  t.on_fast_retransmit(f, at(4));
  t.on_rto(f, at(5));

  ASSERT_EQ(t.flows().size(), 1u);
  const obs::FlowStatsTracker::FlowStats& fs = t.flows().at(f);
  EXPECT_EQ(fs.segments, 2u);
  EXPECT_EQ(fs.bytes_sent, 2000u);
  EXPECT_EQ(fs.retx_segments, 1u);
  EXPECT_EQ(fs.retx_bytes, 1000u);
  EXPECT_EQ(fs.bytes_acked, 1000u);
  EXPECT_EQ(fs.rto_events, 1u);
  EXPECT_EQ(fs.fast_retx_events, 1u);
  EXPECT_EQ(fs.dup_acks, 1u);
  EXPECT_EQ(fs.reorder_depth_max, 3);
  EXPECT_DOUBLE_EQ(fs.srtt_s, 0.2);
  EXPECT_EQ(fs.inflight_peak, 2000u);
  EXPECT_EQ(t.total_retx_segments(), 1u);
  EXPECT_EQ(t.total_rto_events(), 1u);
  EXPECT_DOUBLE_EQ(t.latest_srtt_ms(), 200.0);
  EXPECT_EQ(t.inflight_peak_bytes(), 2000u);
}

TEST(FlowStatsTracker, DeviceIpFilterScopesFlows) {
  obs::FlowStatsTracker t(net::IpAddr(0x0a000001));
  const auto at = sim::kTimeZero + sim::sec(1);
  // Device on either end: kept. Unrelated flow: ignored.
  t.on_segment_sent(flow_key(0x0a000001, 0x0a000002), at, 100, false, 100);
  t.on_segment_sent(flow_key(0x0a000003, 0x0a000001), at, 100, false, 100);
  t.on_segment_sent(flow_key(0x0a000003, 0x0a000004), at, 100, false, 100);
  EXPECT_EQ(t.flows().size(), 2u);
}

TEST(FlowStatsTracker, WindowQueriesIncludeBoundsAndCarriedLevel) {
  obs::FlowStatsTracker t;
  const net::FlowKey f = flow_key(0x0a000001, 0x0a000002);
  const auto at =
      [](std::int64_t ms) { return sim::kTimeZero + sim::msec(ms); };

  t.on_segment_sent(f, at(1000), 100, true, 100);  // retx at 1s
  t.on_segment_sent(f, at(3000), 100, true, 200);  // retx at 3s
  t.on_segment_sent(f, at(5000), 100, true, 300);  // retx at 5s
  EXPECT_EQ(t.retx_in_window(at(1000), at(3000)), 2u);  // closed interval
  EXPECT_EQ(t.retx_in_window(at(2000), at(4000)), 1u);
  EXPECT_EQ(t.retx_in_window(at(6000), at(9000)), 0u);

  t.on_ack(f, at(2000), 100, 0.1, 0.02, 200, 4000);
  t.on_ack(f, at(4000), 100, 0.3, 0.02, 100, 4000);
  EXPECT_DOUBLE_EQ(t.srtt_ms_at(at(1000)), 0.0);  // before first sample
  EXPECT_DOUBLE_EQ(t.srtt_ms_at(at(2000)), 100.0);
  EXPECT_DOUBLE_EQ(t.srtt_ms_at(at(3000)), 100.0);
  EXPECT_DOUBLE_EQ(t.srtt_ms_at(at(9000)), 300.0);

  // Peak in [3.5s, 4.5s]: no sends inside the window, but the in-flight
  // level carried in from the 3s sample must be counted.
  EXPECT_GT(t.inflight_peak_in_window(at(3500), at(4500)), 0u);
  // A window before any sample has zero peak.
  EXPECT_EQ(t.inflight_peak_in_window(at(0), at(500)), 0u);
}

TEST(FlowStatsTracker, ExportMetricsIsPureAndKeyStable) {
  obs::FlowStatsTracker t;
  const net::FlowKey f = flow_key(0x0a000001, 0x0a000002);
  const auto at = sim::kTimeZero + sim::sec(1);
  t.on_flow_open(f, at);
  t.on_segment_sent(f, at, 500, false, 500);
  t.on_ack(f, at + sim::msec(80), 500, 0.08, 0.01, 0, 4000);

  obs::MetricsRegistry a;
  t.export_metrics(a);
  EXPECT_DOUBLE_EQ(a.counter("flow.flows"), 1.0);
  EXPECT_DOUBLE_EQ(a.counter("flow.segments"), 1.0);
  EXPECT_DOUBLE_EQ(a.counter("flow.bytes_sent"), 500.0);
  EXPECT_DOUBLE_EQ(a.counter("flow.bytes_acked"), 500.0);
  EXPECT_DOUBLE_EQ(a.counter("flow.retx_segments"), 0.0);

  // Pure const read: exporting twice into fresh registries is idempotent,
  // and the key set does not depend on whether samples exist (empty
  // histograms still serialize, keeping baselines stable).
  obs::MetricsRegistry b;
  t.export_metrics(b);
  EXPECT_EQ(a.snapshot(), b.snapshot());
  obs::FlowStatsTracker idle;
  obs::MetricsRegistry c;
  idle.export_metrics(c);
  EXPECT_NE(c.snapshot().find("flow.srtt_s"), std::string::npos);
  EXPECT_NE(c.snapshot().find("flow.flow_retx"), std::string::npos);
}

// ---- integration: real scenarios through the QoeDoctor ----

// A policing throttle on a 3G downlink drops bursts at the bottleneck, so
// the web flows must retransmit — the transport pathology the tracker (and
// the paper's cross-layer analysis) exists to surface.
radio::CellularConfig policed_3g() {
  radio::CellularConfig cfg = radio::CellularConfig::umts_simplified();
  cfg.throttle = net::ThrottleKind::kPolicing;
  cfg.throttle_rate_bps = 200 * 1000;
  cfg.throttle_burst_bytes = 4 * 1024;
  return cfg;
}

struct PageloadRun {
  core::Testbed bed{7};
  apps::WebServer server;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<apps::BrowserApp> app;
  std::unique_ptr<core::QoeDoctor> doctor;

  explicit PageloadRun(bool policed, bool tracing = false,
                       bool diagnose = false)
      : server(bed.network(), bed.next_server_ip()) {
    sim::Rng rng = bed.fork_rng("pages");
    const auto dataset = apps::make_page_dataset(rng, 2);
    std::vector<std::string> urls;
    for (const auto& p : dataset) {
      server.add_page(p);
      urls.push_back("www.page.sim" + p.path);
    }
    dev = bed.make_device("phone");
    if (policed) {
      dev->attach_cellular(policed_3g());
    } else {
      dev->attach_wifi();
    }
    app = std::make_unique<apps::BrowserApp>(*dev);
    app->launch();
    doctor = std::make_unique<core::QoeDoctor>(*dev, *app);
    if (tracing) doctor->obs().tracer.set_enabled(true);
    if (diagnose) doctor->enable_diagnosis();
    core::BrowserDriver driver(doctor->controller(), *app);
    driver.load_pages(urls, sim::sec(5),
                      [](const std::vector<core::BehaviorRecord>&) {});
    bed.loop().run();
  }
};

TEST(FlowStatsIntegration, PageloadObservesFlowsAndRtt) {
  PageloadRun run(/*policed=*/false);
  const obs::FlowStatsTracker& t = run.doctor->flow_stats();
  EXPECT_FALSE(t.flows().empty());
  EXPECT_GT(t.latest_srtt_ms(), 0.0);
  EXPECT_GT(t.inflight_peak_bytes(), 0u);

  obs::MetricsRegistry reg;
  t.export_metrics(reg);
  EXPECT_GT(reg.counter("flow.segments"), 0.0);
  EXPECT_GT(reg.counter("flow.bytes_acked"), 0.0);
  // Goodput can never exceed throughput.
  EXPECT_LE(reg.counter("flow.bytes_acked"), reg.counter("flow.bytes_sent"));
}

TEST(FlowStatsIntegration, PolicingThrottleProducesRetransmissions) {
  PageloadRun run(/*policed=*/true);
  const obs::FlowStatsTracker& t = run.doctor->flow_stats();
  EXPECT_GT(t.total_retx_segments(), 0u);
  obs::MetricsRegistry reg;
  t.export_metrics(reg);
  EXPECT_GT(reg.counter("flow.retx_segments"), 0.0);
  EXPECT_GT(reg.counter("flow.retx_bytes"), 0.0);
  // The retransmitted bytes are counted in throughput but not goodput.
  EXPECT_LT(reg.counter("flow.bytes_acked"), reg.counter("flow.bytes_sent"));
}

TEST(FlowStatsIntegration, DeterministicAcrossIdenticalRuns) {
  PageloadRun a(/*policed=*/true);
  PageloadRun b(/*policed=*/true);
  obs::MetricsRegistry ra, rb;
  a.doctor->flow_stats().export_metrics(ra);
  b.doctor->flow_stats().export_metrics(rb);
  EXPECT_EQ(ra.snapshot(), rb.snapshot());
}

TEST(FlowStatsIntegration, CounterTracksLandInTraceAndReport) {
  PageloadRun run(/*policed=*/true, /*tracing=*/true, /*diagnose=*/true);
  run.doctor->diagnosis()->finalize_all();

  std::ostringstream os;
  run.doctor->obs().tracer.write_chrome_json(os, "device:phone");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow.inflight\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow.retx\""), std::string::npos);
  // Counter events carry only their args series — no instant scope marker.
  EXPECT_EQ(json.find("\"ph\":\"C\",\"s\":"), std::string::npos);

  // trace-report folds the counter samples into per-window peaks and the
  // top-K slowest-windows section.
  obs::TraceReport report;
  std::string error;
  ASSERT_TRUE(obs::analyze_trace(json, &report, &error)) << error;
  EXPECT_GT(report.counter_events, 0u);
  ASSERT_FALSE(report.windows.empty());
  bool any_counters = false;
  for (const auto& w : report.windows) any_counters |= !w.counters.empty();
  EXPECT_TRUE(any_counters);
  std::ostringstream printed;
  obs::print_trace_report(printed, report, 2);
  EXPECT_NE(printed.str().find("slowest windows (top"), std::string::npos);
  EXPECT_NE(printed.str().find("peak flow.inflight/bytes"),
            std::string::npos);
}

TEST(FlowStatsIntegration, FindingsCarryTransportEvidence) {
  PageloadRun run(/*policed=*/true, /*tracing=*/false, /*diagnose=*/true);
  diag::DiagnosisEngine* engine = run.doctor->diagnosis();
  ASSERT_NE(engine, nullptr);
  engine->finalize_all();
  ASSERT_FALSE(engine->findings().empty());
  bool any_retx = false;
  for (const diag::Finding& f : engine->findings()) {
    EXPECT_TRUE(f.has_flow_stats);
    any_retx |= f.flow_retx > 0;
  }
  EXPECT_TRUE(any_retx);

  // The JSONL export carries the same evidence fields.
  std::ostringstream os;
  diag::FindingsJsonlSink(*engine).write(os);
  EXPECT_NE(os.str().find("\"flow_retx\":"), std::string::npos);
  EXPECT_NE(os.str().find("\"flow_srtt_ms\":"), std::string::npos);
  EXPECT_NE(os.str().find("\"flow_inflight_peak\":"), std::string::npos);
}

// ---- flow.* policy subjects ----

TEST(FlowPolicy, ParsesFlowSubjectsAndRequiresSustainEligibility) {
  const ctrl::Policy p =
      ctrl::Policy::parse("on flow.retx > 20 for 2s: capture");
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_TRUE(p.rules[0].is_flow());
  EXPECT_FALSE(p.rules[0].is_layer());
  // Finding-scoped subjects still reject sustain.
  EXPECT_THROW(ctrl::Policy::parse("on finding.confidence < 0.5 for 2s: abort"),
               std::invalid_argument);
}

TEST(FlowPolicy, RetxRuleFiresOnPolicedRun) {
  core::Testbed bed(7);
  apps::WebServer server(bed.network(), bed.next_server_ip());
  sim::Rng rng = bed.fork_rng("pages");
  const auto dataset = apps::make_page_dataset(rng, 2);
  for (const auto& p : dataset) server.add_page(p);
  auto dev = bed.make_device("phone");
  dev->attach_cellular(policed_3g());
  apps::BrowserApp app(*dev);
  app.launch();
  core::QoeDoctor doctor(*dev, app);

  ctrl::PolicyEngineConfig cfg;
  cfg.policy = ctrl::Policy::parse("on flow.retx > 0: capture");
  ctrl::PolicyEngine policy(std::move(cfg));
  policy.set_observability(doctor.collector().observability());
  policy.watch_flows(&doctor.flow_stats());
  policy.attach(doctor.collector(), bed.loop());

  core::BrowserDriver driver(doctor.controller(), app);
  driver.load_pages({"www.page.sim" + dataset[0].path}, sim::sec(5),
                    [](const std::vector<core::BehaviorRecord>&) {});
  bed.loop().run();

  ASSERT_GT(doctor.flow_stats().total_retx_segments(), 0u);
  ASSERT_FALSE(policy.decisions().empty());
  EXPECT_NE(policy.decisions()[0].condition.find("flow.retx"),
            std::string::npos);
}

// ---- serve `stats` contract ----

std::string read_file_or_die(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ServeStats, SnapshotAtDrainByteMatchesBatchMetrics) {
  const std::string batch_dir =
      ::testing::TempDir() + "qoed_flow_stats_batch";
  const std::string serve_dir =
      ::testing::TempDir() + "qoed_flow_stats_serve";
  fs::remove_all(batch_dir);
  fs::remove_all(serve_dir);

  const std::vector<std::string> spec_lines = {
      "{\"scenario\":\"post\",\"seed\":31,\"reps\":1}",
      "{\"scenario\":\"pageload\",\"seed\":32,\"pages\":1}",
  };

  // Batch reference: a sharded fleet over the same specs.
  std::vector<svc::ScenarioSpec> specs;
  for (const std::string& line : spec_lines) {
    svc::ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(svc::ScenarioSpec::parse_json(line, &spec, &error)) << error;
    specs.push_back(std::move(spec));
  }
  core::CampaignConfig cfg;
  cfg.name = "fleet";
  cfg.runs = specs.size();
  cfg.jobs = 2;
  cfg.shard.out_dir = batch_dir;
  core::Campaign campaign(cfg);
  campaign.run([&specs](std::uint64_t, const core::RunSpec& rs) {
    return svc::run_scenario(specs[rs.run_index], rs);
  });
  std::ostringstream batch_metrics;
  core::ShardMetricsMergeSink(batch_dir).write(batch_metrics);

  // Serve session over the same specs: stats after drain.
  std::string script;
  for (const std::string& line : spec_lines) {
    script += "{\"cmd\":\"submit\"," + line.substr(1) + "\n";
  }
  script += "{\"cmd\":\"drain\"}\n{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n";
  std::istringstream in(script);
  std::ostringstream out;
  core::CampaignConfig serve_cfg;
  serve_cfg.name = "serve";
  serve_cfg.jobs = 2;
  serve_cfg.shard.out_dir = serve_dir;
  svc::ServeEngine engine(in, out, serve_cfg);
  ASSERT_EQ(engine.run(), 0);

  // Pull the stats reply line and its metrics payload.
  std::string stats_line;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"metrics\":") != std::string::npos) stats_line = line;
  }
  ASSERT_FALSE(stats_line.empty());
  EXPECT_NE(stats_line.find("\"ok\":true,\"committed\":2"),
            std::string::npos);
  const auto start = stats_line.find("\"metrics\":") + 10;
  const std::string stats_metrics =
      stats_line.substr(start, stats_line.size() - start - 1);  // trim '}'

  // Canonical-bytes contract: the live snapshot IS the merged artifact.
  EXPECT_EQ(stats_metrics + "\n", batch_metrics.str());
  EXPECT_EQ(read_file_or_die(serve_dir + "/metrics.json"),
            batch_metrics.str());

  // And the flow.* family made it into the fleet aggregate.
  EXPECT_NE(stats_metrics.find("\"flow.segments\":"), std::string::npos);

  fs::remove_all(batch_dir);
  fs::remove_all(serve_dir);
}

}  // namespace
}  // namespace qoed
