// Fig. 19 + Fig. 20: video QoE vs throttled bandwidth, 100-500 kbps (§7.5).
//
// Sweeps the token-bucket rate for both carrier mechanisms (3G shaping, LTE
// policing) and reports mean rebuffering ratio (Fig. 19) and mean initial
// loading time (Fig. 20). Paper shape: LTE (policing) is consistently worse
// than 3G (shaping) at every rate, and both improve as the rate approaches
// the media bitrate.
//
// The whole sweep runs as ONE campaign: every (mechanism, rate, repetition)
// cell is an independent run with its own testbed, so the grid fans out over
// the worker pool instead of executing serially.
#include <cstdio>
#include <vector>

#include "apps/video_server.h"
#include "bench_util.h"
#include "radio/carrier.h"

namespace qoed {
namespace {

using namespace core;

// Set when --out-dir is given (sharded campaigns): each run captures its
// collector timeline into RunResult::artifacts for the shard files. The
// sweep runs no diagnosis engine, so there are no findings to capture.
bool g_artifacts = false;

constexpr double kMediaBitrate = 500e3;
const std::vector<double> kRates = {100e3, 200e3, 300e3, 400e3, 500e3};

std::string point_key(const char* metric, bool lte, double rate_bps) {
  return std::string(metric) + (lte ? "/lte/" : "/3g/") +
         std::to_string(static_cast<int>(rate_bps / 1000));
}

// One testbed watching `videos` videos at one sweep point; emits per-video
// samples under the point's metric names.
RunResult run_point(std::uint64_t seed, bool lte, double rate_bps,
                    int videos) {
  Testbed bed(seed);
  apps::VideoServer server(bed.network(), bed.next_server_ip());
  sim::Rng vid_rng = bed.fork_rng("videos");
  for (auto& v : apps::make_video_dataset(vid_rng, kMediaBitrate,
                                          sim::sec(20), sim::sec(45))) {
    server.add_video(v);
  }
  auto dev = bed.make_device("galaxy-s4");
  radio::Carrier c1 = radio::Carrier::c1();
  c1.throttle_rate_bps = rate_bps;
  dev->attach_cellular(lte ? c1.lte(/*over_limit=*/true)
                           : c1.umts(/*over_limit=*/true));
  dev->set_profile(device::DeviceProfile::galaxy_s4());
  apps::VideoApp app(*dev);
  app.launch();
  app.connect();
  bed.advance(sim::sec(5));
  QoeDoctor doctor(*dev, app);
  YouTubeDriver driver(doctor.controller(), app);

  RunResult out;
  sim::Rng pick = bed.fork_rng("pick");
  repeat_async(
      bed.loop(), static_cast<std::size_t>(videos), sim::sec(5),
      [&](std::size_t, std::function<void()> next) {
        const char kw = static_cast<char>('a' + pick.uniform_int(0, 25));
        const std::string id =
            std::string(1, kw) + std::to_string(pick.uniform_int(0, 9));
        driver.watch_video(
            std::string(1, kw) + " video", id,
            [&, next](const VideoWatchResult& r) {
              if (r.completed) {
                out.add_sample(point_key("rebuffering", lte, rate_bps),
                               r.rebuffering_ratio());
                out.add_sample(
                    point_key("loading", lte, rate_bps),
                    sim::to_seconds(
                        AppLayerAnalyzer::calibrate(r.initial_loading)));
                out.registry.add_counter("videos_completed", 1);
              }
              next();
            });
      },
      [] {});
  bed.loop().run();
  if (g_artifacts) {
    out.artifacts.timeline_jsonl =
        TimelineJsonlSink(doctor.collector()).to_string();
  }
  return out;
}

double point_mean(const CampaignResult& c, const char* metric, bool lte,
                  double rate_bps) {
  const MetricAggregate* agg = c.metric(point_key(metric, lte, rate_bps));
  return agg ? agg->pooled.mean : 0;
}

}  // namespace
}  // namespace qoed

int main(int argc, char** argv) {
  using namespace qoed;
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  g_artifacts = opts.sharded();
  bench::banner("Video QoE vs throttled bandwidth (100-500 kbps)",
                "Figure 19 + Figure 20 (IMC'14 QoE Doctor, §7.5)");

  // reps-per-point x videos-per-run = 20 videos per sweep point, as before
  // the campaign port. --runs scales the reps per point.
  constexpr int kVideosPerRun = 10;
  constexpr std::size_t kDefaultRepsPerPoint = 2;
  const std::size_t reps_per_point =
      opts.runs ? opts.runs : kDefaultRepsPerPoint;
  const std::size_t cells = kRates.size() * 2;

  core::CampaignConfig cfg = bench::campaign_config(
      opts, "throttle_sweep", cells * reps_per_point, /*default_seed=*/1900);
  cfg.runs = cells * reps_per_point;  // --runs means reps per point here
  core::Campaign campaign(cfg);
  const core::CampaignResult result = campaign.run(
      [&](std::uint64_t seed, const core::RunSpec& spec) {
        const std::size_t cell = spec.run_index % cells;
        const bool lte = cell >= kRates.size();
        const double rate = kRates[cell % kRates.size()];
        return run_point(seed, lte, rate, kVideosPerRun);
      });
  const bool wrote = bench::report_campaign(campaign, result, opts);

  core::Table fig19("Fig. 19 — rebuffering ratio vs throttled bandwidth",
                    {"rate (kbps)", "3G shaping", "LTE policing"});
  core::Table fig20("Fig. 20 — initial loading time (s) vs throttled bandwidth",
                    {"rate (kbps)", "3G shaping", "LTE policing"});
  for (double rate : kRates) {
    fig19.add_row(
        {core::Table::num(rate / 1000, 0),
         core::Table::pct(point_mean(result, "rebuffering", false, rate)),
         core::Table::pct(point_mean(result, "rebuffering", true, rate))});
    fig20.add_row(
        {core::Table::num(rate / 1000, 0),
         core::Table::num(point_mean(result, "loading", false, rate)),
         core::Table::num(point_mean(result, "loading", true, rate))});
  }
  fig19.print();
  fig20.print();

  std::printf(
      "\nExpected shape (paper Fig. 19/20): both metrics fall as the rate\n"
      "rises toward the 500 kbps media bitrate; LTE's policing stays above\n"
      "3G's shaping at every rate (dropped bursts => TCP retransmissions).\n");
  return wrote ? 0 : 1;
}
