// Table 3 + Fig. 6: tool accuracy and overhead.
//
// For each replayed action we compare QoE Doctor's calibrated user-perceived
// latency against the ground-truth screen change (the simulation's stand-in
// for the paper's 60fps camera): t_d = |measured - t_screen| must stay under
// 40 ms and under 4% of t_screen. We also reproduce the IP->RLC mapping
// ratios and the controller's worst-case CPU overhead.
//
// Each action family runs as a Campaign: the paper's 30x repetition protocol
// becomes `runs` independent testbeds (own seed, device and app instance)
// fanned out over the worker pool, with samples pooled across runs.
//
// Every run instruments its doctor through svc::Instruments, the stage and
// epilogue fleet runs use: live diagnosis always, plus capture faults when
// QOED_FAULT_PLAN (and optionally QOED_FAULT_SEED) is set, to replay the
// whole bench under injected collection faults; fault.* counters then
// appear in the campaign JSON alongside the accuracy metrics.
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "apps/social_server.h"
#include "apps/video_server.h"
#include "apps/web_server.h"
#include "bench_util.h"
#include "fault/fault_injector.h"
#include "svc/run_spec.h"

namespace qoed {
namespace {

using namespace core;

// Set once in main (before any campaign starts) when --trace is given; each
// run then records its doctor's tracer and hands it to the campaign via
// RunResult::trace.
bool g_trace = false;
// Set when --out-dir is given (sharded campaigns): each run also captures
// its findings/timeline JSONL into RunResult::artifacts for streaming into
// the shard files.
bool g_artifacts = false;

// Runs the session to its end, then the shared epilogue; artifacts are
// encoded only for sharded campaigns.
RunResult complete(svc::Instruments& instruments, QoeDoctor& doctor,
                   RunResult& out) {
  instruments.run();
  instruments.finish(&out);
  if (g_artifacts) instruments.encode_artifacts(&out.artifacts);
  out.trace = std::move(doctor.obs().tracer);
  return std::move(out);
}

struct AccuracySample {
  double measured_s = 0;
  double truth_s = 0;

  double error_s() const { return std::abs(measured_s - truth_s); }
};

// Ground truth from the screen: the draw containing the first revision after
// the pre-detection snapshot.
double truth_latency(const BehaviorRecord& rec, const ui::Screen& screen) {
  auto end_truth = screen.draw_time_for(rec.prev_end_revision + 1);
  if (!end_truth) return 0;
  sim::TimePoint start_truth = rec.start;
  if (rec.start_from_parse) {
    auto s = screen.draw_time_for(rec.prev_start_revision + 1);
    if (!s) return 0;
    start_truth = *s;
  }
  return sim::to_seconds(*end_truth - start_truth);
}

void record(RunResult* out, const std::string& prefix,
            const AccuracySample& s, double min_truth_s = 0.0) {
  // `min_truth_s` drops sub-threshold events (e.g. fractional-second tail
  // stalls) whose error *ratio* is dominated by the fixed +-t_parsing/2
  // detection granularity; the paper's shortest observed t_screen per
  // metric was on the order of a second or more.
  if (s.truth_s <= 0 || s.truth_s < min_truth_s) return;
  out->add_sample(prefix + "error_ms", s.error_s() * 1000);
  out->add_sample(prefix + "truth_s", s.truth_s);
}

RunResult facebook_run(std::uint64_t seed, apps::PostKind kind, int reps) {
  Testbed bed(seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("galaxy-s3");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::SocialAppConfig app_cfg;
  app_cfg.refresh_interval = sim::Duration::zero();  // keep the loop finite
  apps::SocialApp app(*dev, app_cfg);
  app.launch();
  app.login("alice");
  bed.advance(sim::sec(10));
  QoeDoctor doctor(*dev, app);
  svc::Instruments instruments(doctor, bed.loop(),
                               fault::injector_from_env(seed), "", g_trace);
  FacebookDriver driver(doctor.controller(), app);

  RunResult out;
  repeat_async(
      bed.loop(), static_cast<std::size_t>(reps), sim::sec(2),
      [&](std::size_t, std::function<void()> next) {
        driver.upload_post(kind, [&, next](const BehaviorRecord& rec) {
          // Let the final frame reach the screen before reading the truth.
          bed.loop().schedule_after(sim::msec(100), [&, next, rec] {
            if (!rec.timed_out) {
              AccuracySample s;
              s.measured_s =
                  sim::to_seconds(AppLayerAnalyzer::calibrate(rec));
              s.truth_s = truth_latency(rec, dev->screen());
              record(&out, "", s);
            }
            next();
          });
        });
      },
      [] {});
  return complete(instruments, doctor, out);
}

RunResult pull_to_update_run(std::uint64_t seed, int reps) {
  Testbed bed(seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto poster_dev = bed.make_device("poster");
  poster_dev->attach_wifi();
  auto dev = bed.make_device("galaxy-s4");
  dev->attach_cellular(radio::CellularConfig::lte());
  apps::SocialAppConfig quiet;
  quiet.refresh_interval = sim::Duration::zero();
  apps::SocialApp poster(*poster_dev, quiet);
  apps::SocialApp app(*dev, quiet);
  poster.launch();
  app.launch();
  server.make_friends("alice", "bob");
  poster.login("alice");
  app.login("bob");
  bed.advance(sim::sec(10));
  QoeDoctor doctor(*dev, app);
  svc::Instruments instruments(doctor, bed.loop(),
                               fault::injector_from_env(seed), "", g_trace);
  FacebookDriver driver(doctor.controller(), app);

  RunResult out;
  repeat_async(
      bed.loop(), static_cast<std::size_t>(reps), sim::sec(3),
      [&](std::size_t i, std::function<void()> next) {
        // Fresh content so the pull has something to fetch.
        poster.tree().find_by_id("composer")->set_text(
            "post-" + std::to_string(i));
        poster.tree().find_by_id("post_button")->perform_click();
        bed.loop().schedule_after(sim::sec(2), [&, next] {
          driver.pull_to_update([&, next](const BehaviorRecord& rec) {
            bed.loop().schedule_after(sim::msec(100), [&, next, rec] {
              if (!rec.timed_out) {
                AccuracySample s;
                s.measured_s =
                    sim::to_seconds(AppLayerAnalyzer::calibrate(rec));
                s.truth_s = truth_latency(rec, dev->screen());
                record(&out, "", s);
              }
              next();
            });
          });
        });
      },
      [] {});
  return complete(instruments, doctor, out);
}

// YouTube initial loading + rebuffering accuracy in one pass; emits
// "loading_*" and "rebuff_*" metrics.
RunResult youtube_run(std::uint64_t seed, int videos) {
  Testbed bed(seed);
  apps::VideoServer server(bed.network(), bed.next_server_ip());
  sim::Rng vid_rng = bed.fork_rng("videos");
  for (auto& v : apps::make_video_dataset(vid_rng, 500e3, sim::sec(25),
                                          sim::sec(45))) {
    server.add_video(v);
  }
  auto dev = bed.make_device("galaxy-s4");
  // Throttled shaping below the media bitrate so stalls actually happen.
  radio::CellularConfig cfg = radio::CellularConfig::umts();
  cfg.throttle = net::ThrottleKind::kShaping;
  cfg.throttle_rate_bps = 300e3;
  dev->attach_cellular(cfg);
  apps::VideoApp app(*dev);
  app.launch();
  app.connect();
  bed.advance(sim::sec(5));
  QoeDoctor doctor(*dev, app);
  svc::Instruments instruments(doctor, bed.loop(),
                               fault::injector_from_env(seed), "", g_trace);
  YouTubeDriver driver(doctor.controller(), app);

  RunResult out;
  repeat_async(
      bed.loop(), static_cast<std::size_t>(videos), sim::sec(3),
      [&](std::size_t i, std::function<void()> next) {
        const std::string id = "a" + std::to_string(i % 10);
        driver.watch_video(
            "a video", id, [&, next](const VideoWatchResult& r) {
              bed.loop().schedule_after(sim::msec(100), [&, next, r] {
                if (!r.initial_loading.timed_out) {
                  AccuracySample s;
                  s.measured_s = sim::to_seconds(
                      AppLayerAnalyzer::calibrate(r.initial_loading));
                  s.truth_s = truth_latency(r.initial_loading, dev->screen());
                  record(&out, "loading_", s);
                }
                for (const auto& stall : r.stalls) {
                  AccuracySample s;
                  s.measured_s =
                      sim::to_seconds(AppLayerAnalyzer::calibrate(stall));
                  s.truth_s = truth_latency(stall, dev->screen());
                  record(&out, "rebuff_", s, /*min_truth_s=*/1.0);
                }
                next();
              });
            });
      },
      [] {});
  return complete(instruments, doctor, out);
}

RunResult browser_run(std::uint64_t seed, int reps) {
  Testbed bed(seed);
  apps::WebServer server(bed.network(), bed.next_server_ip());
  server.add_page({.path = "/index",
                   .html_bytes = 55'000,
                   .object_count = 12,
                   .object_bytes = 24'000});
  auto dev = bed.make_device("galaxy-s3");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::BrowserApp app(*dev);
  app.launch();
  QoeDoctor doctor(*dev, app);
  svc::Instruments instruments(doctor, bed.loop(),
                               fault::injector_from_env(seed), "", g_trace);
  BrowserDriver driver(doctor.controller(), app);

  RunResult out;
  repeat_async(
      bed.loop(), static_cast<std::size_t>(reps), sim::sec(20),
      [&](std::size_t, std::function<void()> next) {
        driver.load_page(
            "www.page.sim/index", [&, next](const BehaviorRecord& rec) {
              bed.loop().schedule_after(sim::msec(100), [&, next, rec] {
                if (!rec.timed_out) {
                  AccuracySample s;
                  s.measured_s =
                      sim::to_seconds(AppLayerAnalyzer::calibrate(rec));
                  s.truth_s = truth_latency(rec, dev->screen());
                  record(&out, "", s);
                }
                next();
              });
            });
      },
      [] {});
  return complete(instruments, doctor, out);
}

struct OverheadAndMapping {
  double cpu_overhead = 0;
  double ul_ratio = 0;
  double dl_ratio = 0;
};

OverheadAndMapping overhead_and_mapping(int posts) {
  Testbed bed(105);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("galaxy-s3");
  dev->attach_cellular(radio::CellularConfig::umts());
  apps::SocialAppConfig app_cfg;
  app_cfg.refresh_interval = sim::Duration::zero();
  apps::SocialApp app(*dev, app_cfg);
  app.launch();
  QoeDoctor doctor(*dev, app);
  FacebookDriver driver(doctor.controller(), app);
  app.login("alice");
  bed.advance(sim::sec(10));

  const sim::Duration app_cpu0 = dev->cpu().total("app");
  const sim::Duration ctl_cpu0 = dev->cpu().total("controller");
  repeat_async(
      bed.loop(), static_cast<std::size_t>(posts), sim::sec(2),
      [&](std::size_t, std::function<void()> next) {
        driver.upload_post(apps::PostKind::kPhotos,
                           [next](const BehaviorRecord&) { next(); });
      },
      [] {});
  bed.loop().run();

  OverheadAndMapping out;
  const double app_cpu =
      sim::to_seconds(dev->cpu().total("app") - app_cpu0);
  const double ctl_cpu =
      sim::to_seconds(dev->cpu().total("controller") - ctl_cpu0);
  out.cpu_overhead = ctl_cpu / std::max(app_cpu + ctl_cpu, 1e-9);

  const auto mapped_ratio = [&](net::Direction dir) {
    return RlcMapper::map(dev->trace().records(),
                          dev->cellular()->qxdm().pdu_log(), dir)
        .mapped_ratio();
  };
  out.ul_ratio = mapped_ratio(net::Direction::kUplink);
  out.dl_ratio = mapped_ratio(net::Direction::kDownlink);
  return out;
}

void report_metric(core::Table& fig6, const std::string& name,
                   const CampaignResult& c, const std::string& prefix,
                   double* max_error_ms) {
  const MetricAggregate* err = c.metric(prefix + "error_ms");
  const MetricAggregate* truth = c.metric(prefix + "truth_s");
  const double worst_ms = err ? err->pooled.max : 0;
  const double shortest = truth && truth->pooled.n > 0 ? truth->pooled.min : 0;
  // Paper Fig. 6 method: upper-bound ratio = max error over shortest
  // t_screen in the experiment set.
  const double worst_ratio = shortest > 0 ? worst_ms / 1000 / shortest : 0;
  *max_error_ms = std::max(*max_error_ms, worst_ms);
  fig6.add_row({name, std::to_string(err ? err->pooled.n : 0),
                core::Table::num(worst_ms, 1),
                core::Table::pct(worst_ratio, 2)});
}

}  // namespace
}  // namespace qoed

int main(int argc, char** argv) {
  using namespace qoed;
  const bench::BenchOptions opts =
      bench::parse_options(argc, argv, {.trace = true});
  g_trace = opts.tracing();
  g_artifacts = opts.sharded();
  bench::TraceCollector traces;
  bool wrote = true;
  bench::banner("QoE measurement accuracy and overhead",
                "Table 3 and Figure 6 (IMC'14 QoE Doctor, §7.1)");

  // 5 runs x 6 reps reproduces the paper's 30x protocol per action family.
  constexpr int kRepsPerRun = 6;
  constexpr std::size_t kDefaultRuns = 5;

  core::Campaign post_campaign(
      bench::campaign_config(opts, "accuracy/post", kDefaultRuns, 101));
  const core::CampaignResult post = post_campaign.run(
      [](std::uint64_t seed, const core::RunSpec&) {
        return facebook_run(seed, apps::PostKind::kStatus, kRepsPerRun);
      });
  wrote &= bench::report_campaign(post_campaign, post, opts, &traces);

  core::Campaign pull_campaign(
      bench::campaign_config(opts, "accuracy/pull", kDefaultRuns, 102));
  const core::CampaignResult pull = pull_campaign.run(
      [](std::uint64_t seed, const core::RunSpec&) {
        return pull_to_update_run(seed, kRepsPerRun);
      });
  wrote &= bench::report_campaign(pull_campaign, pull, opts, &traces);

  core::Campaign yt_campaign(
      bench::campaign_config(opts, "accuracy/youtube", /*default_runs=*/4,
                             103));
  const core::CampaignResult yt = yt_campaign.run(
      [](std::uint64_t seed, const core::RunSpec&) {
        return youtube_run(seed, /*videos=*/2);
      });
  wrote &= bench::report_campaign(yt_campaign, yt, opts, &traces);

  core::Campaign page_campaign(
      bench::campaign_config(opts, "accuracy/browser", kDefaultRuns, 104));
  const core::CampaignResult pages = page_campaign.run(
      [](std::uint64_t seed, const core::RunSpec&) {
        return browser_run(seed, kRepsPerRun);
      });
  wrote &= bench::report_campaign(page_campaign, pages, opts, &traces);

  double max_error_ms = 0;
  core::Table fig6("Fig. 6 — latency measurement error per action",
                   {"metric", "n", "max |t_d| (ms)", "error ratio bound"});
  report_metric(fig6, "Facebook post update", post, "", &max_error_ms);
  report_metric(fig6, "Facebook pull-to-update", pull, "", &max_error_ms);
  report_metric(fig6, "YouTube initial loading", yt, "loading_",
                &max_error_ms);
  report_metric(fig6, "YouTube rebuffering", yt, "rebuff_", &max_error_ms);
  report_metric(fig6, "Web page loading", pages, "", &max_error_ms);
  fig6.print();

  auto om = overhead_and_mapping(10);
  core::Table t3("Table 3 — tool accuracy and overhead summary",
                 {"item", "value", "paper"});
  t3.add_row({"user-perceived latency meas. error",
              core::Table::num(max_error_ms, 1) + " ms",
              "<= 40 ms"});
  t3.add_row({"transport/network->RLC mapping (uplink)",
              core::Table::pct(om.ul_ratio, 2), "99.52%"});
  t3.add_row({"transport/network->RLC mapping (downlink)",
              core::Table::pct(om.dl_ratio, 2), "88.83%"});
  t3.add_row({"CPU overhead (photo upload, worst case)",
              core::Table::pct(om.cpu_overhead, 2), "6.18%"});
  t3.print();
  traces.write(opts.trace_path);
  return wrote ? 0 : 1;
}
