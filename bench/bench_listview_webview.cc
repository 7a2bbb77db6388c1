// Fig. 14 + Fig. 15 + Fig. 16: Facebook news-feed design — WebView (app
// v1.8.3) vs ListView (app v5.0) — impact on update latency (§7.4).
//
// Device A posts a status every 2 minutes; device B replays pull-to-update
// and measures the news-feed updating time, under C1 LTE and WiFi. Reported:
// the latency CDF (Fig. 14), its device/network breakdown (Fig. 15), and
// the per-update network data consumption (Fig. 16). Finding 5: ListView
// cuts device latency >67%, network latency >30%, downlink bytes >77%.
#include <cstdio>
#include <vector>

#include "apps/social_server.h"
#include "bench_util.h"

namespace qoed {
namespace {

using namespace core;

struct DesignRun {
  std::vector<double> latencies_s;
  double device_s = 0;
  double network_s = 0;
  double uplink_kb_per_update = 0;
  double downlink_kb_per_update = 0;
  int updates = 0;
};

DesignRun run(apps::FeedDesign design, bool lte, int updates,
              std::uint64_t seed) {
  Testbed bed(seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  server.make_friends("alice", "bob");

  auto dev_a = bed.make_device("device-a");
  dev_a->attach_wifi();
  apps::SocialAppConfig cfg_a;
  cfg_a.refresh_interval = sim::Duration::zero();
  apps::SocialApp app_a(*dev_a, cfg_a);
  app_a.launch();
  app_a.login("alice");

  auto dev_b = bed.make_device("device-b");
  if (lte) {
    dev_b->attach_cellular(radio::CellularConfig::lte());
  } else {
    dev_b->attach_wifi();
  }
  apps::SocialAppConfig cfg_b;
  cfg_b.design = design;
  cfg_b.refresh_interval = sim::Duration::zero();  // isolate pull-to-update
  apps::SocialApp app_b(*dev_b, cfg_b);
  app_b.launch();
  QoeDoctor doctor(*dev_b, app_b);
  FacebookDriver driver(doctor.controller(), app_b);
  app_b.login("bob");
  bed.advance(sim::sec(30));

  DesignRun out;
  double up_bytes = 0, down_bytes = 0;
  std::vector<BehaviorRecord> records;

  repeat_async(
      bed.loop(), static_cast<std::size_t>(updates), sim::minutes(2),
      [&](std::size_t i, std::function<void()> next) {
        // A posts fresh content, then B pulls ~5s later (paper cadence
        // compressed: one post + one pull per 2-minute slot).
        app_a.tree().find_by_id("composer")->set_text(
            "item-" + std::to_string(i));
        app_a.set_compose_kind(apps::PostKind::kStatus);
        app_a.tree().find_by_id("post_button")->perform_click();
        bed.loop().schedule_after(sim::sec(5), [&, next] {
          driver.pull_to_update([&, next](const BehaviorRecord& rec) {
            if (!rec.timed_out) records.push_back(rec);
            next();
          });
        });
      },
      [] {});
  bed.loop().run();

  for (const auto& rec : records) {
    const DeviceNetworkSplit split =
        device_network_split(doctor.flows(), rec, "facebook");
    out.latencies_s.push_back(split.total_s);
    out.device_s += split.device_s;
    out.network_s += split.network_s;
    const auto vol =
        doctor.flows().bytes_in_window(rec.start, rec.end, "facebook");
    up_bytes += static_cast<double>(vol.uplink);
    down_bytes += static_cast<double>(vol.downlink);
    ++out.updates;
  }
  if (out.updates > 0) {
    out.device_s /= out.updates;
    out.network_s /= out.updates;
    out.uplink_kb_per_update = up_bytes / out.updates / 1024.0;
    out.downlink_kb_per_update = down_bytes / out.updates / 1024.0;
  }
  return out;
}

}  // namespace
}  // namespace qoed

int main() {
  using namespace qoed;
  bench::banner("Facebook feed design: WebView (v1.8.3) vs ListView (v5.0)",
                "Figure 14 + Figure 15 + Figure 16 (IMC'14 QoE Doctor, §7.4)");

  constexpr int kUpdates = 25;
  struct Cond {
    const char* label;
    apps::FeedDesign design;
    bool lte;
  };
  const std::vector<Cond> conds = {
      {"ListView, LTE", apps::FeedDesign::kListView, true},
      {"WebView, LTE", apps::FeedDesign::kWebView, true},
      {"ListView, WiFi", apps::FeedDesign::kListView, false},
      {"WebView, WiFi", apps::FeedDesign::kWebView, false},
  };

  std::vector<DesignRun> results;
  std::uint64_t seed = 1400;
  for (const auto& c : conds) {
    results.push_back(run(c.design, c.lte, kUpdates, seed++));
  }

  for (std::size_t i = 0; i < conds.size(); ++i) {
    std::vector<double> ms;
    for (double s : results[i].latencies_s) ms.push_back(s * 1000);
    bench::print_cdf(std::string("Fig. 14 — pull-to-update latency CDF, ") +
                         conds[i].label,
                     "latency (ms)", ms);
  }

  core::Table fig15("Fig. 15 — news feed updating time breakdown (mean s)",
                    {"condition", "device (s)", "network (s)", "total (s)"});
  core::Table fig16("Fig. 16 — network data per feed update",
                    {"condition", "uplink (KB)", "downlink (KB)"});
  for (std::size_t i = 0; i < conds.size(); ++i) {
    const DesignRun& r = results[i];
    fig15.add_row({conds[i].label, core::Table::num(r.device_s),
                   core::Table::num(r.network_s),
                   core::Table::num(r.device_s + r.network_s)});
    fig16.add_row({conds[i].label,
                   core::Table::num(r.uplink_kb_per_update, 2),
                   core::Table::num(r.downlink_kb_per_update, 2)});
  }
  fig15.print();
  fig16.print();

  const DesignRun& lv = results[0];
  const DesignRun& wv = results[1];
  std::printf(
      "\nFinding 5 check (LTE): ListView vs WebView — device latency\n"
      "-%.0f%% (paper >67%%), network latency -%.0f%% (paper >30%%),\n"
      "downlink data -%.0f%% (paper >77%% more in WebView).\n",
      (1 - lv.device_s / wv.device_s) * 100,
      (1 - lv.network_s / wv.network_s) * 100,
      (1 - lv.downlink_kb_per_update / wv.downlink_kb_per_update) * 100);
  return 0;
}
