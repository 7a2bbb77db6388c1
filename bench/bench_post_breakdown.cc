// Fig. 7: device vs network delay breakdown for Facebook post uploads.
//
// Posts status / check-in / 2 photos (50x each in the paper; configurable
// here) on C1 3G and C1 LTE, splits each action's user-perceived latency
// into device and network components via the QoE-window/flow analysis, and
// reports whether the network was on the critical path (Finding 1/2).
#include <cstdio>
#include <vector>

#include "apps/social_server.h"
#include "bench_util.h"

namespace qoed {
namespace {

using namespace core;

struct Condition {
  std::string name;
  radio::CellularConfig cfg;
};

struct Row {
  std::string network;
  std::string action;
  Summary total;
  Summary device_part;
  Summary network_part;
  int on_critical_path = 0;
  int runs = 0;
};

Row run_condition(const Condition& cond, apps::PostKind kind, int reps,
                  std::uint64_t seed) {
  Testbed bed(seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("galaxy-s3");
  dev->attach_cellular(cond.cfg);
  apps::SocialAppConfig app_cfg;
  app_cfg.refresh_interval = sim::Duration::zero();  // keep the loop finite
  apps::SocialApp app(*dev, app_cfg);
  app.launch();
  QoeDoctor doctor(*dev, app);
  FacebookDriver driver(doctor.controller(), app);
  app.login("alice");
  bed.advance(sim::sec(10));

  std::vector<double> total_s, device_s, network_s;
  int critical = 0, runs = 0;
  std::vector<BehaviorRecord> records;
  repeat_async(
      bed.loop(), static_cast<std::size_t>(reps), sim::sec(2),
      [&](std::size_t, std::function<void()> next) {
        driver.upload_post(kind, [&, next](const BehaviorRecord& rec) {
          if (!rec.timed_out) records.push_back(rec);
          next();
        });
      },
      [] {});
  bed.loop().run();

  for (const auto& rec : records) {
    const DeviceNetworkSplit split =
        device_network_split(doctor.flows(), rec, "facebook");
    ++runs;
    total_s.push_back(split.total_s);
    if (split.network_on_critical_path) {
      ++critical;
      device_s.push_back(split.device_s);
      network_s.push_back(split.network_s);
    } else {
      // Network off the critical path: the whole latency is device-side.
      device_s.push_back(split.total_s);
      network_s.push_back(0.0);
    }
  }

  Row row;
  row.network = cond.name;
  row.action = apps::to_string(kind);
  row.total = summarize(total_s);
  row.device_part = summarize(device_s);
  row.network_part = summarize(network_s);
  row.on_critical_path = critical;
  row.runs = runs;
  return row;
}

}  // namespace
}  // namespace qoed

int main() {
  using namespace qoed;
  bench::banner("Facebook post uploading time breakdown",
                "Figure 7 (IMC'14 QoE Doctor, §7.2)");

  constexpr int kReps = 20;
  const std::vector<Condition> conditions = {
      {"C1 3G", radio::CellularConfig::umts()},
      {"C1 LTE", radio::CellularConfig::lte()},
  };
  const std::vector<apps::PostKind> kinds = {
      apps::PostKind::kPhotos, apps::PostKind::kCheckin,
      apps::PostKind::kStatus};

  core::Table fig7(
      "Fig. 7 — device and network delay per post upload",
      {"network", "action", "total (s)", "device (s)", "network (s)",
       "net share", "net on critical path", "stddev (s)"});

  std::uint64_t seed = 700;
  for (const auto& cond : conditions) {
    for (const auto kind : kinds) {
      const Row row = run_condition(cond, kind, kReps, seed++);
      const double share =
          row.total.mean > 0 ? row.network_part.mean / row.total.mean : 0;
      fig7.add_row({row.network, row.action, core::Table::num(row.total.mean),
                    core::Table::num(row.device_part.mean),
                    core::Table::num(row.network_part.mean),
                    core::Table::pct(share),
                    std::to_string(row.on_critical_path) + "/" +
                        std::to_string(row.runs),
                    core::Table::num(row.total.stddev)});
    }
  }
  fig7.print();

  std::printf(
      "\nExpected shape (paper): status/check-in latency is almost entirely\n"
      "device-side (local feed echo, Finding 1); 2-photo uploads are >65%%\n"
      "network with 3G network latency ~1.5x LTE (Finding 2).\n");
  return 0;
}
