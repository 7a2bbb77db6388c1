// Fig. 10 + Fig. 11: Facebook background traffic data and energy vs the
// friend's post-upload frequency (§7.3).
//
// Device A posts statuses every {10 min, 30 min, 1 h, never}; device B (the
// measured handset, on 3G) passively receives push notifications and runs
// its default 1-hour background refresh. We report B's per-flow Facebook
// mobile data consumption split up/down and its network energy split
// tail/non-tail over a 16-hour run, scaled to per-day values like the
// paper's Finding 3 (~200 KB and ~300 J per day with no friend activity).
#include <cstdio>
#include <optional>
#include <vector>

#include "apps/social_server.h"
#include "bench_util.h"
#include "diag/rrc_state_tracker.h"

namespace qoed {
namespace {

using namespace core;

struct TrafficRun {
  double uplink_kb = 0;
  double downlink_kb = 0;
  double tail_j = 0;
  double non_tail_j = 0;
  std::uint64_t pushes = 0;
};

TrafficRun run(std::optional<sim::Duration> post_interval, sim::Duration hours,
              std::uint64_t seed) {
  Testbed bed(seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  server.make_friends("alice", "bob");

  // Device A: the posting friend (WiFi; its consumption is not measured).
  auto dev_a = bed.make_device("device-a");
  dev_a->attach_wifi();
  apps::SocialAppConfig cfg_a;
  cfg_a.refresh_interval = sim::Duration::zero();  // A itself stays quiet
  apps::SocialApp app_a(*dev_a, cfg_a);
  app_a.launch();
  app_a.login("alice");

  // Device B: measured, 3G, default 1-hour refresh interval.
  auto dev_b = bed.make_device("device-b");
  dev_b->attach_cellular(radio::CellularConfig::umts());
  apps::SocialApp app_b(*dev_b);
  app_b.launch();
  app_b.login("bob");
  bed.advance(sim::sec(30));

  // Measurement starts now: background-only traffic from here on. The
  // trace keeps the login-time DNS lookups (tcpdump would have them too);
  // all metrics below are window-filtered to [t0, t1].
  const sim::TimePoint t0 = bed.loop().now();

  if (post_interval) {
    const std::size_t posts = static_cast<std::size_t>(hours / *post_interval);
    repeat_async(
        bed.loop(), posts, *post_interval - sim::sec(2),
        [&](std::size_t i, std::function<void()> next) {
          app_a.tree().find_by_id("composer")->set_text(
              "update-" + std::to_string(i));
          app_a.set_compose_kind(apps::PostKind::kStatus);
          app_a.tree().find_by_id("post_button")->perform_click();
          bed.loop().schedule_after(sim::sec(2), next);
        },
        [] {});
  }
  bed.advance(hours);
  const sim::TimePoint t1 = bed.loop().now();

  TrafficRun out;
  FlowAnalyzer flows(dev_b->trace().records());
  const auto vol = flows.bytes_in_window(t0, t1, "facebook");
  out.uplink_kb = static_cast<double>(vol.uplink) / 1024.0;
  out.downlink_kb = static_cast<double>(vol.downlink) / 1024.0;
  const diag::RrcStateTracker rrc(dev_b->cellular()->qxdm(),
                                  dev_b->cellular()->config().rrc);
  const diag::EnergyBreakdown eb = rrc.energy_breakdown(t0, t1);
  out.tail_j = eb.tail_joules;
  out.non_tail_j = eb.non_tail_joules;
  out.pushes = app_b.push_notifications();
  return out;
}

}  // namespace
}  // namespace qoed

int main() {
  using namespace qoed;
  bench::banner(
      "Facebook background traffic: data and energy vs post frequency",
      "Figure 10 + Figure 11 (IMC'14 QoE Doctor, §7.3)");

  const sim::Duration kRun = sim::hours(16);
  struct Cond {
    const char* label;
    std::optional<sim::Duration> interval;
  };
  const std::vector<Cond> conds = {
      {"10 min", sim::minutes(10)},
      {"30 min", sim::minutes(30)},
      {"1 hr", sim::hours(1)},
      {"none", std::nullopt},
  };

  core::Table fig10("Fig. 10 — per-flow mobile data consumption (16h run)",
                    {"post freq", "uplink (KB)", "downlink (KB)",
                     "total (KB)", "pushes rcvd"});
  core::Table fig11("Fig. 11 — estimated network energy (16h run)",
                    {"post freq", "non-tail (J)", "tail (J)", "total (J)"});

  double none_total_kb = 0, none_total_j = 0;
  std::uint64_t seed = 1000;
  for (const auto& c : conds) {
    const TrafficRun r = run(c.interval, kRun, seed++);
    const double total_kb = r.uplink_kb + r.downlink_kb;
    const double total_j = r.tail_j + r.non_tail_j;
    fig10.add_row({c.label, core::Table::num(r.uplink_kb, 1),
                   core::Table::num(r.downlink_kb, 1),
                   core::Table::num(total_kb, 1), std::to_string(r.pushes)});
    fig11.add_row({c.label, core::Table::num(r.non_tail_j, 1),
                   core::Table::num(r.tail_j, 1),
                   core::Table::num(total_j, 1)});
    if (!c.interval) {
      none_total_kb = total_kb;
      none_total_j = total_j;
    }
  }
  fig10.print();
  fig11.print();

  std::printf(
      "\nFinding 3 check: with no friend posts at all, non-time-sensitive\n"
      "background traffic still costs ~%.0f KB and ~%.0f J per day\n"
      "(paper: ~200 KB and ~300 J per day).\n",
      none_total_kb * 24 / 16, none_total_j * 24 / 16);
  return 0;
}
