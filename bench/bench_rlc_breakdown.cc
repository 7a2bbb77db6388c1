// Fig. 8 (method: Fig. 9): fine-grained network latency breakdown for the
// 2-photo upload, 3G vs LTE.
//
// Decomposes the upload's network latency into IP-to-RLC delay, RLC
// transmission delay, first-hop OTA delay, and "other" via the long-jump
// mapping and poll/STATUS analysis. Also reports the PDU-count disparity
// behind Finding 2 (3G fixed 40-byte uplink PDUs vs LTE's large PDUs).
#include <cstdio>
#include <string>
#include <vector>

#include "apps/social_server.h"
#include "bench_util.h"

namespace qoed {
namespace {

using namespace core;

struct DirMapping {
  std::size_t packets = 0;
  double mapped_ratio = 0;
  // Renders "n/a" (not a misleading 0%) when the run carried no packets in
  // this direction.
  std::string pct() const {
    return packets > 0 ? core::Table::pct(mapped_ratio, 2) : "n/a";
  }
};

struct Result {
  FineBreakdown mean;
  std::uint64_t ip_packets = 0;
  std::uint64_t data_pdus = 0;
  DirMapping up, down;
  int runs = 0;
};

Result run(const radio::CellularConfig& cfg, int reps, std::uint64_t seed) {
  Testbed bed(seed);
  apps::SocialServer server(bed.network(), bed.next_server_ip());
  auto dev = bed.make_device("galaxy-s3");
  dev->attach_cellular(cfg);
  apps::SocialAppConfig app_cfg;
  app_cfg.refresh_interval = sim::Duration::zero();  // keep the loop finite
  apps::SocialApp app(*dev, app_cfg);
  app.launch();
  QoeDoctor doctor(*dev, app);
  FacebookDriver driver(doctor.controller(), app);
  app.login("alice");
  bed.advance(sim::sec(10));

  std::vector<BehaviorRecord> records;
  repeat_async(
      bed.loop(), static_cast<std::size_t>(reps), sim::sec(2),
      [&](std::size_t, std::function<void()> next) {
        driver.upload_post(apps::PostKind::kPhotos,
                           [&, next](const BehaviorRecord& rec) {
                             if (!rec.timed_out) records.push_back(rec);
                             next();
                           });
      },
      [] {});
  bed.loop().run();

  Result out;
  const radio::QxdmLogger& qxdm = dev->cellular()->qxdm();
  const MappingResult up = RlcMapper::map(
      dev->trace().records(), qxdm.pdu_log(), net::Direction::kUplink);
  const MappingResult down = RlcMapper::map(
      dev->trace().records(), qxdm.pdu_log(), net::Direction::kDownlink);
  // Paper reports both directions (99.52% up / 88.83% down): downlink logs
  // lose more PDU records, so its anchoring quality is the weaker figure.
  const auto fill = [](DirMapping& dm, const MappingResult& mapping) {
    dm.packets = mapping.packets.size();
    dm.mapped_ratio = mapping.mapped_ratio();
  };
  fill(out.up, up);
  fill(out.down, down);
  std::uint64_t packets_total = 0, pdus_total = 0;
  for (const auto& rec : records) {
    const FineBreakdown fine = network_breakdown(doctor.flows(), rec, up, qxdm,
                                                 net::Direction::kUplink);
    ++out.runs;
    out.mean.ip_to_rlc_s += fine.ip_to_rlc_s;
    out.mean.rlc_tx_s += fine.rlc_tx_s;
    out.mean.first_hop_ota_s += fine.first_hop_ota_s;
    out.mean.other_s += fine.other_s;
    out.mean.network_s += fine.network_s;

    const QoeWindow w = QoeWindow::of(rec);
    for (const auto& r : dev->trace().records()) {
      if (r.timestamp >= w.start && r.timestamp <= w.end) ++packets_total;
    }
    for (const auto& p : qxdm.pdu_log()) {
      if (p.is_status || p.payload_len == 0) continue;
      if (p.at >= w.start && p.at <= w.end) ++pdus_total;
    }
  }
  if (out.runs > 0) {
    const double n = out.runs;
    out.mean.ip_to_rlc_s /= n;
    out.mean.rlc_tx_s /= n;
    out.mean.first_hop_ota_s /= n;
    out.mean.other_s /= n;
    out.mean.network_s /= n;
    out.ip_packets = static_cast<std::uint64_t>(packets_total / n);
    out.data_pdus = static_cast<std::uint64_t>(pdus_total / n);
  }
  return out;
}

}  // namespace
}  // namespace qoed

int main() {
  using namespace qoed;
  bench::banner("Fine-grained network latency breakdown, 2-photo upload",
                "Figure 8 + Figure 9 method (IMC'14 QoE Doctor, §7.2)");

  constexpr int kReps = 12;
  const Result r3g = run(radio::CellularConfig::umts(), kReps, 801);
  const Result rlte = run(radio::CellularConfig::lte(), kReps, 802);

  core::Table fig8("Fig. 8 — network latency components (mean seconds)",
                   {"component", "C1 3G", "C1 LTE"});
  fig8.add_row({"IP-to-RLC delay (t1)", core::Table::num(r3g.mean.ip_to_rlc_s),
                core::Table::num(rlte.mean.ip_to_rlc_s)});
  fig8.add_row({"RLC transmission delay (t2)",
                core::Table::num(r3g.mean.rlc_tx_s),
                core::Table::num(rlte.mean.rlc_tx_s)});
  fig8.add_row({"first-hop OTA delay (t3)",
                core::Table::num(r3g.mean.first_hop_ota_s),
                core::Table::num(rlte.mean.first_hop_ota_s)});
  fig8.add_row({"other delay (t4)", core::Table::num(r3g.mean.other_s),
                core::Table::num(rlte.mean.other_s)});
  fig8.add_row({"total network latency", core::Table::num(r3g.mean.network_s),
                core::Table::num(rlte.mean.network_s)});
  fig8.print();

  core::Table pdus(
      "RLC PDU overhead per upload (paper: 10553 vs 4132 PDUs for 270 IP "
      "packets)",
      {"metric", "C1 3G", "C1 LTE"});
  pdus.add_row({"IP packets in QoE window", std::to_string(r3g.ip_packets),
                std::to_string(rlte.ip_packets)});
  pdus.add_row({"data PDUs in QoE window", std::to_string(r3g.data_pdus),
                std::to_string(rlte.data_pdus)});
  pdus.add_row({"PDU ratio 3G/LTE (paper: 2.55x)",
                rlte.data_pdus > 0
                    ? core::Table::num(static_cast<double>(r3g.data_pdus) /
                                           static_cast<double>(rlte.data_pdus),
                                       2) + "x"
                    : "-",
                ""});
  pdus.add_row({"IP->RLC mapping ratio (uplink, paper: 99.52%)",
                r3g.up.pct(), rlte.up.pct()});
  pdus.add_row({"IP->RLC mapping ratio (downlink, paper: 88.83%)",
                r3g.down.pct(), rlte.down.pct()});
  pdus.print();

  std::printf(
      "\nExpected shape (paper): the RLC transmission delay dominates the\n"
      "3G-vs-LTE gap; the extra PDU count implies per-PDU processing\n"
      "overhead that LTE's larger PDUs avoid.\n");
  return 0;
}
